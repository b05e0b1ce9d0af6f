"""orbitcalc: exact computation of symmetric-subgroup orbit posets and
torus-equivariant classes on flag varieties, parametrized by clans."""

__version__ = "0.1.0"
