"""orbitcalc: exact computation of symmetric-subgroup orbit posets and
torus-equivariant classes on flag varieties, parametrized by clans."""

__version__ = "0.1.0"

from .clans import (  # noqa: F401
    CaseId,
    Clan,
    ClanError,
    RankTable,
    case_from_params,
    enumerate_case_clans,
    enumerate_clans,
    in_case_family,
    leq,
    make_clan,
    parse_clan,
    rank_table,
)
