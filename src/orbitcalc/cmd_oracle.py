"""``orbitcalc oracle``: rank numbers measured on representative flags
against the rank tables, before and after a block-diagonal move."""

from .cli import VERIFY_ERROR, emit


def run(args) -> int:
    import random

    from .clans import enumerate_clans, rank_table
    from .geometry import (GeometryError, block_diagonal_matrix, measure_rank_numbers,
                           representative_flag)
    move_max = args.max_n
    measure_max = args.measure_max_n
    rng = random.Random("oracle")  # a str seed does not depend on PYTHONHASHSEED
    mismatches = []
    measured = 0
    moved = 0
    for n in range(1, max(measure_max, move_max) + 1):
        for p in range(0, n + 1):
            q = n - p
            for c in enumerate_clans(p, q):
                at = f"at {c.to_text()} ({p},{q})"
                try:
                    flag, table = representative_flag(c), rank_table(c)
                    if n <= measure_max:
                        measured += 1
                        if measure_rank_numbers(flag, p, q) != table:
                            mismatches.append(f"measure mismatch {at}")
                    if n <= move_max:
                        moved += 1
                        k = block_diagonal_matrix(rng, p, q)
                        if measure_rank_numbers(flag.transformed(k), p, q) != table:
                            mismatches.append(f"K-invariance mismatch {at}")
                except GeometryError as exc:
                    raise GeometryError(f"{exc} {at}") from exc
    status = "OK" if not mismatches else "FAIL"
    out = [
        f"{status}  measured {measured} representative flags (p+q <= {measure_max}), "
        f"moved {moved} by a block-diagonal k (p+q <= {move_max})"
    ]
    out.extend("      " + m for m in mismatches)
    emit(args, (line + "\n" for line in out))
    return VERIFY_ERROR if mismatches else 0
