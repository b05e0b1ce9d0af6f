"""Job lists of the benchmark workloads.

A job is the argument list of one ``orbitcalc`` CLI call.  Every job runs in
a fresh process, so it pays interpreter start, import and cold caches, as a
CLI user does.  A workload is a closed loop over its job list: one job at a
time, the next one started when the previous one has exited.  The seed
permutes the job order and, on ``poly``, picks the clans given to
``chern``.  Every job any seed can generate has a recorded reference output
(see ``record_reference.py``).

Why each workload:

* ``poly`` -- ``verify``, ``classes`` and ``chern`` jobs: ``poly`` does
  nearly all of the work, both evaluating polynomials (restriction to
  torus-fixed points, ``restrict_at`` / ``Polynomial.substitute``) and
  building them (divided differences, products, Chern rewrite, text
  rendering).
* ``order`` -- ``conjecture`` jobs: enumeration, rank tables / ``leq``,
  saturation and order comparison do all of the work and ``poly`` does none.
"""

from __future__ import annotations

import random

Job = tuple[str, ...]


def parse_job(text: str) -> Job:
    return tuple(text.split())


FIXED_JOBS: dict[str, tuple[Job, ...]] = {
    "poly": tuple(map(parse_job, (
        "verify",
        "verify --case a --p 1 --q 4",
        "classes --case a --p 3 --q 3",
        "classes --case d-so-gl --n 4",
        "classes --case b-so --p 2 --q 2",
    ))),
    "order": tuple(map(parse_job, (
        "conjecture --case b-so --p 2 --q 2",
        "conjecture --case b-so --p 3 --q 1",
        "conjecture --case c-spxsp --p 2 --q 2",
        "conjecture --case d-so-gl --n 4",
        "conjecture --case d-oxo-even --p 2 --q 2",
        "conjecture --case d-oxo-odd --p 2 --q 2",
    ))),
}

# The ``chern`` jobs of ``poly``: one clan per weak rank, picked by the
# seed among the clans of that rank that are neither closed nor dense.  Keys
# are the case options; values list the candidates of weak ranks 1, 2, ...
CHERN_CANDIDATES: dict[str, tuple[tuple[str, ...], ...]] = {
    "--case a --p 2 --q 3": (
        ("+--11", "+-11-", "+11--", "-+-11", "-+11-", "--+11", "--11+",
         "-11+-", "-11-+", "11+--", "11-+-", "11--+"),
        ("+-1-1", "+1-1-", "-+1-1", "--1+1", "-1+1-", "-1-1+", "-1122",
         "1+1--", "1-1+-", "1-1-+", "11-22", "1122-"),
        ("+1--1", "-1+-1", "-1-+1", "-1212", "1+-1-", "1-+1-", "1--1+",
         "1-122", "112-2", "1212-"),
        ("-1221", "1+--1", "1-+-1", "1--+1", "1-212", "121-2", "1221-"),
        ("1-221", "12-12", "122-1"),
    ),
}

WORKLOADS = tuple(FIXED_JOBS)

# The trivial job whose start-to-exit time is the set-up metric.
SETUP_JOB: Job = parse_job("enumerate --case a --p 1 --q 1")


def _chern_job(case: str, clan: str) -> Job:
    # ``--clan=`` form: a clan may start with "-".
    return ("chern", *case.split(), f"--clan={clan}")


def job_list(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for this seed, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = list(FIXED_JOBS[workload])
    if workload == "poly":
        for case, ranks in CHERN_CANDIDATES.items():
            jobs.extend(_chern_job(case, rng.choice(clans)) for clans in ranks)
    rng.shuffle(jobs)
    return jobs


def all_jobs() -> list[Job]:
    """Every job any seed can generate, the set-up job included."""
    jobs = [SETUP_JOB]
    for fixed in FIXED_JOBS.values():
        jobs.extend(fixed)
    for case, ranks in CHERN_CANDIDATES.items():
        jobs.extend(_chern_job(case, clan) for clans in ranks for clan in clans)
    return jobs


def job_key(job: Job) -> str:
    return " ".join(job)
