#!/usr/bin/env python3
"""CPU time of the stages of ``conjecture`` and ``classes`` at the stretch
ranks, written as JSON to ``BENCH_stage_times.json``.

Each row runs ``RUNS`` times, each run in a process of its own, timed there
with ``time.process_time``; the row reports the median of each figure.  An
``order`` row times first ``weak_order_graph`` (its enumeration included,
and timed on its own as ``enumerate_s``), then ``full_closure_order`` and
``check_conjecture`` together.  A ``classes`` row builds the weak-order
graph untimed, then times ``all_classes`` (the clock is read before its
terms are counted), then the text of every class as ``classes`` writes it.
After each stage the row also reports the process's peak resident set.  A
run still going after ``CAP_S`` seconds of wall time is stopped, each stage
it did not finish reads "timeout", and the row is that run: it is not run
again.

The first row, ``startup``, is what a call pays before orbitcalc computes
anything: the median CPU time (user plus system, from ``os.wait4``) of
``STARTUP_SPAWNS`` fresh spawns each of ``python -c pass`` and of the
trivial call ``python -m orbitcalc enumerate --case a --p 1 --q 1``, spawned
alternately, and whether ``PYTHONDONTWRITEBYTECODE`` was set (then every
call compiles the sources again).

Usage, from the root of a source checkout::

    PYTHONPATH=src python3 scripts/stage_times.py [--output FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROWS = (("order", "b-so", 3, 4), ("order", "c-spxsp", 4, 4), ("order", "a", 4, 4),
        ("order", "c-sp-gl", 7, 7), ("classes", "a", 3, 4), ("classes", "d-so-gl", 5, 5))
STAGES = {"order": ("weak_s", "saturate_compare_s"), "classes": ("propagate_s", "render_s")}
CAP_S = 120.0  # wall-time cap of one run of a row, in seconds
RUNS = 3  # runs of a row; each figure is their median
STARTUP_SPAWNS = 15  # spawns of each start-up command; the row reports their medians
STARTUP = {"python_pass_s": ("-c", "pass"),
           "orbitcalc_trivial_s": ("-m", "orbitcalc", "enumerate", "--case", "a", "--p", "1",
                                   "--q", "1")}


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def time_order(case) -> None:
    """Time an ``order`` row's two stages, printing one JSON line after each."""
    from orbitcalc import orbits
    from orbitcalc.orbits import check_conjecture, full_closure_order, weak_order_graph

    enumerate_s = []
    enumerate_case_clans = orbits.enumerate_case_clans

    def timed_enumeration(case):
        start = time.process_time()
        clans = enumerate_case_clans(case)
        enumerate_s.append(time.process_time() - start)
        return clans

    orbits.enumerate_case_clans = timed_enumeration
    start = time.process_time()
    poset = weak_order_graph(case)
    weak_s = time.process_time() - start
    print(json.dumps({"orbits": len(poset.nodes), "weak_edges": len(poset.weak_edges),
                      "weak_s": round(weak_s, 3), "enumerate_s": round(sum(enumerate_s), 3),
                      "peak_rss_mib": _peak_rss_mib()}), flush=True)
    start = time.process_time()
    report = check_conjecture(full_closure_order(poset))
    print(json.dumps({"saturate_compare_s": round(time.process_time() - start, 3),
                      "witnesses": len(report.witnesses),
                      "peak_rss_mib": _peak_rss_mib()}), flush=True)


def time_classes(case) -> None:
    """Time a ``classes`` row's two stages, printing one JSON line after each."""
    from orbitcalc.formulas import all_classes, chern_expansion
    from orbitcalc.orbits import weak_order_graph

    poset = weak_order_graph(case)
    start = time.process_time()
    classes = all_classes(poset)
    propagate_s = time.process_time() - start
    print(json.dumps({"orbits": len(poset.nodes),
                      "z_terms": sum(len(f.terms) for f in classes.values()),
                      "propagate_s": round(propagate_s, 3),
                      "peak_rss_mib": _peak_rss_mib()}), flush=True)
    start = time.process_time()
    text = chern_expansion(case).text
    chars = sum(len(text(classes[c])) for c in poset.nodes)
    print(json.dumps({"render_s": round(time.process_time() - start, 3),
                      "text_chars": chars,
                      "peak_rss_mib": _peak_rss_mib()}), flush=True)


def run_row(tag: str, p: int, q: int, cap: float, command: str) -> dict:
    """One run of a row of ``command`` (a key of ``STAGES``), in a child
    process stopped after ``cap`` seconds."""
    row = {"case": tag, "p": p, "q": q, **dict.fromkeys(STAGES[command], "timeout")}
    argv = [sys.executable, __file__, "--row", command, tag, str(p), str(q)]
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=cap)
        if proc.returncode:
            raise SystemExit(proc.stderr.decode())
        out = proc.stdout
    except subprocess.TimeoutExpired as err:
        out = err.stdout or b""
    for line in out.decode().splitlines():
        row.update(json.loads(line))
    return row


def measure(tag: str, p: int, q: int, cap: float, command: str = "order") -> dict:
    """A row of ``command``: the median of each timing and peak over
    ``RUNS`` runs, or the first run that times out."""
    runs = []
    for _ in range(RUNS):
        runs.append(run_row(tag, p, q, cap, command))
        if "timeout" in runs[-1].values():
            return runs[-1]
    return {key: statistics.median(run[key] for run in runs) if isinstance(value, float)
            else value for key, value in runs[0].items()}


def measure_startup() -> dict:
    """The ``startup`` row: the median CPU time of each ``STARTUP`` command,
    the commands spawned in turn ``STARTUP_SPAWNS`` times."""
    times = {key: [] for key in STARTUP}
    for _ in range(STARTUP_SPAWNS):
        for key, args in STARTUP.items():
            proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            if status:
                raise SystemExit(f"{' '.join(args)} exited with status {status}")
            times[key].append(usage.ru_utime + usage.ru_stime)
    return {"row": "startup", "spawns": STARTUP_SPAWNS,
            **{key: round(statistics.median(t), 4) for key, t in times.items()},
            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default="BENCH_stage_times.json")
    parser.add_argument("--row", nargs=4, metavar=("COMMAND", "TAG", "P", "Q"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.row:
        from orbitcalc.clans import case_from_params

        command, tag, p, q = args.row
        timer = time_order if command == "order" else time_classes
        timer(case_from_params(tag, int(p), int(q)))
        return 0

    rows = [measure_startup()]
    print(json.dumps(rows[-1]), flush=True)
    for command, tag, p, q in ROWS:
        rows.append(measure(tag, p, q, CAP_S, command))
        print(json.dumps(rows[-1]), flush=True)
    data = {
        "clock": "time.process_time, CPU seconds of the row's own process; startup: "
                 "user plus system time of each spawn, from os.wait4",
        "cap_s": CAP_S,
        "runs": RUNS,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
    }
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
