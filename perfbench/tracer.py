"""Per-layer tracing of one orbitcalc CLI job, from outside the program.

``Tracer.install`` replaces each traced function of ``orbitcalc`` at every
binding of it: the defining module, every module that imported it by name
and every class attribute that holds it (``Polynomial.__rmul__`` is
``__mul__``).  ``Tracer.uninstall`` puts the originals back.

Three kinds of wrapper:

* stage functions keep a span (name, parent span, start, end) per call;
* kernels only add to an aggregated call count and self time, so memory
  stays flat however many calls there are;
* counters only count calls or the size of their result, and leave their
  time to the caller.

Self time is a call's duration minus the durations of the timed calls made
inside it.  Run as a script, this module is the traced stand-in for
``python -m orbitcalc``::

    python3 perfbench/tracer.py FD ARGS...

It runs ``orbitcalc.cli.main(ARGS)`` with the wrappers installed and, at
exit, writes a JSON report of the job to the inherited file descriptor FD.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

SPAN, KERNEL, COUNTER = "span", "kernel", "counter"


def _count_enumerate(result, counts):
    counts["clans.enumerate.kept"] += len(result)


def _count_candidates(result, counts):
    counts["clans.enumerate.candidates"] += len(result)


def _count_weak(result, counts):
    counts["orbits.weak.edges"] += len(result.weak_edges)
    counts["orbits.weak.deg2_edges"] += sum(1 for *_, deg in result.weak_edges if deg == 2)


def _count_saturate(result, counts):
    counts["orbits.saturate.order_pairs"] += sum(map(len, result.full_order.values()))


def _count_compare(result, counts):
    counts["orbits.compare.witnesses"] += len(result.witnesses)


def _count_propagate(result, counts):
    sizes = [len(f.terms) for f in result.values()]
    counts["formulas.propagate.terms_total"] += sum(sizes)
    counts["formulas.propagate.terms_max"] = max(
        counts["formulas.propagate.terms_max"], max(sizes, default=0))


def _count_localize(result, counts):
    counts["formulas.localize.closed_points"] += result.closed_points_checked
    counts["formulas.localize.support_pairs"] += result.support_pairs_checked


# (layer name, module, attribute path, kind, result counter)
TARGETS = (
    ("cli", "orbitcalc.cli", "main", SPAN, None),
    ("clans.enumerate", "orbitcalc.clans", "enumerate_case_clans", SPAN, _count_enumerate),
    ("clans.enumerate_clans", "orbitcalc.clans", "enumerate_clans", COUNTER, _count_candidates),
    ("clans.rank_table", "orbitcalc.clans", "rank_table", KERNEL, None),
    ("clans.leq", "orbitcalc.clans", "leq", KERNEL, None),
    ("orbits.weak", "orbitcalc.orbits", "weak_order_graph", SPAN, _count_weak),
    ("orbits.weak_move", "orbitcalc.orbits", "weak_move", COUNTER, None),
    ("orbits.saturate", "orbitcalc.orbits", "full_closure_order", SPAN, _count_saturate),
    ("orbits.compare", "orbitcalc.orbits", "check_conjecture", SPAN, _count_compare),
    ("formulas.propagate", "orbitcalc.formulas", "all_classes", SPAN, _count_propagate),
    ("formulas.localize", "orbitcalc.formulas", "verify_localization", SPAN, _count_localize),
    ("formulas.restrict", "orbitcalc.formulas", "restrict_at", KERNEL, None),
    ("weyl.fixed_points", "orbitcalc.weyl", "fixed_points_by_clan", KERNEL, None),
    ("weyl.fixed_points", "orbitcalc.weyl", "closed_orbit_fixed_points", KERNEL, None),
    ("poly.substitute", "orbitcalc.poly", "Polynomial.substitute", KERNEL, None),
    ("poly.mul", "orbitcalc.poly", "Polynomial.__mul__", KERNEL, None),
    ("poly.dd", "orbitcalc.poly", "divided_difference", KERNEL, None),
    ("poly.chern_substitute", "orbitcalc.poly", "chern_substitute", KERNEL, None),
)

# Per-layer metrics: (name, unit).  Self times are in seconds; the rest are
# exact counts of work, identical from run to run.
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("clans.enumerate_s", "s"),
    ("clans.enumerate.calls", "count"),
    ("clans.enumerate.kept_ratio", "ratio"),
    ("clans.rank_table_s", "s"),
    ("clans.rank_table.calls", "count"),
    ("clans.leq_s", "s"),
    ("clans.leq.calls", "count"),
    ("orbits.weak_s", "s"),
    ("orbits.weak.edges", "count"),
    ("orbits.weak.deg2_edges", "count"),
    ("orbits.weak_move.calls", "count"),
    ("orbits.saturate_s", "s"),
    ("orbits.saturate.order_pairs", "count"),
    ("orbits.compare_s", "s"),
    ("orbits.compare.witnesses", "count"),
    ("formulas.propagate_s", "s"),
    ("formulas.propagate.terms_total", "count"),
    ("formulas.propagate.terms_max", "count"),
    ("formulas.localize_s", "s"),
    ("formulas.localize.closed_points", "count"),
    ("formulas.localize.support_pairs", "count"),
    ("formulas.restrict_s", "s"),
    ("formulas.restrict.calls", "count"),
    ("weyl.fixed_points_s", "s"),
    ("weyl.fixed_points.calls", "count"),
    ("poly.substitute_s", "s"),
    ("poly.substitute.calls", "count"),
    ("poly.mul_s", "s"),
    ("poly.mul.calls", "count"),
    ("poly.dd_s", "s"),
    ("poly.dd.calls", "count"),
    ("poly.chern_substitute_s", "s"),
    ("poly.chern_substitute.calls", "count"),
    ("trace.overhead_s", "s"),
)


def _resolve(module: str, attr: str):
    """The original function object a target names."""
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = vars(owner)[part] if isinstance(owner, type) else getattr(owner, part)
    return owner


def _bindings(target):
    """Every (owner, attribute) of a loaded orbitcalc module or of a class
    defined there whose value is ``target``."""
    for name, module in list(sys.modules.items()):
        if name != "orbitcalc" and not name.startswith("orbitcalc."):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                yield module, attr
            elif isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is target:
                        yield value, cattr


class Tracer:
    """Aggregated per-layer counters and stage spans of one process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, int, float, float]] = []
        # Each timed call in progress has a frame [time in timed children].
        self._frames: list[list[float]] = [[0.0]]
        self._span_ids: list[int] = [-1]
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, kind: str, count):
        calls, self_s, counts = self.calls, self.self_s, self.counts
        frames, spans, span_ids = self._frames, self.spans, self._span_ids

        if kind == COUNTER:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if count is not None:
                    count(result, counts)
                return result
            return wrapper

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if kind == SPAN:
                span_ids.append(len(spans))
                spans.append((name, span_ids[-2], 0.0, 0.0))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                frames[-1][0] += end - start
                calls[name] += 1
                self_s[name] += end - start - frame[0]
                if kind == SPAN:
                    span = span_ids.pop()
                    spans[span] = (name, spans[span][1], start, end)
            if count is not None:
                count(result, counts)
            return result

        return wrapper

    def install(self) -> None:
        if self._replaced:
            raise RuntimeError("tracer already installed")
        for name, module, attr, kind, count in TARGETS:
            original = _resolve(module, attr)
            wrapper = self._wrap(name, original, kind, count)
            for owner, binding in list(_bindings(original)):
                self._replaced.append((owner, binding, original))
                setattr(owner, binding, wrapper)

    def uninstall(self) -> None:
        for owner, binding, original in reversed(self._replaced):
            setattr(owner, binding, original)
        self._replaced.clear()

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": self.spans,
        }


def merge_reports(reports) -> dict:
    """Sum the job reports of one pass; ``_max`` counts take the maximum."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for rep in reports:
        for k, v in rep["calls"].items():
            calls[k] += v
        for k, v in rep["self_s"].items():
            self_s[k] += v
        for k, v in rep["counts"].items():
            counts[k] = max(counts[k], v) if k.endswith("_max") else counts[k] + v
    return {"calls": calls, "self_s": self_s, "counts": counts}


def layer_metrics(merged: dict, overhead_s: float) -> dict[str, float]:
    """The per-layer metric values of one pass; a layer not called reads 0."""
    calls, self_s, counts = merged["calls"], merged["self_s"], merged["counts"]
    candidates = counts.get("clans.enumerate.candidates", 0)
    values: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        if metric == "trace.overhead_s":
            values[metric] = overhead_s
        elif metric == "cli.self_s":
            values[metric] = self_s.get("cli", 0.0)
        elif metric == "clans.enumerate.kept_ratio":
            kept = counts.get("clans.enumerate.kept", 0)
            values[metric] = kept / candidates if candidates else 0.0
        elif metric.endswith(".calls"):
            values[metric] = calls.get(metric[: -len(".calls")], 0)
        elif metric.endswith("_s"):
            values[metric] = self_s.get(metric[: -len("_s")], 0.0)
        else:
            values[metric] = counts.get(metric, 0)
    return values


def _main(argv: list[str]) -> int:
    fd = int(argv[0])
    from orbitcalc import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv[1:])
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as out:
            json.dump(tracer.report(), out)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
