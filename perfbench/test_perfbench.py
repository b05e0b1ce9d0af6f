"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

from orbitcalc import cli, clans, formulas, orbits, poly  # noqa: E402
from orbitcalc.clans import case_from_params  # noqa: E402
from orbitcalc.orbits import weak_order_graph  # noqa: E402
from orbitcalc.weyl import is_closed_clan  # noqa: E402

SEEDS = range(50)


def _reference() -> dict:
    return json.loads(run.REFERENCE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_deterministic_per_seed(workload):
    lists = [workloads.job_list(workload, seed) for seed in SEEDS]
    assert lists == [workloads.job_list(workload, seed) for seed in SEEDS]
    assert len({len(jobs) for jobs in lists}) == 1
    assert len({tuple(jobs) for jobs in lists}) > 1


def test_reference_covers_every_pickable_job():
    reference = _reference()
    pickable = {workloads.job_key(job) for job in workloads.all_jobs()}
    assert pickable == set(reference)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            assert {workloads.job_key(j) for j in workloads.job_list(workload, seed)} <= pickable
    assert all(entry["exit"] == 0 for entry in reference.values())


def test_chern_candidates_are_the_non_closed_non_dense_clans_by_rank():
    for options, ranks in workloads.CHERN_CANDIDATES.items():
        args = options.split()
        tag = args[args.index("--case") + 1]
        if "--n" in args:
            p = q = int(args[args.index("--n") + 1])
        else:
            p, q = int(args[args.index("--p") + 1]), int(args[args.index("--q") + 1])
        case = case_from_params(tag, p, q)
        poset = weak_order_graph(case)
        expected: dict[int, set[str]] = {}
        for c in poset.nodes:
            if c != poset.top and not is_closed_clan(case, c):
                expected.setdefault(poset.ranks[c], set()).add(c.to_text())
        assert [set(r) for r in ranks] == [expected[k] for k in sorted(expected)]


def test_corrupted_reference_entry_counts_as_wrong():
    key = workloads.job_key(workloads.SETUP_JOB)
    reference = _reference()
    good = run.Checker(reference)
    run.run_pass([workloads.SETUP_JOB], good, time.monotonic() + 60)
    assert (good.attempted, good.failed) == (1, 0)
    reference[key] = dict(reference[key], sha256="0" * 64)
    bad = run.Checker(reference)
    run.run_pass([workloads.SETUP_JOB], bad, time.monotonic() + 60)
    assert bad.failed / bad.attempted > 0


@pytest.mark.skipif(len(run.CPUS) < 2, reason="needs two CPUs to choose from")
def test_pin_to_quietest_cpu_picks_one_allowed_cpu():
    allowed = os.sched_getaffinity(0)
    try:
        cpu = run.pin_to_quietest_cpu()
        pinned = os.sched_getaffinity(0)
    finally:
        os.sched_setaffinity(0, allowed)
    assert pinned == {cpu} and cpu in run.CPUS


def test_speed_probe_scales_by_mean_speed_around_the_interval():
    probe = run.SpeedProbe()
    ref = probe.REFERENCE_S
    probe.samples = [(1.0, ref), (1.5, 2 * ref), (3.0, 4 * ref)]
    assert probe.scale(0.99, 1.49) == pytest.approx(0.75)
    assert probe.scale(2.9, 3.1) == pytest.approx(0.25)
    assert probe.scale(10.0, 11.0) == 1.0


def test_speed_probe_samples_until_stopped():
    with run.SpeedProbe() as probe:
        time.sleep(10 * probe.PERIOD_S)
    count = len(probe.samples)
    assert count > 0 and not probe._thread.is_alive()
    time.sleep(3 * probe.PERIOD_S)
    assert len(probe.samples) == count


def _all_bindings() -> dict:
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "orbitcalc" or name.startswith("orbitcalc."):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        snapshot[(name, attr, cattr)] = cvalue
    return snapshot


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = _all_bindings()
    original_leq = clans.leq
    original_mul = vars(poly.Polynomial)["__mul__"]
    t = tracer.Tracer()
    t.install()
    try:
        assert clans.leq is not original_leq
        assert clans.leq is orbits.leq is formulas.leq is cli.leq
        assert vars(poly.Polynomial)["__mul__"] is not original_mul
        assert vars(poly.Polynomial)["__rmul__"] is vars(poly.Polynomial)["__mul__"]
    finally:
        t.uninstall()
    after = _all_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_cli_output_matches_untraced():
    argv = ["conjecture", "--case", "d-oxo-odd", "--p", "1", "--q", "2"]
    outputs = []
    for traced in (False, True):
        t = tracer.Tracer()
        if traced:
            t.install()
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                assert cli.main(argv) == 0
        finally:
            t.uninstall()
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    assert t.calls["orbits.compare"] == 1 and t.calls["clans.leq"] > 0
    assert [s[0] for s in t.spans if s[1] == -1] == ["cli"]


# Small jobs that together reach every traced layer.
EXACT_JOBS = (
    workloads.parse_job("verify --case d-so-gl --n 3"),
    workloads.parse_job("conjecture --case d-oxo-odd --p 1 --q 2"),
    workloads.parse_job("chern --case a --p 2 --q 2 --clan=1+-1"),
)


def test_counts_are_exact_across_traced_runs():
    values = []
    for _ in range(2):
        deadline = time.monotonic() + 120
        results = [run.run_job(job, deadline, traced=True) for job in EXACT_JOBS]
        assert all(r.exit_code == 0 for r in results)
        merged = tracer.merge_reports(r.trace for r in results)
        metrics = tracer.layer_metrics(merged, 0.0)
        values.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert values[0] == values[1]
    assert all(v > 0 for v in values[0].values())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"cpu_s", "setup_s", "peak_rss_mib"}
