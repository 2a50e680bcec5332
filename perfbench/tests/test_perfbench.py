"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/tests -q

Run from the root of the checkout.  The smoke tests start the real
benchmark once per workload and mode, so the file takes a minute or two.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from nlsdual import brackets, laxalg, ringcore  # noqa: E402


def _corrupt(digests: dict, key: str) -> dict:
    bad = dict(digests)
    bad[key] = "0" * 64
    return bad


SMALL_SWEEP = workloads.ExactSweep(top_level=3, triples=1, level=3, ladder=2, dual_bases=(2,),
                                   dual_top=1)


@pytest.mark.parametrize("key", ["T3", "V2", "dual2.1"])
def test_corrupted_digest_is_a_failed_op(key):
    wl = SMALL_SWEEP
    good = workloads.Checks(workloads.load_digests())
    wl.run(wl.setup(1), good)
    assert good.attempted > 0 and good.failures == []

    bad = workloads.Checks(_corrupt(workloads.load_digests(), key))
    wl.run(wl.setup(1), bad)
    assert bad.attempted == good.attempted
    assert bad.failures and set(bad.failures) == {f"digest {key}"}


SMALL_MONODROMY = workloads.Monodromy(snapshots=2, lambdas=2, stations=2)


def test_perturbed_closed_form_is_a_failed_op(monkeypatch):
    good = workloads.Checks()
    SMALL_MONODROMY.run(SMALL_MONODROMY.setup(3), good)
    assert good.failures == []
    closed_form_errors = [v for k, v in good.values.items() if "closed form" in k]
    assert len(closed_form_errors) == 4 and max(closed_form_errors) < 1e-6

    exact = workloads.closed_form_trace
    monkeypatch.setattr(workloads, "closed_form_trace", lambda *a: exact(*a) * (1 + 1e-5))
    bad = workloads.Checks()
    SMALL_MONODROMY.run(SMALL_MONODROMY.setup(3), bad)
    assert bad.attempted == good.attempted
    assert len(bad.failures) == 4 and all("closed form" in f for f in bad.failures)


def test_self_time_on_synthetic_span_tree():
    rec = tracer.Recorder()
    root = rec.add_span("a", 0.0, 10.0)
    rec.add_span("b", 1.0, 4.0, root)
    mid = rec.add_span("c", 5.0, 9.0, root)
    rec.add_span("b", 6.0, 8.0, mid)
    rec.add_span("a", 12.0, 13.0)
    name, parent, start, end = rec.arrays()
    assert tracer.self_times(parent, start, end).tolist() == [3.0, 3.0, 2.0, 2.0, 1.0]
    s = rec.summary()
    assert s["calls"] == {"a": 2, "b": 2, "c": 1}
    assert s["self_s"] == {"a": 4.0, "b": 5.0, "c": 2.0}
    assert s["incl_s"] == {"a": 11.0, "b": 5.0, "c": 4.0}
    assert s["root_s"] == 11.0
    metrics = tracer.layer_metrics(tracer.merge([s]), {}, traced_wall=12.5, untraced_wall=10.0)
    assert metrics["bench.unattributed_s"]["value"] == 1.5
    assert metrics["bench.trace_overhead_s"]["value"] == 2.5


def test_speed_sampler_scales_wall_time_to_reference_speed():
    sampler = hostspeed.SpeedSampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        pass
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    sampler._tick()     # a tick still pending when stop() ran
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    live = sampler.summary()
    assert live["n"] >= 10 and live["sampling_s"] < 0.2 and live["mean_speed"] > 0

    # One sample at reference speed and one at half speed: the host ran at
    # 3/4 of reference speed on average, so 4 s of wall time is 3 s of work.
    sampler.samples = [7.0, hostspeed.LOOP_REF_S, 2 * hostspeed.LOOP_REF_S]
    speed = sampler.summary(first=1)
    assert speed["mean_speed"] == 0.75
    assert hostspeed.at_reference_speed(4.0, speed) == 3.0


def test_wrappers_cover_aliases_and_are_removed():
    before_rhs = laxalg.rmatrix_bracket_rhs
    before_mul = ringcore.DiffPoly.__dict__["__mul__"]
    assert brackets.rmatrix_bracket_rhs is before_rhs        # a from-import alias
    rec = tracer.Recorder()
    tracer.install(rec)
    try:
        assert brackets.rmatrix_bracket_rhs is laxalg.rmatrix_bracket_rhs is not before_rhs
        x = ringcore.DiffPoly.var(ringcore.PSI)
        x * x
        2 * x
        summary = rec.summary()
    finally:
        rec.uninstall()
    assert summary["calls"]["ringcore.mul"] == 2
    assert laxalg.rmatrix_bracket_rhs is before_rhs and brackets.rmatrix_bracket_rhs is before_rhs
    assert ringcore.DiffPoly.__dict__["__mul__"] is before_mul
    assert ringcore.DiffPoly.__dict__["__rmul__"] is before_mul


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [c for c, _, _ in workloads.CLI_RUNS] == list(tracer.CLI_COMMANDS)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    prov = json.loads(lines[-2])["provenance"]
    assert prov["seed"] == 5 and prov["pythonhashseed"] == "5" and prov["numpy"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_printing_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "exact-sweep", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
