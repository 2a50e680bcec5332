"""The summariser of tools/bench_pairs.py on canned benchmark result files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "ops": "higher"}


def _result(tmp_path, name, wall, ops=161, failed=0, samples=None):
    passes = [{"commands": {"gen-v": {"speed": {"n": n}}, "charges": {"speed": {"n": n + 1}}}}
              for n in samples] if samples else [{}]
    doc = {"provenance": {"src_sha256": "ab", "python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
                          "commit": None, "seed": 1},
           "result": {"correct": failed == 0, "failed": failed,
                      "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                  "ops": {"value": ops, "unit": "count"}}},
           "passes": passes}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def test_medians_iqrs_and_pair_wins(tmp_path):
    parent = [_result(tmp_path, f"p{i}", w) for i, w in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
    change = [_result(tmp_path, f"c{i}", w, failed=int(i == 4))
              for i, w in enumerate([0.5, 2.5, 2.0, 3.0, 5.0])]
    rec = bench_pairs.summarise(parent, change, BETTER)
    p, c = rec["parent"]["metrics"]["wall_s"], rec["change"]["metrics"]["wall_s"]
    assert (p["median"], p["q1"], p["q3"], p["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert (c["median"], c["q1"], c["q3"], c["iqr"]) == (2.5, 2.0, 3.0, 1.0)
    # pair 1 to the parent, pairs 0, 2 and 3 to the change, pair 4 a tie
    assert (p["pair_wins"], c["pair_wins"]) == (1, 3)
    assert rec["parent"]["metrics"]["ops"]["pair_wins"] == 0
    assert (rec["parent"]["failed"], rec["change"]["failed"]) == (0, 1)
    assert rec["change"]["ops"] == [161] * 5 and not rec["change"]["correct"]
    assert rec["parent"]["provenance"] == [{"src_sha256": "ab", "python": "3.11.7",
                                            "numpy": "2.4.6", "nproc": 2}]
    assert "min_speed_samples" not in rec["parent"]


def test_minimum_speed_samples_per_command(tmp_path):
    parent = [_result(tmp_path, "p0", 1.0, samples=[3, 2]), _result(tmp_path, "p1", 1.0, samples=[4])]
    change = [_result(tmp_path, "c0", 1.0, samples=[1, 5]), _result(tmp_path, "c1", 1.0, samples=[2])]
    rec = bench_pairs.summarise(parent, change, BETTER)
    assert rec["parent"]["min_speed_samples"] == {"gen-v": 2, "charges": 3}
    assert rec["change"]["min_speed_samples"] == {"gen-v": 1, "charges": 2}


def test_pytest_counts_from_the_closing_summary_line():
    ok = ("....................................................... [ 98%]\n"
          "...                                                     [100%]\n"
          "502 passed, 14 deselected in 22.60s\n")
    assert bench_pairs.pytest_counts(ok) == {"passed": 502, "deselected": 14}
    bad = ("FAILED tests/test_brackets.py::test_level2_time_pipeline_printed - Attri...\n"
           "2 failed, 500 passed, 14 deselected, 3 warnings in 75.12s (0:01:15)\n")
    assert bench_pairs.pytest_counts(bad) == {"failed": 2, "passed": 500, "deselected": 14,
                                              "warnings": 3}
    with pytest.raises(ValueError, match="no pytest summary"):
        bench_pairs.pytest_counts("ImportError while loading conftest\n")


def test_nlsdual_calls_per_function_without_line_numbers(tmp_path):
    package = tmp_path / "src" / "nlsdual"
    entries = [
        [str(package / "ringcore.py"), 10, "__init__", 5],
        [str(package / "ringcore.py"), 90, "__init__", 2],      # another class's, summed
        [str(package / "hierarchy.py"), 95, "solve_W", 1],
        [str(tmp_path / "src" / "other" / "ringcore.py"), 10, "__init__", 7],
        [str(tmp_path / "json" / "encoder.py"), 200, "encode", 1],
        ["~", 0, "<built-in method builtins.len>", 40],
    ]
    assert bench_pairs.nlsdual_calls(entries, package) == {"hierarchy.solve_W": 1,
                                                           "ringcore.__init__": 7}


def _guard(calls, collections):
    return {label: {"argv": [label], "calls": dict(calls), "gc_collections": list(collections)}
            for label in bench_pairs.FAST_COMMANDS}


def test_guards_match_on_calls_and_collections_separately():
    parent = _guard({"ringcore.mul": 3}, [2, 0, 0])
    assert bench_pairs.guards_match(parent, _guard({"ringcore.mul": 3}, [2, 0, 0])) == {
        "calls": True, "gc_collections": True}
    fewer = _guard({"ringcore.mul": 3}, [2, 0, 0])
    fewer["verify-zc"]["calls"]["ringcore.mul"] = 2
    assert bench_pairs.guards_match(parent, fewer) == {"calls": False, "gc_collections": True}
    assert bench_pairs.guards_match(parent, _guard({"ringcore.mul": 3}, [1, 0, 0])) == {
        "calls": True, "gc_collections": False}
