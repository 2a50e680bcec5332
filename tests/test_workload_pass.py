"""The exit rule of tools/workload_pass.py on stand-in workloads."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "workload_pass.py"
_spec = importlib.util.spec_from_file_location("workload_pass", TOOL)
workload_pass = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workload_pass)


def _workload(outcomes):
    class Stand:
        def setup(self, seed):
            return seed

        def run(self, inputs, checks):
            for i, ok in enumerate(outcomes):
                checks.check(f"check {i}", ok)
    return Stand


@pytest.mark.parametrize("outcomes,code,line", [
    ([True, True], 0, "2 checks, 0 failed: []"),
    ([True, False], 1, "2 checks, 1 failed: ['check 1']"),
    ([], 1, "0 checks, 0 failed: []"),
], ids=["pass", "one-failed", "no-checks"])
def test_exit_status_and_printed_line(monkeypatch, capsys, outcomes, code, line):
    monkeypatch.setitem(workload_pass.workloads.WORKLOADS, "exact-sweep", _workload(outcomes))
    assert workload_pass.main(["exact-sweep"]) == code
    assert capsys.readouterr().out.strip() == line
