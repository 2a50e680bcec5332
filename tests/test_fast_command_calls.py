"""The four fast commands do the work they did: a guard for ROADMAP item 1(a).

The benchmark's speed sampler takes its first sample about 7 ms into a CLI
command, and a command whose ``main`` ends before it aborts the whole
``cli-reports`` run (ROADMAP item 1(a)).  Until that is mended, ``gen-v``,
``gen-dual``, ``charges`` and ``verify-zc`` must not get shorter, so this
test pins the calls that their ``cli.main`` makes, with the benchmark's
``CLI_RUNS`` arguments, to every named function of ``src/nlsdual``.  The
counts in ``fast_command_calls.json`` come from cProfile and
``tools/bench_pairs.py``'s ``nlsdual_calls``, the sampler guard of its
``BENCH_*.json`` files.  Comprehension and lambda frames are left out:
Python 3.12 inlines comprehensions (PEP 709), so those frames differ between
Python versions.  No named count moved between PYTHONHASHSEED 0 and nine
other seeds (1 to 5 and four random ones), so CI's random-seed run holds
the same counts.  This test and its file go when item 1(a) lands.
"""

import contextlib
import cProfile
import importlib.util
import io
import json
from pathlib import Path

import pytest

import nlsdual.cli
from helpers import perfbench_workloads

ROOT = Path(__file__).resolve().parents[1]
RECORDED = json.loads((ROOT / "tests" / "fast_command_calls.json").read_text())

_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _named_calls(argv) -> dict:
    """Calls per named nlsdual function during ``cli.main(argv)``."""
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        code = profile.runcall(nlsdual.cli.main, argv)
    assert code == 0
    profile.create_stats()
    entries = [[*key, calls] for key, (_, calls, *_) in profile.stats.items()]
    counts = bench_pairs.nlsdual_calls(entries, ROOT / "src" / "nlsdual")
    return {key: n for key, n in counts.items() if not key.split(".", 1)[1].startswith("<")}


def test_the_recorded_commands_are_the_benchmarks():
    runs = {label: argv for label, argv, _ in perfbench_workloads().CLI_RUNS}
    assert sorted(RECORDED) == sorted(bench_pairs.FAST_COMMANDS)
    assert {label: runs[label] for label in RECORDED} == {
        label: rec["argv"] for label, rec in RECORDED.items()}


@pytest.mark.parametrize("label", bench_pairs.FAST_COMMANDS)
def test_fast_command_makes_the_recorded_calls(label):
    want = RECORDED[label]["calls"]
    got = _named_calls(RECORDED[label]["argv"])
    moved = {key: (want.get(key), got.get(key)) for key in sorted(set(want) | set(got))
             if want.get(key) != got.get(key)}
    assert not moved, (
        f"`{label}` changed the calls its main makes (recorded, now): {moved}.  The benchmark's "
        "speed sampler aborts cli-reports when a fast command gets shorter (ROADMAP item 1(a)); "
        "keep these commands' work as it is until that item lands")
