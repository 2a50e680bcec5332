"""Alternated benchmark runs of a parent commit and the work tree, summarised
into ``BENCH_<label>.json`` at the repository root.

    python3 tools/bench_pairs.py --label NAME [--parent REF] [--pairs 10]
                                 [--workloads exact-sweep,...]

Run from anywhere inside the repository.  Both sides are fresh ``git
archive`` trees in a temporary directory: the parent ref, and the work tree
as it stands (tracked and untracked files that are not ignored), so no
``__pycache__`` comes along, and every run has ``PYTHONDONTWRITEBYTECODE=1``.
Pair i runs ``perfbench/run.py --seed <FIRST_SEED + i> --seconds SECONDS``
once on each side for each workload, the parent first in even pairs and the
change first in odd ones.  SECONDS is the run length of the alternated pairs
that performance changes have been measured with; it is half the benchmark's
``run_seconds``, so ten pairs of the three workloads take roughly 20 minutes.

For each side and workload the file holds every end-to-end metric's values,
median, quartiles, IQR and the pairs it won; ops and failed; for
``cli-reports`` each command's minimum speed-sample count over all passes;
the provenance of the runs (commit, ``src`` sha256, Python, numpy,
nproc); the tier-1 wall time and pass counts of one ``pytest -q`` in the
side's fresh tree with ``PYTHONPATH=src``, run once per side before the
pairs; and the sampler guard, also taken once per side before the pairs.
The guard runs ``cli.main`` of each of the four fast commands with its
``CLI_RUNS`` arguments under cProfile, in a fresh process, and stores the
calls of each function of ``src/nlsdual`` (line numbers dropped, so a
function's key survives edits above it) and the garbage collections per
generation during ``main``; the file says whether the two sides match.  The
benchmark's speed sampler takes its first sample about 7 ms into a
command, so a change that shortens these commands' ``main`` can leave a
pass with no sample (ROADMAP item 1(a)).  A run that ``perfbench/run.py``
aborts is listed with its error and run again with the same seed, at most
twice.  A workload with a run that aborts three times is not run further:
the file lists it under ``not_run`` with its aborted runs, the other
workloads finish their pairs, and the tool exits 1 after writing the file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("exact-sweep", "monodromy", "cli-reports")
SIDES = ("parent", "change")
PROVENANCE = ("src_sha256", "python", "numpy", "nproc")
SECONDS = 20
FIRST_SEED = 9001
FAST_COMMANDS = ("gen-v", "gen-dual", "charges", "verify-zc")

# run in a side's tree: the labelled argv of the benchmark's CLI runs
_CLI_RUNS = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
from workloads import CLI_RUNS
print(json.dumps({label: argv for label, argv, _ in CLI_RUNS}))
"""

# run in a side's tree with the argv as arguments: cProfile's entries and the
# collections per generation during cli.main, which only the standard library
# and nlsdual.cli precede
_PROFILE = """
import contextlib, cProfile, gc, io, json, sys
import nlsdual.cli
collections = [0, 0, 0]
def count(phase, info):
    if phase == "start":
        collections[info["generation"]] += 1
profile = cProfile.Profile()
gc.callbacks.append(count)
with contextlib.redirect_stdout(io.StringIO()):
    profile.runcall(nlsdual.cli.main, sys.argv[1:])
gc.callbacks.remove(count)
profile.create_stats()
print(json.dumps({"entries": [[*key, nc] for key, (cc, nc, *_) in profile.stats.items()],
                  "gc_collections": collections}))
"""


def _git(*args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def work_tree_id(tmp: Path) -> str:
    """The git tree of the work tree as it stands, built in a throwaway index."""
    env = dict(os.environ, GIT_INDEX_FILE=str(tmp / "index"))
    _git("read-tree", "HEAD", env=env)
    _git("add", "-A", env=env)
    return _git("write-tree", env=env)


def archive(treeish: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    data = subprocess.run(["git", "archive", treeish], cwd=ROOT, capture_output=True,
                          check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=data, check=True)


def run_one(tree: Path, workload: str, seed: int) -> Path:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return tree / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json"


def pytest_counts(output: str) -> dict:
    """The outcome counts of pytest's closing summary line, such as
    ``502 passed, 14 deselected in 22.60s``, as {"passed": 502, ...}."""
    lines = [ln for ln in output.splitlines() if re.search(r" in [\d.]+s\b", ln)]
    if not lines:
        raise ValueError("no pytest summary line in the output")
    return {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", lines[-1].split(" in ")[0])}


def run_tier1(tree: Path) -> dict:
    """One ``pytest -q`` of the tree's tier-1 suite: wall time, exit code and
    outcome counts."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    return {"wall_s": round(wall, 2), "exit": proc.returncode, **pytest_counts(proc.stdout)}


def nlsdual_calls(entries: list, package: Path) -> dict:
    """Calls per function of ``package`` from cProfile entries [file, line,
    function, calls], keyed "module.function"; functions of one name in one
    module are summed."""
    out: dict = {}
    for filename, _, function, calls in entries:
        path = Path(filename).resolve()
        if path.parent == package:
            key = f"{path.stem}.{function}"
            out[key] = out.get(key, 0) + calls
    return dict(sorted(out.items()))


def sampler_guard(tree: Path) -> dict:
    """For each fast command: its argv, its calls per nlsdual function and its
    garbage collections per generation during ``cli.main``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src", PYTHONHASHSEED="0")

    def child(*args):
        return json.loads(subprocess.run([sys.executable, "-c", *args], cwd=tree, env=env,
                                         capture_output=True, text=True, check=True).stdout)

    argv = child(_CLI_RUNS)
    out = {}
    for label in FAST_COMMANDS:
        prof = child(_PROFILE, *argv[label])
        out[label] = {"argv": argv[label],
                      "calls": nlsdual_calls(prof["entries"], tree.resolve() / "src" / "nlsdual"),
                      "gc_collections": prof["gc_collections"]}
    return out


def guards_match(parent: dict, change: dict) -> dict:
    """Whether the two sides' sampler guards agree, on calls and on collections."""
    return {key: all(parent[c][key] == change[c][key] for c in FAST_COMMANDS)
            for key in ("calls", "gc_collections")}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(parent: list, change: list, better: dict) -> dict:
    """The two sides' records of one workload from their result files, where
    ``parent[i]`` and ``change[i]`` are the runs of pair i; ``better`` maps
    each end-to-end metric to "lower" or "higher"."""
    runs = {"parent": [json.loads(Path(p).read_text()) for p in parent],
            "change": [json.loads(Path(p).read_text()) for p in change]}
    out = {}
    for side, other in zip(SIDES, reversed(SIDES)):
        mine, theirs = runs[side], runs[other]
        metrics = {}
        for name, sense in better.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            rivals = [r["result"]["metrics"][name]["value"] for r in theirs]
            q1, q3 = _quartiles(values)
            wins = sum(a < b if sense == "lower" else a > b for a, b in zip(values, rivals))
            metrics[name] = {"unit": mine[0]["result"]["metrics"][name]["unit"],
                             "median": statistics.median(values), "q1": q1, "q3": q3,
                             "iqr": q3 - q1, "pair_wins": wins, "values": values}
        provenance = []
        for r in mine:
            prov = {k: r["provenance"][k] for k in PROVENANCE}
            if prov not in provenance:
                provenance.append(prov)
        record = {"metrics": metrics,
                  "ops": [r["result"]["metrics"]["ops"]["value"] for r in mine],
                  "failed": sum(r["result"]["failed"] for r in mine),
                  "correct": all(r["result"]["correct"] for r in mine),
                  "provenance": provenance}
        commands = [p["commands"] for r in mine for p in r["passes"] if p.get("commands")]
        if commands:
            record["min_speed_samples"] = {label: min(c[label]["speed"]["n"] for c in commands)
                                           for label in commands[0]}
        out[side] = record
    return out


def run_pairs(trees: dict, workloads: list, pairs: int):
    """The result files of each workload and side, the runs that the harness
    aborted, and the workloads that stopped after a run aborted three times.

    An aborted run is kept in the record and run again with its seed, at
    most twice; the other workloads go on with their pairs.
    """
    files = {w: {side: [] for side in SIDES} for w in workloads}
    aborted, not_run = [], []
    for i in range(pairs):
        seed = FIRST_SEED + i
        for w in workloads:
            for side in SIDES if i % 2 == 0 else reversed(SIDES):
                if w in not_run:
                    break
                print(f"pair {i + 1}/{pairs} {w} {side}", file=sys.stderr)
                for _ in range(3):
                    try:
                        files[w][side].append(run_one(trees[side], w, seed))
                        break
                    except RuntimeError as exc:
                        aborted.append({"side": side, "workload": w, "seed": seed,
                                        "error": str(exc)})
                else:
                    not_run.append(w)
    return files, aborted, not_run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--parent", default="HEAD")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        commits = {"parent": _git("rev-parse", args.parent),
                   "change": f"{_git('rev-parse', 'HEAD')} + work tree {work_tree_id(tmp)}"}
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        archive(commits["parent"], trees["parent"])
        archive(commits["change"].rsplit(" ", 1)[1], trees["change"])
        tier1, guard = {}, {}
        for side in SIDES:
            print(f"tier-1 and sampler guard {side}", file=sys.stderr)
            tier1[side] = run_tier1(trees[side])
            guard[side] = sampler_guard(trees[side])
        files, aborted, not_run = run_pairs(trees, workloads, args.pairs)
        summaries = {w: summarise(files[w]["parent"], files[w]["change"], better)
                     for w in workloads if w not in not_run}
        record = {"label": args.label,
                  "protocol": {"pairs": args.pairs, "seconds": SECONDS,
                               "seeds": [FIRST_SEED, FIRST_SEED + args.pairs - 1],
                               "order": "parent first in even pairs, change first in odd",
                               "env": {"PYTHONDONTWRITEBYTECODE": "1"},
                               "aborted_runs": aborted},
                  "not_run": {w: [a for a in aborted if a["workload"] == w] for w in not_run},
                  "sampler_guard_match": guards_match(guard["parent"], guard["change"])}
        for side in SIDES:
            record[side] = {"commit": commits[side], "tier1": tier1[side],
                            "sampler_guard": guard[side],
                            "workloads": {w: s[side] for w, s in summaries.items()}}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    if not_run:
        print(f"not run: {', '.join(not_run)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
