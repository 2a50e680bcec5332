"""nlsdual benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nlsdual is imported from ./src.

With ``--trace 0`` the run repeats cold passes of the workload, each in a
fresh interpreter, for about ``--seconds`` seconds, with set-up-only
processes in between, and reports:

    setup_s      fresh process to first timed call (interpreter start, import,
                 fixed inputs); for cli-reports, interpreter start plus
                 ``import nlsdual.cli``.  Median of all set-up samples.
    wall_s       time of one pass, until every verdict is in; median over
                 passes.  For cli-reports, the sum of the commands' times.
    peak_rss_mb  peak resident memory of the pass process (largest CLI child),
                 median over passes
    ops          checks attempted in one pass, median over passes

Times are given at reference speed (hostspeed.py).  Other tenants of a
shared host slow whole stretches of a run by up to 2x, in CPU time as much
as in wall time, which no statistic over the samples of one run removes.
So every untraced pass and CLI command samples the host's speed while it
computes and is scaled by it, and start-up (set-up samples, and each CLI
command up to the end of its import) is scaled by the start-up reference
processes run next to it.  The raw times are kept in the details file.

With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of tracer.PER_LAYER.  The last line of stdout is the
result object; the line before it is the run's provenance.  Details of every
pass, the measured check values and the spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact-sweep", "monodromy", "cli-reports")
HARD_LIMIT_S = 170.0       # every run must end within 180 s
PROBES_PER_PASS = 3        # set-up-only processes after each pass
MIN_SETUP_SAMPLES = 12
OUT_DIR = ".perfbench_out"


class Run:
    """Spawns the processes of one benchmark run and keeps it inside its deadline."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.t0 = time.monotonic()
        self.out = root / OUT_DIR
        self.out.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED=str(seed % 2**32))

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.t0)

    def spawn(self, argv: list[str]) -> dict:
        """Run one process to completion; returns exit code, stdout, wall time
        and the child's peak RSS as reported by wait4."""
        timeout = self.remaining()
        if timeout <= 0:
            raise TimeoutError("benchmark run exceeded its time limit")
        with open(self.out / "child-stderr.txt", "w+b") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        if proc.returncode < 0:
            raise RuntimeError(f"{argv[1:3]} ended by signal {-proc.returncode}; "
                               "the run's time limit sends SIGKILL")
        return {"code": proc.returncode, "stdout": stdout, "stderr": stderr, "wall": wall,
                "rss_mb": usage.ru_maxrss / 1024.0}

    def start_reference(self) -> float:
        """Wall time of one hostspeed start-up reference process."""
        res = self.spawn([sys.executable, *hostspeed.START_ARGV])
        if res["code"] != 0:
            raise RuntimeError(f"start-up reference exited {res['code']}:\n{res['stderr'][-3000:]}")
        return res["wall"]

    def child(self, mode: str, workload: str, trace_dir: Path | None = None) -> dict:
        argv = [sys.executable, str(HERE / "child.py"), mode, "--workload", workload,
                "--seed", str(self.seed), "--spawned-at", repr(time.monotonic())]
        if trace_dir is not None:
            argv += ["--trace", str(trace_dir)]
        res = self.spawn(argv)
        if res["code"] != 0:
            raise RuntimeError(f"{mode} of {workload} exited {res['code']}:\n{res['stderr'][-3000:]}")
        out = json.loads(res["stdout"].decode().strip().splitlines()[-1])
        out["peak_rss_mb"] = res["rss_mb"]
        return out


# -- the passes -----------------------------------------------------------------------


def cli_pass(run: Run, trace_dir: Path | None = None) -> dict:
    """Every CLI command once, each in its own process, one after another,
    through child.py, which calls ``nlsdual.cli.main`` as ``python -m
    nlsdual.cli`` does.  Untraced, each command reports when its import
    ended and the speed samples of its ``main``, for :func:`cli_wall_s`."""
    import workloads
    checks = workloads.Checks(workloads.load_digests())
    walls, commands, rss, report_bytes, work = {}, {}, [], 0, 0.0
    for label, args, keys in workloads.CLI_RUNS:
        argv = [sys.executable, str(HERE / "child.py"), "cli", "--label", label,
                "--spawned-at", repr(time.monotonic())]
        if trace_dir is not None:
            argv += ["--trace", str(trace_dir)]
        res = run.spawn(argv + ["--", *args])
        walls[label] = res["wall"]
        if trace_dir is None:
            cmd = json.loads(res["stderr"].strip().splitlines()[-1])
            cmd["main_s"] = res["wall"] - cmd["started_s"] - cmd["speed"]["sampling_s"]
            commands[label] = cmd
            work += res["wall"] - cmd["speed"]["sampling_s"]
        else:
            if not (trace_dir / f"summary-cli-{label}.json").exists():
                raise RuntimeError(f"traced {label} exited {res['code']}:\n{res['stderr'][-3000:]}")
            work += res["wall"]
        workloads.check_cli_report(label, keys, res["code"], res["stdout"], checks)
        rss.append(res["rss_mb"])
        report_bytes += len(res["stdout"])
    return {"work_s": work, "peak_rss_mb": max(rss),
            "ops": checks.attempted, "failed": len(checks.failures),
            "failures": checks.failures, "values": checks.values, "digests": checks.digests,
            "process_wall_s": walls, "commands": commands, "report_bytes": report_bytes}


def cli_wall_s(cli: dict, start_speed: float) -> float:
    """A CLI pass at reference speed: each command's start-up (spawn to the end
    of its import) scaled by the start-up reference, and its ``main`` (to
    process exit) by the speed it sampled."""
    return sum(c["started_s"] * start_speed + hostspeed.at_reference_speed(c["main_s"], c["speed"])
               for c in cli["commands"].values())


def run_passes(run: Run, workload: str, seconds: float) -> tuple[list, list]:
    """Cold passes until the next one would overrun ``seconds``; after each
    pass PROBES_PER_PASS set-up probes, and more at the end to reach
    MIN_SETUP_SAMPLES.  Each set-up probe is followed by a start-up reference
    process; the host's speed changes within a run, so a set-up sample is
    scaled by its own reference, and a pass by the references after it."""
    is_cli = workload == "cli-reports"
    passes, setups = [], []

    def probe():
        setup = run.child("setup", workload)
        setup["start_reference_s"] = run.start_reference()
        setups.append(setup)
        return setup["start_reference_s"]

    while True:
        t = time.monotonic()
        result = cli_pass(run) if is_cli else run.child("pass", workload)
        result["start_reference_s"] = [probe() for _ in range(PROBES_PER_PASS)]
        result["cost"] = time.monotonic() - t
        passes.append(result)
        cost = statistics.median(p["cost"] for p in passes)
        if time.monotonic() - run.t0 + cost > min(seconds, HARD_LIMIT_S - 30):
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        probe()
    return passes, setups


def end_to_end(passes: list, setups: list, workload: str) -> dict:
    setup = statistics.median(s["setup_s"] * hostspeed.start_speed([s["start_reference_s"]])
                              for s in setups)
    if workload == "cli-reports":
        walls = [cli_wall_s(p, hostspeed.start_speed(p["start_reference_s"])) for p in passes]
    else:
        walls = [p["wall_s"] for p in passes]
    return {"setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
            "ops": {"value": statistics.median_low(p["ops"] for p in passes), "unit": "count"}}


def traced(run: Run, workload: str) -> tuple[list, dict]:
    import tracer
    import workloads
    trace_dir = run.out / f"trace-{workload}-seed{run.seed}"
    trace_dir.mkdir(exist_ok=True)
    for old in trace_dir.iterdir():
        old.unlink()
    if workload == "cli-reports":
        plain = cli_pass(run)
        tr = cli_pass(run, trace_dir)
        labels = [label for label, _, _ in workloads.CLI_RUNS]
        summaries = [json.loads((trace_dir / f"summary-cli-{label}.json").read_text())
                     for label in labels]
        # Each CLI child's only root span is its ``main`` call.
        cli = {"import_s": statistics.median(s["import_s"] for s in summaries),
               "wall_s": {label: s["root_s"] for label, s in zip(labels, summaries)},
               "report_bytes": tr["report_bytes"]}
    else:
        plain = run.child("pass", workload)
        tr = run.child("pass", workload, trace_dir)
        summaries = [tr.pop("summary")]
        cli = {}
    # Tracing must not change what the program computes.
    tr["ops"] += 1
    if tr["digests"] != plain["digests"]:
        tr["failed"] += 1
        tr["failures"].append("traced digests differ from untraced")
    merged = tracer.merge(summaries)
    metrics = tracer.layer_metrics(merged, cli, tr["work_s"], plain["work_s"])
    tr["spans"] = merged["spans"]
    return [plain, tr], metrics


# -- provenance and output -------------------------------------------------------------


def provenance(run: Run, args, numpy_version: str) -> dict:
    root, commit = run.root, None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": _tree_digest(root / "src"),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "workload": args.workload,
            "seed": args.seed, "pythonhashseed": run.env["PYTHONHASHSEED"],
            "seconds": args.seconds, "trace": args.trace}


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "nlsdual" / "__init__.py").is_file():
        print("perfbench: run from the root of an nlsdual checkout (no src/nlsdual here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    run = Run(root, args.seed)
    extra = {}
    try:
        if args.trace:
            passes, metrics = traced(run, args.workload)
        else:
            passes, setups = run_passes(run, args.workload, args.seconds)
            metrics = end_to_end(passes, setups, args.workload)
            extra = {"setups": setups}
    except (RuntimeError, TimeoutError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    import numpy
    prov = provenance(run, args, numpy.__version__)
    failures = sorted({f for p in passes for f in p["failures"]})
    result = {"correct": not failures, "attempted": sum(p["ops"] for p in passes),
              "failed": sum(p["failed"] for p in passes), "metrics": metrics}
    detail = dict(provenance=prov, result=result, failures=failures, passes=passes, **extra)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (run.out / name).write_text(json.dumps(detail, indent=1, default=str))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
