"""One benchmark process: a single cold pass of a workload, a set-up probe,
or one CLI command.  Started by run.py, never in-process.

    python3 perfbench/child.py pass  --workload W --seed N --spawned-at T [--trace DIR]
    python3 perfbench/child.py setup --workload W --seed N --spawned-at T
    python3 perfbench/child.py cli   --label L --spawned-at T [--trace DIR] -- <cli arguments>

``pass`` and ``setup`` print one JSON object on stdout.  ``cli`` leaves stdout
to the CLI's own report; untraced, it prints the time from spawn to the end
of ``import nlsdual.cli`` and the speed samples of ``main`` as the last line
of stderr, traced, it writes its span summary into the trace directory.  The
set-up probe of ``cli-reports`` imports ``nlsdual.cli`` and nothing else.
Only the standard library is imported before the timed imports, so that
``setup_s`` and ``cli.import_s`` include the whole import cost.  Untraced
passes and commands sample the host's speed while they compute
(hostspeed.SpeedSampler); tracing replaces the sampler, so that it adds
nothing to the spans' self times.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback


def _check_source(module) -> None:
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(module.__file__).startswith(src + os.sep):
        raise SystemExit(f"nlsdual imported from {module.__file__}, not from {src}")


def run_workload(args) -> int:
    if args.workload == "cli-reports":
        import nlsdual.cli as module
    else:
        import nlsdual as module
        import workloads
        wl = workloads.WORKLOADS[args.workload]()
        inputs = wl.setup(args.seed)
    _check_source(module)
    out = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    import hostspeed
    import numpy
    import tracer
    checks = workloads.Checks(workloads.load_digests())
    rec = sampler = None
    if args.trace:
        rec = tracer.Recorder()
        tracer.install(rec)
    else:
        sampler = hostspeed.SpeedSampler(args.seed)
        sampler.start()
    t0 = time.perf_counter()
    try:
        wl.run(inputs, checks)
    except Exception as exc:    # a library error fails the pass's checks, not the harness
        traceback.print_exc()
        checks.check(f"pass raised {type(exc).__name__}: {exc}", False)
    work = time.perf_counter() - t0
    if sampler is not None:
        sampler.stop()
        out["speed"] = sampler.summary()
        work -= out["speed"]["sampling_s"]
        out["wall_s"] = hostspeed.at_reference_speed(work, out["speed"])
    out.update(work_s=work, ops=checks.attempted, failed=len(checks.failures),
               failures=checks.failures, values=checks.values, digests=checks.digests,
               numpy=numpy.__version__)
    if rec is not None:
        rec.uninstall()
        rec.write(os.path.join(args.trace, f"spans-{args.workload}-seed{args.seed}.npz"))
        out["summary"] = rec.summary()
    print(json.dumps(out))
    return 0


def run_cli(args) -> int:
    t0 = time.perf_counter()
    import nlsdual.cli
    import_s = time.perf_counter() - t0
    _check_source(nlsdual.cli)
    if args.trace is None:
        started_s = time.monotonic() - args.spawned_at
        import hostspeed
        sampler = hostspeed.SpeedSampler(args.seed)
        sampler.start()
        try:
            return nlsdual.cli.main(args.cli_args)
        finally:
            sampler.stop()
            sys.stdout.flush()
            print(json.dumps({"started_s": started_s, "speed": sampler.summary()}),
                  file=sys.stderr)
    import tracer
    rec = tracer.Recorder()
    tracer.install(rec)
    main = rec.spanned(nlsdual.cli.main, f"cli.{args.label}")
    try:
        return main(args.cli_args)
    finally:
        # Written even when the command crashes, so that its report check
        # fails rather than the harness.
        rec.uninstall()
        sys.stdout.flush()
        rec.write(os.path.join(args.trace, f"spans-cli-{args.label}.npz"))
        summary = rec.summary()
        summary["import_s"] = import_s
        with open(os.path.join(args.trace, f"summary-cli-{args.label}.json"), "w") as fh:
            json.dump(summary, fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("pass", "setup", "cli"))
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spawned-at", type=float, default=0.0,
                   help="time.monotonic() in the parent just before this process started")
    p.add_argument("--trace", default=None, help="directory for span files; enables tracing")
    p.add_argument("--label", default=None)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = p.parse_args(argv[:split])
    args.cli_args = argv[split + 1:]
    if args.mode == "cli":
        return run_cli(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
