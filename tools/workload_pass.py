"""One untraced pass of a benchmark workload against the recorded digests.

    python3 tools/workload_pass.py WORKLOAD

Run from anywhere: the script puts the repository's ``src`` and ``perfbench``
on the import path.  WORKLOAD is ``exact-sweep`` or ``monodromy``.  The pass
runs the workload's ``setup(0)`` and ``run`` from ``perfbench/workloads.py``
and prints one line, ``<attempted> checks, <failed> failed: <failures>``.  It
exits 1 if any check failed or none was attempted, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    work = workloads.WORKLOADS[args.workload]()
    checks = workloads.Checks(workloads.load_digests())
    work.run(work.setup(0), checks)
    print(checks.attempted, "checks,", len(checks.failures), "failed:", checks.failures)
    return 1 if checks.failures or not checks.attempted else 0


if __name__ == "__main__":
    sys.exit(main())
