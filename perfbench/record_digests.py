"""Record perfbench/digests.json from the source tree of the current directory.

    python3 perfbench/record_digests.py

Run once, at the commit that defines the reference outputs.  It refuses to
overwrite an existing file: a digest that stops matching is a failed check
to explain, never something to re-record quietly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads

    if workloads.DIGESTS_PATH.exists():
        print(f"{workloads.DIGESTS_PATH} exists; delete it by hand to re-record", file=sys.stderr)
        return 1
    checks = workloads.Checks(record=True)
    wl = workloads.ExactSweep()
    wl.run(wl.setup(0), checks)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for label, args, keys in workloads.CLI_RUNS:
        if keys is None:
            continue
        proc = subprocess.run([sys.executable, "-m", "nlsdual.cli", *args], capture_output=True,
                              env=env, cwd=root, check=False)
        workloads.check_cli_report(label, keys, proc.returncode, proc.stdout, checks)
    if checks.failures:
        print(f"checks failed while recording: {checks.failures}", file=sys.stderr)
        return 1
    workloads.DIGESTS_PATH.write_text(json.dumps(dict(sorted(checks.digests.items())), indent=1) + "\n")
    print(f"recorded {len(checks.digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
