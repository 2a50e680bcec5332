"""Add digests to tests/digests.json; a recorded digest is never changed.

    python3 tests/record_digests.py

Run from the root of a source checkout.  It digests every artifact that the
tests pin here, with the benchmark's canonical JSON for exact artifacts and
the sha256 of stdout for the README's command lines:

    T<n>, H<n>, rules<n>   the level-n space table, dual density and evolution
                           rules, n = 8..14
    V<n>                   the partner generate_partner(U, +1, n), n = 10..14
    readme/<line>          each line of tests/readme_commands.txt

Keys not yet in the file are added.  If a recorded key now digests to a
different value, nothing is written and the run fails: a digest that stops
matching is a failed check to explain, never something to re-record.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

TESTS = Path(__file__).resolve().parent
DIGESTS = TESTS / "digests.json"
# the level sweep of test_level_sweep.py runs up to the last of these levels
LEVELS = range(8, 15)
PARTNERS = range(10, LEVELS.stop)


def merge(recorded: dict, computed: dict) -> dict:
    """``recorded`` with the keys of ``computed`` it lacks; raises ValueError
    naming every recorded key whose computed digest differs."""
    changed = sorted(k for k, d in computed.items() if k in recorded and recorded[k] != d)
    if changed:
        raise ValueError(f"recorded digests would change: {changed}")
    return dict(sorted({**computed, **recorded}.items()))


def compute() -> dict:
    from helpers import canonical_digest
    from nlsdual.brackets import build_level_lagrangian, dirac_pipeline
    from nlsdual.cli import main
    from nlsdual.hierarchy import build_u, evolution_rules, generate_partner

    out = {}
    for n in LEVELS:
        res = dirac_pipeline(build_level_lagrangian(n), "space")
        out[f"T{n}"] = canonical_digest(res.table)
        out[f"H{n}"] = canonical_digest(res.hamiltonian_density)
        out[f"rules{n}"] = canonical_digest(evolution_rules(n))
    U = build_u()
    for n in PARTNERS:
        out[f"V{n}"] = canonical_digest(generate_partner(U, 1, n))
    for line in (TESTS / "readme_commands.txt").read_text().splitlines():
        buf = io.StringIO()
        with redirect_stdout(buf):
            if main(line.split()) != 0:
                raise RuntimeError(f"nlsdual {line} failed")
        out[f"readme/{line}"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def main() -> int:
    sys.path.insert(0, str(TESTS.parent / "src"))
    recorded = json.loads(DIGESTS.read_text())
    try:
        merged = merge(recorded, compute())
    except (RuntimeError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(merged, indent=1) + "\n")
    print(f"{len(merged) - len(recorded)} digests added, {len(recorded)} unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
