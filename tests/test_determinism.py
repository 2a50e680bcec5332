"""Exact outputs must not depend on hash or set iteration order.

Jets hash by identity, so the iteration order of sets and dicts keyed by
jets changes from process to process.  The artifacts are built in fresh
interpreters with different hash seeds and compared as canonical JSON.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_BUILD = """
import json
from nlsdual.brackets import build_level_lagrangian, dirac_pipeline
from nlsdual.hierarchy import build_u, generate_partner

def jet(v):
    return [v.field, v.dx, [list(p) for p in v.dt]]

res = dirac_pipeline(build_level_lagrangian(4), "space")
T4 = {"coords": [jet(c) for c in res.table.coords],
      "entries": [[jet(a), jet(b), e.to_json_obj()] for a, b, e in res.table.nonzero_pairs()]}
out = {"V6": generate_partner(build_u(), 1, 6).to_json_obj(), "T4": T4,
       "H4": res.hamiltonian_density.to_json_obj()}
print(json.dumps(out, sort_keys=True, separators=(",", ":")))
"""


def _build(hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _BUILD], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout


def test_artifacts_identical_across_hash_seeds():
    a, b = _build("0"), _build("12345")
    assert json.loads(a)["T4"]["entries"]
    assert a == b
