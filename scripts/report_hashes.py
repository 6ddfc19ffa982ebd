"""Print sha256 digests of every output a refactor must leave byte-identical.

    python3 scripts/report_hashes.py SRC_DIR > manifest.json

SRC_DIR is the root of a checkout (a ``git archive`` of a commit, say): its
``src/`` is imported and its ``demos/`` are run.  The manifest is one JSON
object, keyed by what was hashed:

* ``report/<campaign>/defaults``: each campaign at its default dims and seeds;
* ``report/<campaign>/allowed``: each campaign on its ``allowed_dims`` with
  seeds [5, 2, 9, 11];
* ``acceptance/<campaign>``: the reports of acceptance criteria 2 and 3, at
  the parameters of ``tests/conftest.py``;
* ``demo/<file>``: the stdout of each demo;
* ``decompose/<input>``: the exit code and stdout of ``hodgelab decompose``
  on fixed inputs: exact forms of degree 2, 3 and 4 on R^4, R^6 and R^8, a
  float 2-form and a skew matrix;
* ``verify/<campaign>``: the exit code and stdout of ``hodgelab verify``
  with ``--dim`` for each of the campaign's ``allowed_dims`` and
  ``--seeds 5,2,9,11``.

Two checkouts agree when their manifests are equal; ``diff`` names the
outputs that differ.  Standard library plus the checkout's own code.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

SEEDS = [5, 2, 9, 11]
# the parameters of the ``acceptance_report`` fixture in tests/conftest.py
ACCEPTANCE_SEEDS = {
    "prop-2.3": list(range(1, 41)),
    "lemma-2.1": list(range(1, 201)),
    "prop-2.2": None,
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def exact_form(dim: int, degree: int) -> dict:
    terms = [{"index": list(index), "num": i % 5 - 2, "den": i % 3 + 1}
             for i, index in enumerate(combinations(range(1, dim + 1), degree))
             if i % 5 != 2]
    return {"dim": dim, "degree": degree, "backend": "exact", "terms": terms}


def decompose_inputs() -> dict:
    inputs = {f"exact-dim{dim}-degree{degree}": exact_form(dim, degree)
              for dim in (4, 6, 8) for degree in (2, 3, 4)}
    inputs["float-dim6-degree2"] = {
        "dim": 6, "degree": 2, "backend": "float",
        "terms": [{"index": [1, 2], "value": 1.5}, {"index": [3, 4], "value": -0.25},
                  {"index": [1, 6], "value": 0.75}, {"index": [5, 6], "value": 2.0}],
    }
    inputs["skew-dim5"] = {
        "dim": 5,
        "matrix": [[0, -2, 0, 1, 0], [2, 0, 0, 0, 0], [0, 0, 0, -3, 0],
                   [-1, 0, 3, 0, 0.5], [0, 0, 0, -0.5, 0]],
    }
    return inputs


def cli_digest(env: dict, *args: str) -> str:
    """The exit code and stdout of one ``hodgelab`` run."""
    done = subprocess.run([sys.executable, "-m", "hodgelab.cli", *args], env=env,
                          capture_output=True, text=True)
    return digest(f"{done.returncode}\n{done.stdout}")


def manifest(checkout: Path) -> dict:
    src = checkout / "src"
    sys.path.insert(0, str(src))
    from hodgelab.campaigns import CAMPAIGNS, Campaign, run_campaign

    out = {}
    for name, entry in CAMPAIGNS.items():
        out[f"report/{name}/defaults"] = digest(run_campaign(Campaign(name)).to_json())
        allowed = Campaign(name, dims=list(entry.allowed_dims), seeds=SEEDS)
        out[f"report/{name}/allowed"] = digest(run_campaign(allowed).to_json())
    for name, seeds in ACCEPTANCE_SEEDS.items():
        out[f"acceptance/{name}"] = digest(run_campaign(Campaign(name, seeds=seeds)).to_json())

    env = dict(os.environ, PYTHONPATH=str(src))
    for demo in sorted((checkout / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                              text=True, check=True)
        out[f"demo/{demo.name}"] = digest(done.stdout)
    with tempfile.TemporaryDirectory() as tmp:
        for label, payload in decompose_inputs().items():
            path = Path(tmp) / f"{label}.json"
            path.write_text(json.dumps(payload))
            out[f"decompose/{label}"] = cli_digest(env, "decompose", str(path))
    for name, entry in CAMPAIGNS.items():
        dims = [arg for dim in entry.allowed_dims for arg in ("--dim", str(dim))]
        seeds = ",".join(str(seed) for seed in SEEDS)
        out[f"verify/{name}"] = cli_digest(env, "verify", name, *dims, "--seeds", seeds)
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    json.dump(manifest(Path(sys.argv[1]).resolve()), sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
