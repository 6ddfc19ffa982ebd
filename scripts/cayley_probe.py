"""Time the campaign bodies that pass on a generic rational J.

    python3 scripts/cayley_probe.py SRC_DIR

SRC_DIR is the root of a checkout (a ``git archive`` of a commit, say): its
``src/`` is imported.  The J on R^n is a Cayley rotation of the standard one:
S is skew, with the entries above its diagonal drawn row by row as
``SplitMix64(1).next_u64() % 3 - 1``, Q = (I - S)(I + S)^-1 in exact
rationals, and J = Q J0 Q^T.  Its denominators are 3/12/187 at dims 4/6/8.

``campaigns._std`` is replaced by a fresh such J per call, and the five
campaign bodies that pass on it run at dims 4/6/8 with their default seeds,
each one run three times on its own and timed as the median of the three:
one timing on a shared host spreads wider than most changes the probe is
meant to resolve.  (``lemma-3.1`` is left out: its derivative table assumes
J e_{2i-1} = e_{2i}.)  One JSON line is printed: for each body and dim the
seconds, the case count, whether every case passed and the sha256 of the
cases' ids, verdicts and residuals, which must agree over the three runs,
then the total of the median seconds.  Standard library plus the
checkout's own code.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BODIES = ("lemma-2.1", "prop-2.2", "prop-2.3", "alpha-omega", "eq-7")
DIMS = (4, 6, 8)
RUNS = 3


def cayley_j(n: int):
    """The Cayley-rotated complex structure Q J0 Q^T on R^n described above."""
    from hodgelab.exterior import Space
    from hodgelab.hermitian import ComplexStructure
    from hodgelab.linalg import compose, dense_rows, exact_nullspace, sparse_rows
    from hodgelab.rng import SplitMix64

    rng = SplitMix64(1)
    s = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r + 1, n):
            s[r][c] = rng.next_u64() % 3 - 1
            s[c][r] = -s[r][c]
    # I + S is invertible (S is real skew), so the kernel of [I + S | S - I]
    # has its free columns at n..2n-1, and free column n + j gives a multiple
    # of ((I + S)^-1 (I - S) e_j, e_j): divided by its entry at n + j, it is
    # column j of Q, as (I + S)^-1 and I - S commute
    system = [{**{c: int(r == c) + s[r][c] for c in range(n)},
               **{n + c: s[r][c] - int(r == c) for c in range(n)}} for r in range(n)]
    q_cols = [[Fraction(vec.get(r, 0), vec[n + j]) for r in range(n)]
              for j, vec in enumerate(exact_nullspace(system, 2 * n))]
    j0 = ComplexStructure.standard(Space(n)).sparse_rows
    rows = compose(compose(sparse_rows(zip(*q_cols)), j0), sparse_rows(q_cols))
    return ComplexStructure(Space(n), dense_rows(rows, n))


def probe() -> dict:
    from hodgelab import campaigns

    campaigns._std = cayley_j
    out: dict = {"bodies": {}}
    total = 0.0
    for name in BODIES:
        entry = campaigns.CAMPAIGNS[name]
        for dim in DIMS:
            times, texts = [], set()
            for _ in range(RUNS):
                start = time.perf_counter()
                cases = list(entry.fn(dim, entry.seeds))
                times.append(time.perf_counter() - start)
                texts.add(json.dumps([[c.id, c.passed, c.residual] for c in cases]))
            if len(texts) != 1:
                raise RuntimeError(f"{name}/dim{dim} gives different cases from run to run")
            seconds = statistics.median(times)
            total += seconds
            text = texts.pop()
            out["bodies"][f"{name}/dim{dim}"] = {
                "seconds": round(seconds, 4),
                "cases": len(cases),
                "passed": all(c.passed for c in cases),
                "cases_sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
    out["total_seconds"] = round(total, 4)
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(sys.argv[1]).resolve() / "src"))
    print(json.dumps(probe(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
