"""The benchmark's four request workloads, their warm-up and their output checks.

A request is one call into hodgelab's public API: a one-dimension,
one-seed ``run_campaign``, one in-process ``hodgelab decompose`` or one
cold-``J`` query.  Requests come in cycles.  A cycle's composition is fixed
per workload, so its cost and its latency percentiles do not depend on the
seed; the seed only draws the campaign seeds, the inputs and the order.
Cycle ``k`` of seed ``s`` is the same on every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import hodgelab.campaigns as campaigns
import hodgelab.cli as cli
import hodgelab.exterior as exterior
import hodgelab.hermitian as hermitian
import hodgelab.lefschetz as lefschetz
import hodgelab.tensor_maps as tensor_maps

# (kind, name, dim, degree or 0) -> copies per cycle.
CYCLES = {
    # acceptance criterion 3 as requests: lemma-2.1 on 200 seeds at each of
    # dims 4/6/8 and one prop-2.2 run over dims 4/6/8.  One cycle is the whole
    # criterion, so every run sends it in that proportion: the three prop-2.2
    # requests lie above p99 and carry about an eighth of the time, nearly all
    # of it the one at dim 8
    "bigrading": {
        **{("campaign", "lemma-2.1", dim, 0): 200 for dim in (4, 6, 8)},
        **{("campaign", "prop-2.2", dim, 0): 1 for dim in (4, 6, 8)},
    },
    # exact exterior/Lefschetz kernels, no split_type.  In the other
    # workloads the copies are chosen so that the median and the p90 latency
    # fall inside a group of requests of similar cost, not in a gap between
    # two groups, where they would jump
    "exterior": {
        (kind, name, dim, 0): 4
        for kind, name in (("campaign", "prop-4.1"), ("campaign", "prop-2.3"),
                           ("campaign", "alpha-omega"))
        for dim in (4, 6, 8)
    },
    # float backend: spectra, coframes, JSON and the CLI
    "spectral": {
        **{("campaign", "prop-4.2", dim, 0): 1 for dim in (4, 5, 6, 7, 8)},
        ("campaign", "lemma-4.4", 6, 0): 2,
        ("campaign", "lemma-4.8", 3, 0): 2,
        ("campaign", "prop-4.11", 3, 0): 2,
        ("campaign", "cor-4.12", 3, 0): 2,
        ("decompose", "form", 4, 0): 2,
        ("decompose", "form", 6, 0): 2,
        ("decompose", "form", 8, 0): 6,
        **{("decompose", "skew", dim, 0): 2 for dim in (4, 6, 8)},
    },
    # a fresh rational J per request, so no cache is ever warm
    "cold-exact": {
        **{("cold-j", "cold-j", dim, degree): copies
           for dim, degree, copies in ((4, 1, 2), (4, 2, 2), (6, 1, 2), (6, 2, 2), (6, 3, 6),
                                       (8, 1, 2), (8, 2, 4), (8, 3, 5))},
        **{("campaign", "lemma-5.5", dim, 0): 1 for dim in (4, 6, 8)},
        **{("campaign", "eq-7", dim, 0): 1 for dim in (4, 6)},
    },
}

# `hodgelab verify` route timed cold from a fresh interpreter: (campaign, dim)
CLI_ROUTES = {
    "bigrading": ("lemma-2.1", 6),
    "exterior": ("alpha-omega", 8),
    "spectral": ("prop-4.2", 8),
    "cold-exact": ("lemma-5.5", 6),
}

# cases a one-dimension, one-seed report must hold: (campaign, dim) -> count
FIXED_CASES = {
    **{("lemma-2.1", d): n for d, n in ((4, 4), (6, 6), (8, 6))},
    **{("prop-2.2", d): n for d, n in ((4, 5), (6, 13), (8, 13))},
    **{("prop-4.1", d): 1 for d in (4, 6, 8)},
    **{("prop-4.2", d): 1 for d in (4, 5, 6, 7, 8)},
    ("lemma-4.4", 6): 1,
    ("lemma-4.8", 3): 1,
    ("prop-4.11", 3): 1,
    ("cor-4.12", 3): 3,
    **{("lemma-5.5", d): 1 for d in (4, 6, 8)},
    **{("eq-7", d): 4 for d in (4, 6)},
}

# prop-2.3 and alpha-omega skip a case when a random draw cancels to zero, so
# their count depends on the seed.  They take their seeds from 1..64, and
# character k - 1 of the string pins the count of seed k (the counts of the
# program when the benchmark was added; bench/tests checks them).
PINNED_CASES = {
    ("prop-2.3", 4): "1222221121111111222222222221121122222122112222222122221122222212",
    ("prop-2.3", 6): "2" * 64,
    ("prop-2.3", 8): "2" * 64,
    ("alpha-omega", 4): "1111111111111111111111111111111011111111111111011111111111111111",
    ("alpha-omega", 6): "2" * 64,
    ("alpha-omega", 8): "2222222222222222222222222212222222222222222222222222222222222222",
}


def campaign_seed(name: str, dim: int, rng: random.Random) -> int:
    pins = PINNED_CASES.get((name, dim))
    return rng.randrange(1, 1 << 30) if pins is None else rng.randrange(1, len(pins) + 1)


def expected_cases(name: str, dim: int, seed: int) -> int:
    pins = PINNED_CASES.get((name, dim))
    return FIXED_CASES[(name, dim)] if pins is None else int(pins[seed - 1])


def report_ok(name: str, dim: int, seed: int, payload: dict) -> bool:
    """A report passes every case and holds the expected number of them."""
    summary, cases = payload["summary"], payload["cases"]
    return (summary["failed"] == 0 and summary["total"] == len(cases)
            == expected_cases(name, dim, seed) and all(c["pass"] for c in cases))



def _wedge_tables(j, p: int):
    for q in range(1, 4):
        if p + q <= j.space.dim:
            tensor_maps._wedge_table(j, p, q)


# per-(J, degree) caches reused by the exact workloads, filled by warm_up
CACHED_BASES = {
    "bigrading": (hermitian.lambda_basis, hermitian.bb_j_matrix, _wedge_tables),
    "exterior": (hermitian.lambda_basis, lefschetz.primitive_basis),
}
# shapes the warm-up does not send: one prop-2.2 request at dim 8 takes about
# 3 s, nearly all of it elimination that no cache keeps; the caches it reads
# are the ones filled above
WARM_UP_SKIPS = {("prop-2.2", 8)}

DECOMPOSE_POOL = 24  # generated input files per (kind, dim)
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13))  # (cos, sin, hypotenuse) of each rotation


@dataclass(frozen=True)
class Request:
    kind: str
    name: str
    dim: int
    degree: int
    seed: int


@dataclass
class Outcome:
    ok: bool
    cases: int
    seconds: float  # latency of the call into the public API
    report: bytes | None = None  # serialized campaign report
    error: str = ""


def cycle(workload: str, seed: int, index: int) -> list[Request]:
    """Requests of cycle ``index``: the workload's fixed mix, seeded and shuffled."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    out = [
        Request(kind, name, dim, degree, campaign_seed(name, dim, rng))
        for (kind, name, dim, degree), copies in CYCLES[workload].items()
        for _ in range(copies)
    ]
    rng.shuffle(out)
    return out


def warm_up(workload: str):
    """Fill the lazy caches the workload reuses; cold-exact has none to fill."""
    if workload == "cold-exact":
        return
    for dim in (4, 6, 8):
        for fill in CACHED_BASES.get(workload, ()):
            for degree in (1, 2, 3):
                fill(campaigns._std(dim), degree)
    # one request of each shape fills the rest, e.g. the basis wedge tables
    for kind, name, dim, _ in CYCLES[workload]:
        if kind == "campaign" and (name, dim) not in WARM_UP_SKIPS:
            campaigns.run_campaign(campaigns.Campaign(name, dims=[dim], seeds=[1]))


# -- campaign requests ------------------------------------------------------


def _campaign(request: Request) -> Outcome:
    start = time.perf_counter()
    report = campaigns.run_campaign(
        campaigns.Campaign(request.name, dims=[request.dim], seeds=[request.seed]))
    seconds = time.perf_counter() - start
    payload = report.to_json().encode()
    ok = report_ok(request.name, request.dim, request.seed, json.loads(payload))
    return Outcome(ok, report.summary["total"], seconds, payload,
                   "" if ok else f"report {payload[:200]!r}")


# -- decompose requests -----------------------------------------------------


def _structured_skew(dim: int, rng: np.random.Generator, kernel_block: bool):
    """Skew matrix Q B Q^T with well separated block values and a known spectrum.

    With ``kernel_block`` the last 2x2 block is zero, so the kernel has rank 2.
    """
    blocks = dim // 2
    values = [float(i) + 0.2 * rng.random() for i in range(1, blocks + 1)]
    if kernel_block:
        values[-1] = 0.0
    b = np.zeros((dim, dim))
    for k, v in enumerate(values):
        b[2 * k, 2 * k + 1] = -v
        b[2 * k + 1, 2 * k] = v
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = q @ b @ q.T
    a = 0.5 * (a - a.T)
    mus = sorted(-v * v for v in values if v)
    kernel = dim - 2 * len(mus)
    return a, mus, kernel


def make_decompose_inputs(seed: int, directory: Path) -> dict:
    """Write the pool of decompose input files.

    Returns (kind, dim, slot) -> (path, payload, expected mus, kernel rank).
    """
    directory.mkdir(parents=True, exist_ok=True)
    pool = {}
    for kind in ("form", "skew"):
        for dim in (4, 6, 8):
            for slot in range(DECOMPOSE_POOL):
                rng = np.random.default_rng([seed, dim, slot, int(kind == "form")])
                a, mus, kernel = _structured_skew(dim, rng, kernel_block=slot % 4 == 0)
                if kind == "skew":
                    payload = {"dim": dim, "backend": "float", "matrix": a.tolist()}
                else:
                    # alpha(e_i, e_j) = A[j][i]
                    terms = [{"index": [i + 1, j + 1], "value": float(a[j, i])}
                             for i in range(dim) for j in range(i + 1, dim)]
                    payload = {"dim": dim, "degree": 2, "backend": "float", "terms": terms}
                path = directory / f"{kind}-{dim}-{slot}.json"
                path.write_text(json.dumps(payload))
                pool[(kind, dim, slot)] = (path, payload, mus, kernel)
    return pool


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _check_decompose(kind, payload, mus, kernel, out) -> bool:
    spec = out["spectral"]
    got_mus = sorted(c["mu"] for c in spec["clusters"] if c["mu"] != 0.0)
    ok = (
        out["kind"] == kind
        and spec["kernel_rank"] == kernel
        and sum(c["multiplicity"] for c in spec["clusters"]) == payload["dim"]
        and len(got_mus) == len(mus)
        and all(_close(x, y, 1e-6) for x, y in zip(got_mus, mus))
        and out["symplectic_candidate"]["compatible"] == (kernel == 0)
    )
    if kind == "form":
        total = {}
        for comp in out["bidegree"]:
            for term in comp["component"]["terms"]:
                idx = tuple(term["index"])
                total[idx] = total.get(idx, 0.0) + term["value"]
        for term in payload["terms"]:
            ok = ok and _close(total.pop(tuple(term["index"]), 0.0), term["value"], 1e-9)
        ok = ok and all(abs(v) <= 1e-9 for v in total.values())
    return ok


def _decompose(request: Request, pool) -> Outcome:
    slot = request.seed % DECOMPOSE_POOL
    path, payload, mus, kernel = pool[(request.name, request.dim, slot)]
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["decompose", str(path)])
    seconds = time.perf_counter() - start
    ok = code == 0 and _check_decompose(request.name, payload, mus, kernel,
                                        json.loads(buffer.getvalue()))
    return Outcome(ok, 1, seconds, None, "" if ok else f"decompose exit {code}")


# -- cold-J queries ---------------------------------------------------------


def rotated_j_rows(dim: int, rng: random.Random):
    """Standard J conjugated by rational Givens rotations across J-blocks.

    Rotation k acts in a plane joining J-block k to J-block k + 1, with the
    k-th Pythagorean cosine and sine (3/5 and 4/5, then 5/13 and 12/13), so
    the result is rational, orthogonal and squares to -1.  The blocks and
    angles are fixed so that a request's cost depends on its shape, not on
    its seed; the coordinates within the blocks and the signs are drawn.
    Draws that land on a signed permutation (rotations that cancel) are
    redrawn.
    """
    blocks = dim // 2
    while True:
        j = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(0, dim, 2):
            j[i][i + 1] = Fraction(-1)
            j[i + 1][i] = Fraction(1)
        for k, (a, b, c) in enumerate(PYTHAGOREAN):
            p = 2 * (k % blocks) + rng.randrange(2)
            q = 2 * ((k + 1) % blocks) + rng.randrange(2)
            cos, sin = Fraction(a, c), Fraction(b * rng.choice((1, -1)), c)
            # J <- R J R^T with R the rotation in the (p, q) plane
            for row in j:
                row[p], row[q] = cos * row[p] - sin * row[q], sin * row[p] + cos * row[q]
            j[p], j[q] = ([cos * x - sin * y for x, y in zip(j[p], j[q])],
                          [sin * x + cos * y for x, y in zip(j[p], j[q])])
        if any(sum(1 for v in row if v != 0) > 1 for row in j):
            return j


NONZERO = (-3, -2, -1, 1, 2, 3)


def _integer_form(space, degree, rng: random.Random, terms: int = 4):
    masks = exterior.basis_masks(space.dim, degree)
    chosen = rng.sample(masks, min(terms, len(masks)))
    return exterior.Form(space, degree, {m: rng.choice(NONZERO) for m in chosen})


def _combination(forms, rng: random.Random, space, degree):
    out = exterior.Form(space, degree, {})
    for f in forms:
        out = out + rng.choice(NONZERO) * f
    return out


def _cold_j(request: Request) -> Outcome:
    """Fresh exact J: bases, bidegree split and type split, checked exactly.

    The exact checks call the API too (bb_j, lefschetz_lstar, form and map
    arithmetic) and are the verification the query asks for, so the
    latency covers the whole query; only drawing J is outside it.
    """
    rng = random.Random(request.seed)
    space = exterior.Space(request.dim, "exact")
    rows = rotated_j_rows(request.dim, rng)
    start = time.perf_counter()
    j = hermitian.ComplexStructure(space, rows)
    p = request.degree
    basis = hermitian.lambda_basis(j, p)
    hermitian.bb_j_matrix(j, p)
    primitive = lefschetz.primitive_basis(j, p)

    alpha = _integer_form(space, p, rng)
    pieces = [hermitian.bidegree_project(j, alpha, p - q, q) for q in range(p // 2 + 1)]
    total = exterior.Form(space, p, {})
    for piece in pieces:
        total = total + piece
    checks = [total == alpha]
    checks.append(all(hermitian.bb_j(j, hermitian.bb_j(j, b)) == -b for b in basis.forms))
    checks.append(all(lefschetz.lefschetz_lstar(j, f).is_zero() for f in primitive))
    phi = _combination(basis.forms, rng, space, p)
    psi = _combination(basis.forms, rng, space, p)
    t = tensor_maps.FormValuedMap.from_tensor(j, phi, psi)
    commuting, anticommuting = tensor_maps.split_type(t)
    checks.append(all(
        x + y == z
        for rx, ry, rz in zip(commuting.matrix, anticommuting.matrix, t.matrix)
        for x, y, z in zip(rx, ry, rz)
    ))
    seconds = time.perf_counter() - start
    ok = all(checks)
    return Outcome(ok, len(checks), seconds, None, "" if ok else f"cold-j checks {checks}")


def execute(request: Request, pool) -> Outcome:
    if request.kind == "campaign":
        return _campaign(request)
    if request.kind == "decompose":
        return _decompose(request, pool)
    return _cold_j(request)
