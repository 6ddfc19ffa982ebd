"""Batch front-end: run verification campaigns and decompose inputs.

    hodgelab verify <campaign> [--dim N ...] [--seeds a..b] \
        [--backend exact|float] [--json out.json]
    hodgelab decompose <file>

Exit codes: 0 pass, 1 verification failure, 2 usage, parse or write error,
3 numerical conditioning failure.  A seed list may name at most MAX_SEEDS
seeds; a repeated seed or dimension runs once.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harmonic  # spectral functions are looked up per call
from .campaigns import Campaign, UsageError, campaign_names, run_campaign
from .errors import HodgeLabError, IllConditionedSpectrumError
from .exterior import Space
from .hermitian import ComplexStructure, bidegree_project
from .jsonio import (
    ParseError,
    form_from_dict,
    form_to_dict,
    skew_endo_from_dict,
    spectral_to_dict,
)

# ranges are counted before they are expanded; seed values stay unbounded
MAX_SEEDS = 100_000


def _parse_seeds(text: str) -> list[int]:
    """Seeds in the order given; each range counts toward MAX_SEEDS with its
    full length.  run_campaign drops the repeats."""
    out: list = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty seed range {part!r}")
            seeds = range(lo, hi + 1)
        elif part:
            seeds = [int(part)]
        else:
            continue
        if len(out) + len(seeds) > MAX_SEEDS:
            raise ValueError(f"more than {MAX_SEEDS} seeds")
        out.extend(seeds)
    if not out:
        raise ValueError("no seeds given")
    return out


def _parse_dims(values) -> list[int]:
    """Dimensions in the order given; run_campaign drops the repeats."""
    out = []
    for v in values:
        for part in str(v).split(","):
            if part.strip():
                out.append(int(part))
    if not out:
        raise ValueError("no dims given")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgelab",
        description="Verification campaigns for the pointwise exterior-calculus identities.",
    )
    sub = parser.add_subparsers(dest="command")

    verify = sub.add_parser(
        "verify",
        help="run a named verification campaign",
        description="Campaigns: " + ", ".join(campaign_names()),
    )
    verify.add_argument("campaign", help="campaign name")
    verify.add_argument("--dim", action="append", default=None, help="dimension (repeatable)")
    verify.add_argument("--seeds", default=None, help="seed list: a..b or comma separated")
    verify.add_argument("--backend", choices=["exact", "float"], default=None)
    verify.add_argument("--json", dest="json_path", default=None, help="also write the report here")

    decompose = sub.add_parser(
        "decompose",
        help="spectral or bidegree decomposition of a JSON form / skew matrix",
    )
    decompose.add_argument("file", help="path to the JSON input")
    return parser


def _cmd_verify(args) -> int:
    try:
        dims = _parse_dims(args.dim) if args.dim else None
        seeds = _parse_seeds(args.seeds) if args.seeds else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    campaign = Campaign(args.campaign, dims, seeds, args.backend)
    try:
        report = run_campaign(campaign)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = report.to_json()
    sys.stdout.write(payload)
    if args.json_path:
        try:
            with open(args.json_path, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.json_path}: {exc}", file=sys.stderr)
            return 2
    print(
        f"{report.campaign}: {report.summary['passed']}/{report.summary['total']} cases passed "
        f"in {report.wall_time:.2f}s",
        file=sys.stderr,
    )
    return 0 if report.all_passed else 1


def _spectral_fields(endo) -> dict:
    """The spectral decomposition of a skew map and its symplectic candidate."""
    decomp = harmonic.spectral(endo)
    cand = harmonic.symplectic_candidate(decomp)
    return {
        "spectral": spectral_to_dict(decomp),
        "symplectic_candidate": {
            "form": form_to_dict(cand.form),
            "compatible": cand.compatible,
            "kernel_rank": cand.kernel_rank,
        },
    }


def _cmd_decompose(args) -> int:
    try:
        with open(args.file) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2

    try:
        if isinstance(payload, dict) and "degree" in payload:
            form = form_from_dict(payload)
            out: dict = {"kind": "form", "input": form_to_dict(form)}
            if form.space.dim % 2 == 0:
                j = ComplexStructure.standard(form.space)
                comps = []
                s = form.degree
                for q in range(0, s // 2 + 1):
                    p = s - q
                    piece = bidegree_project(j, form, p, q)
                    comps.append({"p": p, "q": q, "component": form_to_dict(piece)})
                out["bidegree"] = comps
            if form.degree == 2:
                fspace = Space(form.space.dim, "float")
                terms = {idx: float(c) for idx, c in form.terms()}
                out.update(_spectral_fields(harmonic.form_endo(fspace.form(2, terms))))
        elif isinstance(payload, dict) and "matrix" in payload:
            payload = dict(payload)
            payload.setdefault("backend", "float")
            out = {"kind": "skew", **_spectral_fields(skew_endo_from_dict(payload))}
        else:
            print("error: payload is neither a form nor a skew matrix", file=sys.stderr)
            return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IllConditionedSpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HodgeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    json.dump(out, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "decompose":
        return _cmd_decompose(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
