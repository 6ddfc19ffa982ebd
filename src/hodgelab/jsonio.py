"""JSON encodings of the library's value types.

Form format (1-based strictly increasing indices):

    {"dim": n, "degree": p, "backend": "exact" | "float",
     "terms": [{"index": [i1, ..., ip], "num": a, "den": b}, ...]}

Float-backend terms carry {"index": [...], "value": x} instead of num/den.
Skew endomorphisms are read from {"dim": n, "matrix": rows or row-major};
exact matrix entries are integers or {"num": a, "den": b}.  Integer fields
("dim", "degree", "index", "num", "den") take JSON integers only, with
"num" required and "den" (default 1) nonzero; float-backend values and
matrix entries take finite JSON numbers only.  Spectral decompositions are
written, never read.  Payloads with "dim" above MAX_DIM are rejected before
anything of that size is built.  ``dumps`` writes the indented JSON of
``hodgelab decompose``.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from sys import float_info

from .errors import HodgeLabError
from .exterior import Form, Space
from .harmonic import SkewEndo, SpectralDecomposition

# decompose builds an n x n structure, eigensolves it and enumerates the
# C(n, p) basis masks; the campaigns stop at dimension 8
MAX_DIM = 16


class ParseError(HodgeLabError):
    """Malformed or inconsistent JSON payload."""


def _integer(v, field: str) -> int:
    """A JSON integer field; floats, bools and strings are rejected, not truncated."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ParseError(f"{field!r} must be an integer, got {v!r}")


def _number(v, field: str) -> float:
    """A finite float-backend number field; bools and strings are rejected,
    not coerced, and so are the NaN and infinities that ``json`` accepts and
    the integers past the float range."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        if isinstance(v, int) and abs(v) > float_info.max:
            raise ParseError(f"{field!r} must lie in the float range, |x| <= {float_info.max!r}")
        if isfinite(v):
            return float(v)
        raise ParseError(f"{field!r} must be finite, got {v!r}")
    raise ParseError(f"{field!r} must be a number, got {v!r}")


def _space_from(obj) -> Space:
    try:
        dim = _integer(obj["dim"], "dim")
        if dim > MAX_DIM:
            raise ValueError(f"dim {dim} exceeds the limit {MAX_DIM}")
        return Space(dim, obj.get("backend", "exact"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad space description: {exc}") from exc


def form_to_dict(form: Form) -> dict:
    terms = []
    for idx, coeff in form.terms():
        entry: dict = {"index": list(idx)}
        if form.space.backend == "exact":
            frac = Fraction(coeff)
            entry["num"] = frac.numerator
            entry["den"] = frac.denominator
        else:
            entry["value"] = float(coeff)
        terms.append(entry)
    return {
        "dim": form.space.dim,
        "degree": form.degree,
        "backend": form.space.backend,
        "terms": terms,
    }


def form_from_dict(obj) -> Form:
    space = _space_from(obj)
    try:
        degree = _integer(obj["degree"], "degree")
        terms = {}
        for entry in obj.get("terms", []):
            idx = tuple(_integer(i, "index") for i in entry["index"])
            if space.backend == "exact":
                val = _fraction(entry)
            else:
                val = _number(entry["value"], "value")
            terms[idx] = terms.get(idx, 0) + val
        return space.form(degree, terms)
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"bad form description: {exc}") from exc


def _matrix_to_rows(obj, space: Space):
    """The rows of a matrix payload, nested or flat row-major."""
    try:
        flat = obj["matrix"]
        if not isinstance(flat, list):
            raise ParseError("'matrix' must be a list of rows or a flat row-major list")
        n = space.dim
        if len(flat) == n and all(isinstance(r, (list, tuple)) for r in flat):
            rows = [list(r) for r in flat]
        elif len(flat) == n * n:
            rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        else:
            raise ParseError("matrix payload has the wrong size")
        if space.backend == "exact":
            return [[_exact_entry(v) for v in row] for row in rows]
        return [[_number(v, "matrix entry") for v in row] for row in rows]
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"bad matrix payload: {exc}") from exc


def skew_endo_from_dict(obj) -> SkewEndo:
    space = _space_from(obj)
    return SkewEndo(space, _matrix_to_rows(obj, space))


def _fraction(obj) -> Fraction:
    if "num" not in obj:
        raise ParseError("missing field 'num'")
    num = _integer(obj["num"], "num")
    den = _integer(obj.get("den", 1), "den")
    if den == 0:
        raise ParseError("'den' must be nonzero")
    return Fraction(num, den)


def _exact_entry(v):
    """An exact matrix entry: an int or a {"num", "den"} object."""
    return _fraction(v) if isinstance(v, dict) else _integer(v, "matrix entry")


def spectral_to_dict(d: SpectralDecomposition) -> dict:
    return {
        "dim": d.space.dim,
        "kernel_rank": d.kernel_rank,
        "clusters": [
            {
                "mu": c.mu,
                "multiplicity": c.multiplicity,
                "omega": form_to_dict(c.omega) if c.omega is not None else None,
            }
            for c in d.clusters
        ],
    }


# -- the indented writer ----------------------------------------------------


def dumps(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)`` byte
    for byte, in one pass: given an indent, ``json`` runs its pure-Python
    encoder, more than twice as slow.  It writes what ``decompose`` builds:
    dicts with str keys, lists, str, int, float, bool and None.  NaN and the
    infinities raise ``ValueError`` at any depth; anything else (a tuple, an
    instance of a subclass, a key that is not a str) raises ``TypeError``."""
    out: list = []
    _write(value, "\n", out)
    return "".join(out)


def _write(value, nl: str, out: list) -> None:
    """Append the text of ``value`` to ``out``; ``nl`` breaks its lines and
    its children go one indent further.  The branches test the exact type."""
    t = type(value)
    if t is int:
        out.append(int.__repr__(value))
    elif t is float:
        if not isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        out.append(float.__repr__(value))
    elif t is str:
        out.append(_quote(value))
    elif t is dict:
        inner = nl + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_quote(key))
            out.append(": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "}" if value else "{}")
    elif t is list:
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]" if value else "[]")
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
