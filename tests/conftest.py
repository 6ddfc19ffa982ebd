"""Session fixtures and helpers shared by the test modules."""

import importlib.util
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from hodgelab.campaigns import Campaign, run_campaign
from hodgelab.exterior import Space
from hodgelab.hermitian import ComplexStructure
from hodgelab.linalg import compose, dense_rows, sparse_rows

# the parameters of acceptance criteria 2 and 3: prop-2.3 on seeds 1..40,
# lemma-2.1 on seeds 1..200 and prop-2.2 at its defaults, all over the
# default dims
ACCEPTANCE_SEEDS = {
    "prop-2.3": list(range(1, 41)),
    "lemma-2.1": list(range(1, 201)),
    "prop-2.2": None,
}


@pytest.fixture(scope="session")
def acceptance_report():
    """``acceptance_report(name)`` is the report of ``name`` at its acceptance
    parameters, run once per session; its ``wall_time`` is that run's time.

    tests/test_acceptance.py times these reports and tests/test_golden.py
    pins their hashes.
    """
    reports = {}

    def get(name):
        if name not in reports:
            reports[name] = run_campaign(Campaign(name, seeds=ACCEPTANCE_SEEDS[name]))
        return reports[name]

    return get


def rotated_j(n, backend="exact"):
    """The standard J conjugated by the 3/5-4/5 rotation of the e_1, e_3 plane."""
    rot = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rot[0][0], rot[0][2], rot[2][0], rot[2][2] = (
        Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))
    std = sparse_rows(ComplexStructure.standard(Space(n)).rows)
    rows = dense_rows(compose(compose(sparse_rows(rot), std), sparse_rows(list(zip(*rot)))), n)
    space = Space(n, backend)
    return ComplexStructure(space, [[space.scalar(v) for v in row] for row in rows])


@cache
def _cayley_probe():
    path = Path(__file__).resolve().parents[1] / "scripts" / "cayley_probe.py"
    spec = importlib.util.spec_from_file_location("cayley_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def cayley_j(n):
    """The Cayley-rotated J of ``scripts/cayley_probe.py`` on exact R^n, a
    fresh structure per call; its denominators are 3/12/187 at dims 4/6/8."""
    return _cayley_probe().cayley_j(n)


J_KINDS = ("standard", "rotated", "cayley")


def exact_j(kind, n):
    """A fresh exact J on R^n of a kind in ``J_KINDS``: the ``standard``
    one, the ``rotated`` one of ``rotated_j`` or the ``cayley`` one of
    ``cayley_j``."""
    build = {"standard": lambda n: ComplexStructure.standard(Space(n)),
             "rotated": rotated_j, "cayley": cayley_j}[kind]
    return build(n)


def _refuse(*args):
    raise AssertionError("Fraction arithmetic")


@contextmanager
def fraction_arithmetic_refused():
    """Within the block, every arithmetic operator of ``Fraction`` raises
    AssertionError: a call that runs in it builds its values on integers and
    may only construct a ``Fraction`` from a numerator and a denominator, as
    the one division of ``Space.from_numerators`` does."""
    with pytest.MonkeyPatch.context() as patch:
        for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
            patch.setattr(Fraction, f"__{op}__", _refuse)
            patch.setattr(Fraction, f"__r{op}__", _refuse)
        patch.setattr(Fraction, "__neg__", _refuse)
        yield
