"""Session fixtures and helpers shared by the test modules."""

from fractions import Fraction

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
