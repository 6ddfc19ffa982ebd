"""Session fixtures shared by the test modules."""

import pytest

from hodgelab.campaigns import Campaign, run_campaign

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
