import os

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from upm_sim.machine import builtin_mi300a

# Hypothesis tests run the same examples on every run and keep no example
# database, so Tier-1 stays deterministic. Their other cache (the constants
# read from the source) goes to a path that cannot be created, and
# hypothesis skips a failed cache write: the suite writes no .hypothesis/.
set_hypothesis_home_dir(os.devnull)
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None, max_examples=100)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def profile():
    return builtin_mi300a()


@pytest.fixture(scope="session")
def anchor_results(profile):
    """Verify anchors evaluated once and shared across acceptance tests."""
    from upm_sim.harness import evaluate_anchors
    return {r.anchor.id: r for r in evaluate_anchors(profile, seed=0)}
