"""Fixtures shared across test modules."""

import time

import pytest
from hypothesis import settings

from darkshelf import harness

# test_config_property at ten times its Tier-1 examples (hypothesis' default, 100), still derandomized; CI runs it
# as its own step: pytest tests/test_harness.py -k test_config_property --hypothesis-profile=config-fuzz
settings.register_profile("config-fuzz", max_examples=1000)


@pytest.fixture(scope="session")
def preset_compare():
    """``compare(name)`` runs a preset's compare at most once per session: (report, artifacts, seconds)."""
    done = {}

    def compare(name: str):
        if name not in done:
            start = time.time()
            report, art = harness.compare(harness.validate(harness.load_config(name)))
            done[name] = report, art, time.time() - start
        return done[name]

    return compare
