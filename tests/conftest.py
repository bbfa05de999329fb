"""Fixtures shared across test modules."""

import time

import pytest

from darkshelf import harness


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
