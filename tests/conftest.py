"""Pytest configuration: make the tests directory importable for helpers,
and the shared ``worker_killer`` fixture.

Markers (slow, fuzz) and the tier-1 default selection live in pytest.ini.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import helpers  # noqa: E402 - needs the path above


@pytest.fixture
def worker_killer(tmp_path, monkeypatch):
    """``arm(module, name) -> sentinel``: replace the pool task function
    ``module.name`` with :func:`helpers.kill_worker_if_armed` before its pool
    starts.  Creating the returned file is fatal to the next worker that
    picks up a task."""

    def arm(module, name):
        sentinel = str(tmp_path / "kill-next-worker")
        monkeypatch.setattr(helpers, "_KILL_SENTINEL", sentinel)
        monkeypatch.setattr(helpers, "_KILL_ORIGINAL", getattr(module, name))
        monkeypatch.setattr(module, name, helpers.kill_worker_if_armed)
        return sentinel

    return arm
