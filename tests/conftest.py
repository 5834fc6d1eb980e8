"""Fixtures shared by the test modules."""

import pytest

from contactflows.potentials import DuallyFlatWorkspace


@pytest.fixture
def workspaces(monkeypatch):
    """Every DuallyFlatWorkspace made while the test runs, in order."""
    made, init = [], DuallyFlatWorkspace.__init__

    def recording(ws, psi):
        made.append(ws)
        init(ws, psi)

    monkeypatch.setattr(DuallyFlatWorkspace, "__init__", recording)
    return made
