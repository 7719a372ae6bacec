"""Fixtures that more than one test module uses."""

import pytest


@pytest.fixture
def isolated_cwd(tmp_path, monkeypatch):
    """Keep a test away from the repository directory and the real
    environment's output override."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NETSEL_OUT_DIR", raising=False)
