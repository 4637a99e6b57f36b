"""Shared test configuration."""
import os
from pathlib import Path

import pytest
from hypothesis import settings

# ``pythonpath`` in pyproject.toml puts src/ on this process's import path;
# subprocesses (scripts, ``python -m decpir``) get it through PYTHONPATH.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)

settings.register_profile("ci", deadline=None, max_examples=50)
settings.register_profile("dev", deadline=None, max_examples=15)
settings.register_profile("thorough", deadline=None, max_examples=300)
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def hash_passes(monkeypatch):
    """The seed count of each ``SeedSequence`` hash pass, one entry a pass."""
    from decpir import rng

    passes = []
    seed_states = rng._seed_states

    def counted(seeds):
        passes.append(len(seeds))
        return seed_states(seeds)

    monkeypatch.setattr(rng, "_seed_states", counted)
    return passes
