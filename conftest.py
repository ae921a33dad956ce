"""Repo-root pytest configuration.

Hypothesis runs under a derandomized profile: every run draws the same
examples, so a false property fails every time rather than sometimes
(``--hypothesis-profile`` still selects another one).

At session end nothing the suite started may outlive it: no child
process and no new ``/dev/shm`` segment of this user may remain.  A
test that starts a subprocess reaps it itself.
"""

import importlib.util
import multiprocessing
import os
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


# the benchmark's own leak probe; bench/ is a script directory, not a package
_spec = importlib.util.spec_from_file_location("bench_run", Path(__file__).parent / "bench" / "run.py")
_bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench_run)
_shm_segments = _bench_run._shm_segments
_SHM_BEFORE = pytest.StashKey[set]()


def pytest_sessionstart(session):
    session.config.stash[_SHM_BEFORE] = _shm_segments()


def pytest_sessionfinish(session, exitstatus):
    children = [child.name for child in multiprocessing.active_children()]
    uid = os.getuid()
    segments = []
    for name in sorted(_shm_segments() - session.config.stash[_SHM_BEFORE]):
        try:
            if os.stat(f"/dev/shm/{name}").st_uid == uid:
                segments.append(name)
        except OSError:
            pass  # unlinked meanwhile
    assert not children, f"child processes outlived the test session: {children}"
    assert not segments, f"/dev/shm segments outlived the test session: {segments}"
