"""Shared fixtures for the serving suite.

Most tests drive the server with :class:`StubService` — a deterministic
stand-in exposing exactly the surface :class:`DetectionServer` uses
(``preprocess`` / ``score_normalized`` / ``threshold``) — so the async
machinery is exercised without training a language model.  The
integration module uses the real miniature demo service.
"""

import numpy as np
import pytest

from repro.preprocess import Normalizer

#: Thread count for the tests that run the threaded backend.
THREADED_WORKERS = 2


class StubService:
    """Deterministic service stub: score 0.9 for 'evil' lines, 0.1 otherwise."""

    threshold = 0.5

    def __init__(self):
        self.scored_batches: list[list[str]] = []

    def preprocess(self, raw: str, *, with_ast: bool = False):
        line = " ".join(raw.split())
        if not line or line.endswith("'"):  # simulate an unparseable line
            return None
        # no AST to hand over: the canonicalizer parses the line itself
        return (line, None) if with_ast else line

    def score_normalized(self, lines):
        self.scored_batches.append(list(lines))
        return np.array([0.9 if "evil" in line else 0.1 for line in lines])


class NormalizingService(StubService):
    """Stub with a real :class:`~repro.preprocess.Normalizer` cutting at
    *max_length* and no validity parse, so unparseable and truncated
    lines reach the canonicalizer."""

    def __init__(self, max_length: int):
        super().__init__()
        self.normalizer = Normalizer(max_length=max_length)

    def preprocess(self, raw: str, *, with_ast: bool = False):
        line = self.normalizer(raw) or None
        return (line, None) if with_ast and line else line


class TwoStageStubService(StubService):
    """Stub with a second stage: sequence score is high only when the
    composed window contains at least two 'evil' segments."""

    has_sequence_head = True

    def __init__(self):
        super().__init__()
        self.sequence_batches: list[list[str]] = []

    def score_sequence(self, texts):
        self.sequence_batches.append(list(texts))
        return np.array([0.95 if text.count("evil") >= 2 else 0.2 for text in texts])


@pytest.fixture
def stub_service():
    return StubService()


@pytest.fixture
def two_stage_stub():
    return TwoStageStubService()


@pytest.fixture(scope="session")
def demo_service():
    from repro.serving.demo import build_demo_service

    return build_demo_service()


@pytest.fixture(scope="session")
def two_stage_demo_service():
    """A fresh demo service with a fitted multi-line (sequence) head."""
    from repro.serving.demo import build_two_stage_demo_service

    return build_two_stage_demo_service()


@pytest.fixture(scope="session")
def demo_bundle(demo_service, tmp_path_factory):
    """The demo service saved as a bundle directory (for tests that load,
    swap to, or serve a bundle from disk)."""
    bundle = tmp_path_factory.mktemp("serving") / "bundle"
    demo_service.save(bundle)
    return str(bundle)
