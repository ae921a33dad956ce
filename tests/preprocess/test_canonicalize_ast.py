"""Differential: rewriting one AST to a fixed point equals the text loop.

The canonicalizer rewrites the AST it is given (or parses once itself)
until the unparsed text stops changing.  It used to parse, rewrite and
unparse, then parse that output again, until the text stopped changing.
:class:`TextLoopCanonicalizer` keeps that loop, test-local, and every
outcome field must agree with it — with the validity parse's AST handed
over and without it.
"""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ShellSyntaxError
from repro.loggen import AttackSampler
from repro.loggen.evasion import build_evasion_corpus
from repro.loggen.fleet import FleetConfig, FleetSimulator
from repro.preprocess import CanonicalizeResult, Canonicalizer, Normalizer
from repro.shell import CommandLineValidator
from repro.shell.unparse import unparse_list
from tests.preprocess.test_canonicalize import (
    arbitrary_lines,
    family_names,
    operator_words,
    seeds,
)


class TextLoopCanonicalizer(Canonicalizer):
    """The re-parsing loop: parse → rewrite → unparse, until stable."""

    def _canonicalize_text(self, line, depth, ast=None):
        state = {"decoded": False, "reparse": False}
        text = line
        ok = True
        reason = None
        for _ in range(self.max_passes):
            try:
                ast = self._parser.parse(text)
            except ShellSyntaxError:
                if text == line:
                    ok = False
                    reason = self._failure_reason(line)
                break
            self._rewrite_list(ast, depth, state)
            new_text = unparse_list(ast)
            if new_text == text:
                break
            text = new_text
        result = CanonicalizeResult(
            text=text, ok=ok, changed=text != line, reason=reason, decoded=state["decoded"]
        )
        # a decoded payload was spliced in as the parse of its canonical text
        final = None
        if ok:
            try:
                final = self._parser.parse(text)
            except ShellSyntaxError:
                pass
        return result, final


validator = CommandLineValidator()


def assert_same_outcome(line: str, truncation_length: int | None = None) -> None:
    want = TextLoopCanonicalizer(truncation_length=truncation_length).canonicalize(line)
    canonicalizer = Canonicalizer(truncation_length=truncation_length)
    assert canonicalizer.canonicalize(line) == want
    assert canonicalizer.canonicalize(line, validator.parse_or_none(line)) == want


def stream_lines(seed: int, attack_session_rate: float | None) -> list[str]:
    """Distinct normalized lines of a seeded fleet stream."""
    simulator = FleetSimulator(FleetConfig(seed=seed, n_users=40))
    records = simulator.generate(
        datetime(2024, 3, 4),
        days=1,
        target_lines=1500,
        attack_session_rate=attack_session_rate,
    )
    normalizer = Normalizer()
    return list(dict.fromkeys(line for line in map(normalizer, (r.line for r in records)) if line))


def test_evasion_corpus():
    for case in build_evasion_corpus(seed=0):
        assert_same_outcome(case.variant)
        assert_same_outcome(case.base)


@pytest.mark.parametrize(
    "seed,attack_session_rate", [(0, None), (1, 0.25)], ids=["natural", "campaign"]
)
def test_seeded_streams(seed, attack_session_rate):
    lines = stream_lines(seed, attack_session_rate)
    assert len(lines) > 500
    for line in lines:
        assert_same_outcome(line, truncation_length=Normalizer().max_length)


@given(st.one_of(arbitrary_lines, operator_words))
@settings(max_examples=500, deadline=None)
# rewrites that leave a word the parser reads by position
@example('"A=b" /bin/ls')
@example("command A=b /usr/bin/cat x")
@example("env 2> x ! eval base64 -d")
@example("env { /bin/ls; }")
@example('{ eval "echo }" ; }')
@example("{ eval /bin/ls & }")
@example("A=1 /bin/#x ; nc -lvp 4444")
# an eval'd trailing "&" carried into the outer list
@example('x; eval "a; b &"')
@example('eval "nc -lvp 4444 &" ; y')
def test_arbitrary_lines(line):
    assert_same_outcome(line)


@given(family_names, st.booleans(), seeds)
@settings(max_examples=60, deadline=None)
def test_attack_lines(family, inbox, seed):
    for line in AttackSampler(np.random.default_rng(seed)).sample(family, inbox=inbox):
        assert_same_outcome(line)
