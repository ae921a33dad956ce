"""The run-based lexer against the character-at-a-time reference.

Every input must give the same token list — kind, value, position and
parts — or the same :class:`ShellSyntaxError` message and position from
:class:`repro.shell.lexer.Lexer` and from ``reference_lexer.Lexer``, the
lexer it replaced.
"""

from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShellSyntaxError
from repro.loggen.evasion import build_evasion_corpus
from repro.loggen.fleet import FleetConfig, FleetSimulator
from repro.shell import chars
from repro.shell.lexer import Lexer
from tests.shell import reference_lexer

_LEXER = Lexer()
_REFERENCE = reference_lexer.Lexer()


def outcome(lexer, line: str):
    """The tokens of *line*, or the error it raises as (message, position)."""
    try:
        return lexer.tokenize(line)
    except ShellSyntaxError as exc:
        return ("error", exc.message, exc.position)


def assert_same(line: str) -> None:
    assert outcome(_LEXER, line) == outcome(_REFERENCE, line), repr(line)


def _fleet_lines(seed: int, count: int, attack_session_rate: float | None = None) -> list[str]:
    # the generator behind the serving benchmark's natural and campaign streams
    simulator = FleetSimulator(FleetConfig(seed=seed, n_users=480))
    data = simulator.generate(
        datetime(2022, 6, 1), days=1, target_lines=count, attack_session_rate=attack_session_rate
    )
    return [record.line for record in list(data)[:count]]


@pytest.mark.parametrize("seed", [0, 1])
def test_natural_stream_lines(seed):
    for line in _fleet_lines(seed, 3000):
        assert_same(line)


@pytest.mark.parametrize("seed", [0, 1])
def test_campaign_stream_lines(seed):
    for line in _fleet_lines(seed, 2000, attack_session_rate=0.25):
        assert_same(line)


@pytest.mark.parametrize("seed", [0, 1])
def test_evasion_corpus(seed):
    for case in build_evasion_corpus(seed):
        assert_same(case.base)
        assert_same(case.variant)


@pytest.mark.parametrize(
    "line",
    [
        "echo 'abc",
        "echo abc'",
        'echo "abc',
        'echo "a\\',
        'echo "$(id)',
        'echo "`id',
        "echo `id",
        "echo `id\\",
        "echo $(id",
        "echo $(echo (a)",
        "echo $((1+2)",
        "echo $((1+2)) $((3",
        "echo ${HOME",
        "echo ${a:-'}'",
        'echo $(printf "%s" ")"',
        "diff <(ls a",
        "cat >(tee x",
        "echo a\\",
        "x=$((1)",
        "echo $((1)x",
        'echo "$((1)"',
        "cat << ",
        "cat <<- ;",
        "cat <<\tEOF",
        "cat <<\nEOF",
        "cat <<<(x)",
        "a\n#b",
        "a;#b",
        "a #b 'c",
        "#!/bin/sh",
        "2>&1 3<x 4>>y",
        "echo ²> x",
        "echo $² $٣ $_x1 $- $?",
        'echo "a`id`b" "`"',
        'echo "x$(id)`y`\\z$HOME"',
    ],
)
def test_unterminated_and_edge_cases(line):
    assert_same(line)


def test_longest_unquoted_word():
    # 4096 characters is the normalizer's default max_length
    word = ("abc/DEF-0.9_x:y,z@w%+=~!#*?[]{}" * 200)[:4096]
    assert len(word) == 4096
    assert_same(word)
    assert_same("echo " + word[:4091])
    assert_same("\\" + word[:4095])
    assert_same(word[:2048] + "'" + word[:2047] + "'")


def test_longest_quoted_words():
    body = "a b\tc" * 819
    assert_same("'" + body + "'")
    assert_same('"' + body + '"')
    assert_same('"' + "x\\" * 2047 + '"')


#: Everything that makes the lexer leave a plain run, and what follows it.
_SPECIAL = [
    "'",
    '"',
    "\\",
    "$",
    "$(",
    "${",
    "$((",
    "`",
    "<(",
    ">(",
    "#",
    " ",
    "\t",
    "\n",
    "}",
    "))",
    *chars.OPERATORS,
]
_PLAIN = st.text(alphabet="abxyz019_-./=:@%é²", min_size=1, max_size=4)
_LINES = st.lists(st.one_of(st.sampled_from(_SPECIAL), _PLAIN), max_size=16).map("".join)


@given(_LINES)
@settings(max_examples=1000, deadline=None)
def test_special_alphabet(line):
    assert_same(line)


@given(_LINES)
@settings(max_examples=500, deadline=None)
def test_special_alphabet_inside_double_quotes(line):
    assert_same('echo "' + line + '"')
