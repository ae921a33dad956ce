"""Unit and property tests for the AST-backed canonicalization stage."""

import base64

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.loggen import ATTACK_FAMILIES, AttackSampler, EvasionMutator
from repro.preprocess import CanonicalizeResult, Canonicalizer, canonicalize_command_line
from repro.shell import parse
from repro.shell.unparse import unparse_list

canon = canonicalize_command_line


class TestDequote:
    def test_decorative_quotes_removed(self):
        assert canon("ca't' /etc/sh\"ad\"ow") == "cat /etc/shadow"

    def test_whole_word_quotes_removed(self):
        assert canon("'cat' \"passwd\"") == "cat passwd"

    def test_needed_quotes_rendered_single(self):
        assert canon('echo "a b"') == "echo 'a b'"

    def test_double_quoted_expansion_untouched(self):
        # the lexer folds "$HOME" into literal body text; the rewriter
        # detects the hidden dollar and must keep the word verbatim
        assert canon('echo "$HOME"') == 'echo "$HOME"'

    def test_backticks_untouched(self):
        assert canon("echo `id`") == "echo `id`"

    def test_command_substitution_untouched(self):
        assert canon("echo $(id)") == "echo $(id)"

    def test_escaped_space_dequoted(self):
        assert canon("cat /tmp/a\\ b") == "cat '/tmp/a b'"

    def test_assignment_shaped_name_keeps_quotes(self):
        # bash runs a command named "A=b"; dequoted it would be an assignment
        assert canon('"A=b" /bin/ls') == '"A=b" /bin/ls'
        assert canon("A'=b' x") == "A'=b' x"


class TestIfsSplitting:
    def test_braced_ifs_becomes_space(self):
        assert canon("cat${IFS}/etc/shadow") == "cat /etc/shadow"

    def test_bare_ifs_becomes_space(self):
        assert canon("cat$IFS/etc/shadow") == "cat /etc/shadow"

    def test_multiple_ifs_segments(self):
        assert canon("nc${IFS}-e${IFS}/bin/sh") == "nc -e /bin/sh"

    def test_empty_default_expansion_resolved(self):
        assert canon("cat ${x_:-}/etc/shadow") == "cat /etc/shadow"

    def test_nonempty_default_untouched(self):
        assert canon("cat ${x:-/etc}/shadow") == "cat ${x:-/etc}/shadow"


class TestWrappers:
    def test_env_stripped(self):
        assert canon("env cat /etc/shadow") == "cat /etc/shadow"

    def test_env_assignments_become_prefix(self):
        assert canon("env LC_ALL=C grep root /etc/shadow") == "LC_ALL=C grep root /etc/shadow"

    def test_env_with_flags_kept(self):
        # `env -i cmd` changes the environment — not a no-op wrapper
        assert canon("env -i cat x") == "env -i cat x"

    def test_command_stripped(self):
        assert canon("command cat /etc/shadow") == "cat /etc/shadow"

    def test_eval_spliced(self):
        assert canon("eval 'cat /etc/shadow'") == "cat /etc/shadow"

    def test_eval_multi_command_payload(self):
        assert canon("eval 'echo hi; cat /etc/shadow'") == "echo hi ; cat /etc/shadow"

    def test_eval_with_expansion_kept(self):
        assert canon("eval \"$cmd\"") == "eval \"$cmd\""

    def test_stacked_wrappers(self):
        assert canon("env command cat x") == "cat x"

    def test_command_kept_before_assignment_shaped_name(self):
        # bash runs a command named "A=b" here; bare, it reads as an assignment
        assert canon("command A=b ls -la") == "command A=b ls -la"
        assert canon('command "A=b" ls') == "command A=b ls"


class TestEvalBackground:
    """An eval'd trailing ``&`` survives the splice, or the eval stays."""

    def test_background_payload_keeps_its_ampersand(self):
        assert canon('eval "nc -lvp 4444 &"') == "nc -lvp 4444 &"

    def test_background_list_payload(self):
        assert canon('x; eval "a; b &"') == "x ; a ; b &"

    def test_ampersand_replaces_following_semicolon(self):
        assert canon('eval "a &"; b') == "a & b"
        assert canon('eval "a &";') == "a &"

    def test_ampersand_merges_with_following_ampersand(self):
        assert canon('eval "a &" & b') == "a & b"

    def test_background_and_or_payload(self):
        assert canon('eval "a && b &"') == "a && b &"

    def test_redirect_moves_onto_backgrounded_payload(self):
        assert canon('eval "a &" > out') == "a > out &"

    @pytest.mark.parametrize(
        "line",
        [
            'eval "a &" && b',
            'eval "a &" || b',
            'x && eval "a &"',
            'eval "a &" | cat',
            'cat x | eval "a &"',
        ],
    )
    def test_inexpressible_background_stays_unspliced(self, line):
        assert canon(line).startswith(("eval ", "x && eval ", "cat x | eval "))
        assert canon(canon(line)) == canon(line)


class TestPathStripping:
    def test_usr_bin_stripped(self):
        assert canon("/usr/bin/cat /etc/shadow") == "cat /etc/shadow"

    def test_bin_stripped(self):
        assert canon("/bin/sh -c ls") == "sh -c ls"

    def test_nonstandard_path_kept(self):
        assert canon("/tmp/.hidden/cat x") == "/tmp/.hidden/cat x"

    def test_nested_under_standard_dir_kept(self):
        assert canon("/usr/bin/x86_64/cat x") == "/usr/bin/x86_64/cat x"

    def test_assignment_shaped_basename_kept(self):
        assert canon("/bin/A=b x") == "/bin/A=b x"

    def test_comment_basename_kept(self):
        # "#x ; nc ..." would read as a comment and hide the listener
        line = "A=1 /bin/#x ; nc -lvp 4444"
        assert canon(line) == line


class TestFlagOrdering:
    def test_trailing_run_fully_sorted(self):
        assert canon("ls -l -a") == "ls -a -l"

    def test_value_binding_flag_stays_anchored(self):
        # -f may bind out.tar; it must not be sorted away from it
        assert canon("tar -z -x -f out.tar") == "tar -x -z -f out.tar"

    def test_single_flag_unchanged(self):
        assert canon("grep -r pattern .") == "grep -r pattern ."

    def test_non_flag_words_keep_positions(self):
        assert canon("cp -v -f a b") == "cp -v -f a b"


class TestDecodeExec:
    B64 = "Y2F0IC9ldGMvc2hhZG93"  # cat /etc/shadow

    def test_echo_base64_sh_flattened(self):
        result = Canonicalizer().canonicalize(f"echo {self.B64} | base64 -d | sh")
        assert result.text == "cat /etc/shadow"
        assert result.decoded

    def test_printf_variant(self):
        assert canon(f"printf %s {self.B64} | base64 --decode | sh") == "cat /etc/shadow"

    def test_openssl_variant(self):
        assert canon(f"echo {self.B64} | openssl enc -base64 -d | sh") == "cat /etc/shadow"

    def test_decoded_payload_is_canonicalized(self):
        payload = "ZW52IGNhdCAvZXRjL3NoYWRvdw=="  # env cat /etc/shadow
        assert canon(f"echo {payload} | base64 -d | bash") == "cat /etc/shadow"

    def test_multiline_payload_joined(self):
        payload = "ZWNobyBhCmVjaG8gYg=="  # echo a\necho b
        assert canon(f"echo {payload} | base64 -d | sh") == "echo a ; echo b"

    def test_non_base64_payload_kept(self):
        line = "echo not!!base64 | base64 -d | sh"
        result = Canonicalizer().canonicalize(line)
        assert not result.decoded
        assert "base64 -d" in result.text

    def test_decode_disabled(self):
        line = f"echo {self.B64} | base64 -d | sh"
        result = Canonicalizer(decode_base64=False).canonicalize(line)
        assert not result.decoded
        assert "base64 -d" in result.text

    def test_plain_base64_pipeline_not_flattened(self):
        # decoding to a file (no trailing shell) is not decode-exec
        line = f"echo {self.B64} | base64 -d"
        assert "base64 -d" in canon(line)

    def test_decoded_form_matches_plain_sibling(self):
        plain = Canonicalizer().canonicalize("cat /etc/shadow")
        hidden = Canonicalizer().canonicalize(f"echo {self.B64} | base64 -d | sh")
        assert hidden.text == plain.text
        assert not plain.decoded and hidden.decoded


def _decode_exec(payload: str) -> str:
    return f"echo {base64.b64encode(payload.encode()).decode()} | base64 -d | sh"


class TestDecodeExecBackground:
    """A decoded payload's trailing ``&`` survives the flattening, or the
    pipeline stays, as with ``eval``."""

    def test_background_payload_keeps_its_ampersand(self):
        assert canon("echo bmMgLWx2cCA0NDQ0ICY= | base64 -d | sh") == "nc -lvp 4444 &"

    def test_ampersand_replaces_following_semicolon(self):
        assert canon(_decode_exec("nc -lvp 4444 &") + " ; x") == "nc -lvp 4444 & x"

    def test_ampersand_merges_with_following_ampersand(self):
        assert canon(_decode_exec("a &") + " & b") == "a & b"

    def test_background_list_payload(self):
        assert canon("x ; " + _decode_exec("a ; b &")) == "x ; a ; b &"

    def test_background_and_or_payload(self):
        assert canon(_decode_exec("a && b &")) == "a && b &"

    @pytest.mark.parametrize(
        "line",
        [
            _decode_exec("a &") + " && b",
            _decode_exec("a &") + " || b",
            "x && " + _decode_exec("a &"),
        ],
    )
    def test_inexpressible_background_stays_unflattened(self, line):
        result = Canonicalizer().canonicalize(line)
        assert "base64 -d" in result.text and not result.decoded
        assert canon(result.text) == result.text


class TestFallback:
    def test_unparseable_falls_back_unchanged(self):
        line = "echo 'unterminated"
        result = Canonicalizer().canonicalize(line)
        assert result == CanonicalizeResult(
            text=line, ok=False, changed=False, reason="parse_error"
        )

    def test_truncation_classified(self):
        # a quoted word cut mid-string by the upstream max_length cap
        line = "echo 'a very long quoted payload that got c"
        result = Canonicalizer(truncation_length=len(line)).canonicalize(line)
        assert not result.ok
        assert result.reason == "truncated"

    def test_short_garbage_is_parse_error(self):
        result = Canonicalizer(truncation_length=4096).canonicalize("echo 'oops")
        assert not result.ok
        assert result.reason == "parse_error"

    def test_empty_line_passthrough(self):
        result = Canonicalizer().canonicalize("")
        assert result.ok and not result.changed and result.text == ""

    def test_never_raises_on_junk(self):
        for junk in ("((", "a |", ">", "'", '"', "x && "):
            result = Canonicalizer().canonicalize(junk)
            assert result.text == junk
            assert not result.ok


class TestConfigValidation:
    def test_max_passes_positive(self):
        with pytest.raises(ValueError):
            Canonicalizer(max_passes=0)

    def test_truncation_length_positive(self):
        with pytest.raises(ValueError):
            Canonicalizer(truncation_length=0)

    def test_already_canonical_reports_unchanged(self):
        result = Canonicalizer().canonicalize("ls -la /tmp")
        assert result.ok and not result.changed


# -- property suite --------------------------------------------------------

seeds = st.integers(min_value=0, max_value=10_000)
family_names = st.sampled_from([f.name for f in ATTACK_FAMILIES])

#: Arbitrary printable command-ish text — most of it unparseable noise,
#: which is exactly what the fallback contract must absorb.
arbitrary_lines = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=120,
)


@given(arbitrary_lines)
@settings(max_examples=200, deadline=None)
def test_canonicalize_is_total_and_idempotent(line):
    canonicalizer = Canonicalizer()
    first = canonicalizer.canonicalize(line)
    second = canonicalizer.canonicalize(first.text)
    assert second.text == first.text
    if first.ok:
        assert second.ok
        assert not second.changed


@given(family_names, st.booleans(), seeds)
@settings(max_examples=60, deadline=None)
def test_attack_lines_canonicalize_idempotently(family, inbox, seed):
    sampler = AttackSampler(np.random.default_rng(seed))
    canonicalizer = Canonicalizer()
    for line in sampler.sample(family, inbox=inbox):
        result = canonicalizer.canonicalize(line)
        again = canonicalizer.canonicalize(result.text)
        assert again.text == result.text


#: A redirect or control operator glued to a word that may start with
#: ``#`` — after a blank that ``#`` would open a comment.
operator_words = st.tuples(
    st.sampled_from(["", "cat ", "ls x ", "echo a"]),
    st.sampled_from(["<", ">", ">>", "2>", ">&", "|", "&&", ";"]),
    st.text(alphabet="#ab/.", max_size=4),
).map("".join)

@given(family_names, st.booleans(), seeds, operator_words)
@settings(max_examples=2000, deadline=None)
@example(family="port_scan", inbox=True, seed=0, extra="<#")
@example(family="port_scan", inbox=True, seed=0, extra="cat <#")
@example(family="port_scan", inbox=True, seed=0, extra="ls ># x")
@example(family="port_scan", inbox=True, seed=0, extra="echo a>#b")
@example(family="port_scan", inbox=True, seed=0, extra="a 2>#")
def test_canonical_text_is_an_unparse_fixed_point(family, inbox, seed, extra):
    # semantic preservation: the canonical form of every parseable line
    # is itself parseable, and parse -> unparse reproduces it exactly —
    # the canonicalizer only moves *within* the shell grammar
    sampler = AttackSampler(np.random.default_rng(seed))
    canonicalizer = Canonicalizer()
    for line in [*sampler.sample(family, inbox=inbox), extra]:
        result = canonicalizer.canonicalize(line)
        if not result.ok:
            continue
        assert unparse_list(parse(result.text)) == result.text


@given(family_names, seeds)
@settings(max_examples=40, deadline=None)
def test_every_evasion_variant_canonicalizes_to_its_base(family, seed):
    rng = np.random.default_rng(seed)
    sampler = AttackSampler(rng)
    mutator = EvasionMutator(rng=rng)
    canonicalizer = Canonicalizer()
    for line in sampler.sample(family, inbox=True):
        base_canonical = mutator.canonical(line)
        if base_canonical is None:
            continue
        for technique, variant in mutator.variants(line):
            assert variant != line, technique
            assert canonicalizer.canonicalize(variant).text == base_canonical
