"""AST-backed canonicalization of normalized command lines.

The detector scores *text*, so two functionally identical commands that
differ only in shell-level spelling (``cat /etc/shadow`` versus
``ca't' /etc/sh"ad"ow`` versus ``cat${IFS}/etc/shadow`` versus
``echo Y2F0IC9ldGMvc2hhZG93 | base64 -d | sh``) produce different token
streams — and different cache keys.  :class:`Canonicalizer` closes that
gap: it parses each line with the :mod:`repro.shell` lexer/parser and
rewrites the AST to a canonical spelling, so trivial evasion variants
collapse onto the form the model was trained on and share one score
cache entry.

Rewrites applied (all idempotent, all semantics-preserving under the
"attacker shell with default state" reading documented in the README):

- **dequote** — words whose quoting is purely decorative are reduced to
  their literal text and re-quoted only when required (shlex style).
  Words containing substitutions the lexer cannot fully account for
  (backticks, ``$VAR`` inside double quotes, non-``IFS`` expansions)
  are left untouched rather than guessed at.
- **$IFS splitting** — unquoted ``$IFS``/``${IFS}`` segments inside a
  word are resolved to word boundaries; ``${NAME:-}``-style
  empty-default expansions are resolved to empty text.
- **wrapper stripping** — no-op wrappers ``env`` (with only leading
  ``NAME=VALUE`` arguments), ``command`` and ``eval`` with fully
  literal arguments are removed and their payload spliced in place.
- **path stripping** — command names under standard binary directories
  (``/bin``, ``/usr/bin``, ``/usr/local/bin``, ``/sbin``,
  ``/usr/sbin``) are reduced to their basename.
- **flag ordering** — each contiguous run of flag words is sorted; the
  final flag of a run that is followed by a non-flag word keeps its
  place, because it may bind that word as a value (``-f file``).
- **decode-exec flattening** — pipelines of the shape
  ``echo <b64> | base64 -d | sh`` (also ``printf``/``openssl`` based
  variants) are replaced by the canonicalized decoded payload, so the
  *hidden* command is what gets scored and cached.  The synthetic
  origin is recorded on :attr:`CanonicalizeResult.decoded` (and in the
  serving ``canonicalize_decoded`` metric) rather than in the text, so
  the decoded form is byte-identical to its plainly-typed sibling.

Fallback contract: canonicalization **never raises** on the hot path.
If the input does not parse the original text passes through unchanged
with ``ok=False`` and a machine-readable ``reason`` — ``"truncated"``
when the line length indicates the upstream :class:`Normalizer` cut it
(possibly mid-quote), ``"parse_error"`` otherwise.
"""

from __future__ import annotations

import base64
import binascii
import re
from dataclasses import dataclass

from repro.errors import ShellSyntaxError
from repro.shell.ast_nodes import (
    Assignment,
    BraceGroup,
    CommandList,
    Pipeline,
    SimpleCommand,
    Word,
)
from repro.shell.lexer import Lexer, TokenKind
from repro.shell.parser import Parser
from repro.shell.unparse import unparse_list

# Characters whose presence in a raw word means quoting/expansion is in
# play and a rewrite might apply; anything else is already canonical.
_QUOTEY_CHARS = ("'", '"', "\\", "$")

# shlex.quote()'s safe set: words made of these need no quoting.
_SAFE_WORD_RE = re.compile(r"^[A-Za-z0-9_@%+=:,./-]+$")

# ${NAME:-} / ${NAME-} with an empty default expands to "" whenever NAME
# is unset — the classic empty-var word-splitting trick.
_EMPTY_DEFAULT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*:?-$")

_ASSIGNMENT_WORD_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")
# Names the parser reads by position rather than as a command name: "!"
# opens a negation, "{" / "}" a brace group, and NAME=value an assignment.
_POSITIONAL_NAME_RE = re.compile(r"[!{}]\Z|[A-Za-z_][A-Za-z0-9_]*=")

_BASE64_PAYLOAD_RE = re.compile(r"^[A-Za-z0-9+/]+={0,2}$")

# Lines made purely of safe word characters and single spaces contain no
# quoting, no expansions, no operators, no redirects, and no comments —
# the only rewrites that could still apply are wrapper stripping, path
# stripping, and flag ordering, all checkable without a parse.
_FAST_LINE_RE = re.compile(r"^[A-Za-z0-9_@%+=:,./-]+( [A-Za-z0-9_@%+=:,./-]+)*$")

_WRAPPER_NAMES = frozenset({"env", "command", "eval"})

# Command names living directly under these directories are reduced to
# their basename; anything else (e.g. /tmp/.cache.sh) is left alone.
_STANDARD_BIN_DIRS = ("/bin/", "/usr/bin/", "/usr/local/bin/", "/sbin/", "/usr/sbin/")

_DECODE_SHELLS = frozenset({"sh", "bash", "dash", "zsh", "ash", "ksh"})
_ECHO_FLAGS = frozenset({"-n", "-e", "-E"})
_PRINTF_FORMATS = frozenset({"%s", "%s\n", "%b"})
_BASE64_DECODE_FLAGS = frozenset({"-d", "--decode", "-D"})
_BASE64_EXTRA_FLAGS = frozenset({"-i", "--ignore-garbage"})

# Nested decode-exec payloads are followed at most this deep.
_MAX_DECODE_DEPTH = 2

FAILURE_REASONS = ("parse_error", "truncated")


@dataclass(frozen=True)
class CanonicalizeResult:
    """Outcome of canonicalizing one line.

    Attributes
    ----------
    text:
        The canonical form (or the input unchanged when ``ok`` is false).
    ok:
        False when the input failed to parse and fell back to itself.
    changed:
        True when ``text`` differs from the input line.
    reason:
        ``None`` on success; ``"truncated"`` when the parse failure is
        attributable to upstream ``max_length`` truncation,
        ``"parse_error"`` for genuinely unparseable text.
    decoded:
        True when a decode-exec pipeline was flattened, i.e. ``text``
        is a synthetic line recovered from an encoded payload.
    """

    text: str
    ok: bool = True
    changed: bool = False
    reason: str | None = None
    decoded: bool = False


def _render_word(text: str) -> str:
    """Render literal *text* as a shell word, quoting only when needed."""
    if text == "":
        return "''"
    if _SAFE_WORD_RE.match(text):
        return text
    return "'" + text.replace("'", "'\\''") + "'"


class Canonicalizer:
    """Rewrite normalized command lines to canonical form.

    Parameters
    ----------
    decode_base64:
        When true (default), flatten ``echo <b64> | base64 -d | sh``
        style decode-exec pipelines into their decoded payload.
    max_passes:
        Rewrite passes to run before declaring a fixed point; cascaded
        rewrites (``eval`` inside ``env`` inside a decoded payload)
        resolve one layer per pass.
    truncation_length:
        The upstream :class:`~repro.preprocess.Normalizer` character
        cap, if known.  Parse failures on lines at least this long are
        classified ``"truncated"`` instead of ``"parse_error"``.
    """

    def __init__(
        self,
        *,
        decode_base64: bool = True,
        max_passes: int = 4,
        truncation_length: int | None = None,
    ):
        if max_passes <= 0:
            raise ValueError("max_passes must be positive")
        if truncation_length is not None and truncation_length <= 0:
            raise ValueError("truncation_length must be positive")
        self.decode_base64 = decode_base64
        self.max_passes = max_passes
        self.truncation_length = truncation_length
        self._lexer = Lexer()
        self._parser = Parser()

    # ------------------------------------------------------------------
    # public API

    def canonicalize(self, line: str, ast: CommandList | None = None) -> CanonicalizeResult:
        """Return the canonical form of *line*; never raises.

        *ast* is *line* already parsed — the validity parse's
        :class:`CommandList`, handed over so a line is parsed once.  It
        is rewritten in place, so the caller must not use it afterwards.
        Without it the canonicalizer parses *line* itself.
        """
        if not line or not line.strip():
            return CanonicalizeResult(text=line)
        if _trivially_canonical(line):
            return CanonicalizeResult(text=line)
        return self._canonicalize_text(line, 0, ast)[0]

    def __call__(self, line: str, ast: CommandList | None = None) -> CanonicalizeResult:
        return self.canonicalize(line, ast)

    # ------------------------------------------------------------------
    # core loop

    def _canonicalize_text(
        self, line: str, depth: int, ast: CommandList | None = None
    ) -> tuple[CanonicalizeResult, CommandList | None]:
        """Canonicalize *line* (parsed as *ast*, if given); also return
        the rewritten AST, or ``None`` when *line* does not parse.

        Rewrites run on the one AST until its unparsed text stops
        changing.  The text is parsed again only after a pass that left
        a word the parser reads by position, so every pass sees the
        structure a parse of the previous pass's text would give.
        """
        if ast is None:
            try:
                ast = self._parser.parse(line)
            except ShellSyntaxError:
                reason = self._failure_reason(line)
                return CanonicalizeResult(text=line, ok=False, reason=reason), None
        state = {"decoded": False, "reparse": False}
        text = line
        for _ in range(self.max_passes):
            if state["reparse"]:
                # the last pass left a word the parser reads by position
                # (see _POSITIONAL_NAME_RE): continue from the parse of
                # its text, as a later canonicalize of that text would
                state["reparse"] = False
                try:
                    ast = self._parser.parse(text)
                except ShellSyntaxError:
                    ast = None
                    break
            self._rewrite_list(ast, depth, state)
            new_text = unparse_list(ast)
            if new_text == text:
                break
            text = new_text
        result = CanonicalizeResult(text=text, changed=text != line, decoded=state["decoded"])
        return result, ast

    def _failure_reason(self, line: str) -> str:
        if self.truncation_length is not None and len(line) >= self.truncation_length:
            return "truncated"
        return "parse_error"

    # ------------------------------------------------------------------
    # AST rewriting

    def _rewrite_list(self, ast: CommandList, depth: int, state: dict) -> None:
        for pipeline in ast.pipelines:
            for command in pipeline.commands:
                if isinstance(command, SimpleCommand):
                    self._rewrite_simple(command)
                    if command.name is not None and _POSITIONAL_NAME_RE.match(command.name.raw):
                        state["reparse"] = True
                else:
                    self._rewrite_list(command.body, depth, state)
                    if isinstance(command, BraceGroup) and _holds_closer(command.body):
                        state["reparse"] = True
        self._splice_evals(ast)
        if self.decode_base64 and depth < _MAX_DECODE_DEPTH:
            self._flatten_decode_exec(ast, depth, state)

    def _rewrite_simple(self, cmd: SimpleCommand) -> None:
        self._dequote_command(cmd)
        self._strip_wrappers(cmd)
        self._strip_standard_path(cmd)
        self._sort_flags(cmd)

    def _dequote_command(self, cmd: SimpleCommand) -> None:
        if cmd.name is not None:
            segments = self._rewrite_word(cmd.name)
            # a quoted "A=b" names a command; bare, it reads as an assignment
            if segments and not _ASSIGNMENT_WORD_RE.match(segments[0].raw):
                cmd.name = segments[0]
                if len(segments) > 1:
                    cmd.words[:0] = segments[1:]
        new_words: list[Word] = []
        for word in cmd.words:
            segments = self._rewrite_word(word)
            if segments is None:
                new_words.append(word)
            else:
                new_words.extend(segments)
        if new_words or cmd.name is not None or cmd.assignments or cmd.redirects:
            cmd.words = new_words
        for redirect in list(cmd.redirects):
            segments = self._rewrite_word(redirect.target)
            if segments and len(segments) == 1:
                cmd.redirects[cmd.redirects.index(redirect)] = type(redirect)(
                    operator=redirect.operator,
                    target=segments[0],
                    fd=redirect.fd,
                    position=redirect.position,
                )

    def _rewrite_word(self, word: Word) -> list[Word] | None:
        """Canonical replacement words for *word*, or ``None`` to keep it.

        An empty list means the word vanishes entirely (e.g. a bare
        ``${IFS}``).  Words containing constructs the lexer flattens
        lossily (backticks, ``$VAR`` inside double quotes) are kept
        verbatim — never guessed at.
        """
        raw = word.raw
        if not raw or not any(ch in raw for ch in _QUOTEY_CHARS):
            return None
        if "`" in raw:
            return None
        try:
            tokens = self._lexer.tokenize(raw)
        except ShellSyntaxError:
            return None
        if len(tokens) != 1 or tokens[0].kind is not TokenKind.WORD or tokens[0].value != raw:
            return None
        parts = tokens[0].parts
        # Inside double quotes the lexer folds "$VAR" into the literal
        # body text, silently consuming the "$" — if the raw dollar
        # count disagrees with the dollar-part count, an expansion hid
        # somewhere we cannot see, so do not touch the word.
        dollar_parts = sum(1 for p in parts if p.quote.startswith("$"))
        if raw.count("$") != dollar_parts:
            return None
        segments: list[list[str]] = [[]]
        for part in parts:
            if part.quote in ("", "'", '"'):
                segments[-1].append(part.text)
            elif part.quote in ("$", "${") and part.text == "IFS":
                segments.append([])
            elif part.quote == "${" and _EMPTY_DEFAULT_RE.match(part.text):
                continue
            else:
                return None
        texts = ["".join(segment) for segment in segments]
        if len(texts) > 1:
            texts = [text for text in texts if text != ""]
        rendered = [_render_word(text) for text in texts]
        if rendered == [raw]:
            return None
        return [Word(text, word.position) for text in rendered]

    def _strip_wrappers(self, cmd: SimpleCommand) -> None:
        while cmd.name is not None:
            name = cmd.name.raw
            if name == "env" and cmd.words:
                index = 0
                while index < len(cmd.words) and _ASSIGNMENT_WORD_RE.match(cmd.words[index].raw):
                    index += 1
                if index >= len(cmd.words) or cmd.words[index].is_flag:
                    break
                for word in cmd.words[:index]:
                    var, value = word.raw.split("=", 1)
                    cmd.assignments.append(Assignment(var, value, word.position))
                cmd.name = cmd.words[index]
                cmd.words = cmd.words[index + 1 :]
                continue
            if (
                name == "command"
                and cmd.words
                and not cmd.words[0].is_flag
                and not _ASSIGNMENT_WORD_RE.match(cmd.words[0].raw)
            ):
                cmd.name = cmd.words[0]
                cmd.words = cmd.words[1:]
                continue
            break

    def _strip_standard_path(self, cmd: SimpleCommand) -> None:
        if cmd.name is None:
            return
        raw = cmd.name.raw
        for prefix in _STANDARD_BIN_DIRS:
            if raw.startswith(prefix):
                basename = raw[len(prefix) :]
                # a leading "#" would turn the rest of the line into a
                # comment, and a bare NAME=value would read as an assignment
                if (
                    basename
                    and "/" not in basename
                    and basename[0] != "#"
                    and not _ASSIGNMENT_WORD_RE.match(basename)
                ):
                    cmd.name = Word(basename, cmd.name.position)
                return

    @staticmethod
    def _sort_flags(cmd: SimpleCommand) -> None:
        words = cmd.words
        out: list[Word] = []
        index = 0
        while index < len(words):
            if not words[index].is_flag:
                out.append(words[index])
                index += 1
                continue
            end = index
            while end < len(words) and words[end].is_flag:
                end += 1
            run = words[index:end]
            if len(run) > 1:
                if end < len(words):
                    # The run's final flag may bind the following word
                    # as its value (-f file): keep it anchored in place.
                    run = sorted(run[:-1], key=lambda w: w.raw) + [run[-1]]
                else:
                    run = sorted(run, key=lambda w: w.raw)
            out.extend(run)
            index = end
        cmd.words = out

    # ------------------------------------------------------------------
    # eval splicing

    def _literal_text(self, word: Word) -> str | None:
        """The fully literal text of *word*, or ``None`` if it expands."""
        raw = word.raw
        if not raw:
            return None
        if not any(ch in raw for ch in _QUOTEY_CHARS):
            return raw
        if "`" in raw or "$" in raw:
            return None
        try:
            tokens = self._lexer.tokenize(raw)
        except ShellSyntaxError:
            return None
        if len(tokens) != 1 or tokens[0].kind is not TokenKind.WORD or tokens[0].value != raw:
            return None
        parts = tokens[0].parts
        if any(part.quote not in ("", "'", '"') for part in parts):
            return None
        return "".join(part.text for part in parts)

    def _eval_payload(self, cmd: SimpleCommand) -> CommandList | None:
        if cmd.command_name != "eval" or not cmd.words or cmd.assignments:
            return None
        texts = []
        for word in cmd.words:
            text = self._literal_text(word)
            if text is None:
                return None
            texts.append(text)
        joined = " ".join(texts)
        if not joined.strip():
            return None
        try:
            return self._parser.parse(joined)
        except ShellSyntaxError:
            return None

    def _splice_evals(self, ast: CommandList) -> None:
        pl_index = 0
        while pl_index < len(ast.pipelines):
            pipeline = ast.pipelines[pl_index]
            spliced_list = False
            for cmd_index, command in enumerate(pipeline.commands):
                if not isinstance(command, SimpleCommand):
                    continue
                inner = self._eval_payload(command)
                if inner is None:
                    continue
                background = inner.terminator == "&"
                if background and not (
                    len(pipeline.commands) == 1 and _can_background(ast, pl_index, inner)
                ):
                    continue
                if len(inner.pipelines) == 1 and not inner.pipelines[0].negated:
                    spliced = self._splice_into_pipeline(
                        pipeline, cmd_index, inner.pipelines[0], command
                    )
                    if spliced and background:
                        _background(ast, pl_index)
                    break
                if (
                    len(pipeline.commands) == 1
                    and not pipeline.negated
                    and not command.redirects
                ):
                    _replace_pipeline(ast, pl_index, inner)
                    if background:
                        _background(ast, pl_index + len(inner.pipelines) - 1)
                    spliced_list = True
                    break
            if not spliced_list:
                pl_index += 1

    @staticmethod
    def _splice_into_pipeline(
        pipeline: Pipeline, index: int, inner: Pipeline, replaced: SimpleCommand
    ) -> bool:
        """Put *inner*'s commands in place of ``pipeline.commands[index]``;
        False when *replaced*'s redirects cannot move onto them."""
        commands = list(inner.commands)
        if replaced.redirects:
            if len(commands) != 1 or not isinstance(commands[0], SimpleCommand):
                return False
            commands[0].redirects.extend(replaced.redirects)
        n = len(pipeline.commands)
        stderr = list(pipeline.pipe_stderr) + [False] * (n - 1 - len(pipeline.pipe_stderr))
        inner_stderr = list(inner.pipe_stderr) + [False] * (
            len(commands) - 1 - len(inner.pipe_stderr)
        )
        pipeline.commands[index : index + 1] = commands
        pipeline.pipe_stderr = stderr[:index] + inner_stderr + stderr[index:]
        return True

    # ------------------------------------------------------------------
    # decode-exec flattening

    def _flatten_decode_exec(self, ast: CommandList, depth: int, state: dict) -> None:
        pl_index = 0
        while pl_index < len(ast.pipelines):
            inner = self._decode_pipeline(ast.pipelines[pl_index], depth)
            background = inner is not None and inner.terminator == "&"
            if inner is None or (background and not _can_background(ast, pl_index, inner)):
                pl_index += 1
                continue
            state["decoded"] = True
            _replace_pipeline(ast, pl_index, inner)
            pl_index += len(inner.pipelines)
            if background:
                _background(ast, pl_index - 1)

    def _decode_pipeline(self, pipeline: Pipeline, depth: int) -> CommandList | None:
        if pipeline.negated or len(pipeline.commands) < 3:
            return None
        commands = pipeline.commands
        if not all(isinstance(c, SimpleCommand) for c in commands):
            return None
        if any(c.assignments or c.redirects for c in commands):
            return None
        payload = self._emitter_payload(commands[0])
        if payload is None or not _BASE64_PAYLOAD_RE.match(payload):
            return None
        if not all(self._is_base64_decoder(c) for c in commands[1:-1]):
            return None
        shell = commands[-1]
        if shell.command_name not in _DECODE_SHELLS:
            return None
        if any(word.raw != "-i" for word in shell.words):
            return None
        try:
            decoded = base64.b64decode(payload, validate=True).decode("utf-8")
        except (binascii.Error, ValueError, UnicodeDecodeError):
            return None
        text = decoded.strip()
        if not text:
            return None
        if "\n" in text:
            lines = [part.strip() for part in text.split("\n") if part.strip()]
            text = " ; ".join(lines)
        return self._canonicalize_text(text, depth + 1)[1]

    def _emitter_payload(self, cmd: SimpleCommand) -> str | None:
        name = cmd.command_name
        if name == "echo":
            words = list(cmd.words)
            while words and words[0].raw in _ECHO_FLAGS:
                words.pop(0)
            if len(words) != 1:
                return None
            return self._literal_text(words[0])
        if name == "printf":
            if len(cmd.words) == 1:
                return self._literal_text(cmd.words[0])
            if len(cmd.words) == 2:
                fmt = self._literal_text(cmd.words[0])
                if fmt is None or fmt not in _PRINTF_FORMATS:
                    return None
                return self._literal_text(cmd.words[1])
        return None

    @staticmethod
    def _is_base64_decoder(cmd: SimpleCommand) -> bool:
        name = cmd.command_name
        raws = [word.raw for word in cmd.words]
        if name == "base64":
            allowed = _BASE64_DECODE_FLAGS | _BASE64_EXTRA_FLAGS
            return bool(raws) and all(r in allowed for r in raws) and any(
                r in _BASE64_DECODE_FLAGS for r in raws
            )
        if name == "openssl":
            if not raws:
                return False
            if raws[0] == "base64":
                return "-d" in raws and all(r in ("base64", "-d", "-A") for r in raws)
            if raws[0] == "enc":
                return "-d" in raws and ("-base64" in raws or "-a" in raws) and all(
                    r in ("enc", "-d", "-base64", "-a", "-A") for r in raws
                )
        return False


def _is_flag_text(word: str) -> bool:
    """Mirror of :attr:`Word.is_flag` for raw strings (fast path)."""
    return word.startswith("-") and word not in ("-", "--")


def _trivially_canonical(line: str) -> bool:
    """True when *line* is provably a fixed point without parsing.

    The hot-path shortcut: normalized telemetry is overwhelmingly plain
    (``cmd --flag value ...``), and for lines made purely of safe word
    characters the full grammar machinery proves nothing the checks
    below don't — no quoting, expansion, operator, redirect, or comment
    can hide in the safe alphabet, so only wrapper stripping, standard-
    path stripping, and flag ordering could still rewrite the line.
    Returns False (deferring to the real parse) on anything unusual.
    """
    if not _FAST_LINE_RE.match(line):
        return False
    words = line.split(" ")
    name_index = 0
    while name_index < len(words) and _ASSIGNMENT_WORD_RE.match(words[name_index]):
        name_index += 1
    if name_index >= len(words):
        return False
    name = words[name_index]
    if name.startswith("-") or name.startswith(_STANDARD_BIN_DIRS):
        return False
    if any(word in _WRAPPER_NAMES for word in words):
        return False
    # every contiguous flag run must already be in canonical order (the
    # final flag of a non-terminal run stays anchored — see _sort_flags)
    index, n = 1, len(words)
    while index < n:
        if not _is_flag_text(words[index]):
            index += 1
            continue
        end = index
        while end < n and _is_flag_text(words[end]):
            end += 1
        run = words[index:end] if end == n else words[index : end - 1]
        if any(a > b for a, b in zip(run, run[1:])):
            return False
        index = end
    return True


def _holds_closer(body: CommandList) -> bool:
    """True when a spliced ``}`` word sits directly in a brace group's
    *body*, where a parse would read it as the group's end."""
    return any(
        isinstance(command, SimpleCommand)
        and any(word.raw == "}" for word in [command.name, *command.words] if word)
        for pipeline in body.pipelines
        for command in pipeline.commands
    )


def _can_background(ast: CommandList, index: int, inner: CommandList) -> bool:
    """True when *inner*'s trailing ``&`` can end ``ast.pipelines[index]``
    in place of the ``eval`` and still background exactly what it did:
    ``a & && b`` does not parse, and after a ``&&``/``||`` the ``&``
    would take the outer and-or list with it."""
    following = ast.operators[index] if index < len(ast.operators) else None
    if following in ("&&", "||"):
        return False
    preceding = ast.operators[index - 1] if index > 0 else None
    return preceding not in ("&&", "||") or any(op in (";", "&") for op in inner.operators)


def _background(ast: CommandList, index: int) -> None:
    """End ``ast.pipelines[index]`` with ``&`` (its operator or the
    list's terminator)."""
    if index < len(ast.operators):
        ast.operators[index] = "&"
    else:
        ast.terminator = "&"


def _replace_pipeline(ast: CommandList, index: int, inner: CommandList) -> None:
    """Splice *inner*'s pipelines in place of ``ast.pipelines[index]``."""
    ast.pipelines[index : index + 1] = inner.pipelines
    ast.operators[index:index] = list(inner.operators)


def canonicalize_command_line(line: str) -> str:
    """Canonicalize *line* with default settings, returning the text."""
    return Canonicalizer().canonicalize(line).text
