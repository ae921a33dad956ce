"""AST unparsing and structural canonicalization.

Two related utilities on top of the parser:

- :func:`unparse` — reconstruct canonical text from an AST (single
  spaces, normalized operators).  ``parse(unparse(parse(x)))`` is a
  fixed point, which makes it a whitespace/formatting canonicalizer.
- :func:`structural_key` — a dedup key that keeps command names, flags
  and operators but abstracts argument *values* (paths, hosts, numbers
  become placeholders).  The paper de-duplicates the test set exactly;
  structural dedup is the natural ablation (collapsing argument-only
  variants of the same behaviour) and is exercised by the ablation
  benchmarks.
"""

from __future__ import annotations

import re

from repro.errors import ShellSyntaxError
from repro.shell.ast_nodes import (
    BraceGroup,
    Command,
    CommandList,
    Pipeline,
    Redirect,
    SimpleCommand,
    Subshell,
)
from repro.shell.parser import Parser

_NUMBER_RE = re.compile(r"^\d+$")
_PATH_RE = re.compile(r"^~?/")
_HOSTISH_RE = re.compile(r"^\d{1,3}(\.\d{1,3}){3}(:\d+)?$")
_URL_RE = re.compile(r"^[a-z][a-z0-9+.-]*://", re.IGNORECASE)


def _after(operator: str, text: str) -> str:
    """*operator* followed by *text*, single-spaced.

    A ``#`` after a blank starts a comment, so a word that begins with
    ``#`` (it only lexed as a word because it touched the operator) is
    glued back on instead — the canonical text must re-lex the same.
    """
    return f"{operator}{text}" if text.startswith("#") else f"{operator} {text}"


def _unparse_redirect(redirect: Redirect) -> str:
    prefix = str(redirect.fd) if redirect.fd is not None else ""
    return _after(f"{prefix}{redirect.operator}", redirect.target.raw)


def _unparse_command(command: Command) -> str:
    if isinstance(command, SimpleCommand):
        parts: list[str] = [assignment.raw for assignment in command.assignments]
        if command.name is not None:
            parts.append(command.name.raw)
        parts.extend(word.raw for word in command.words)
        parts.extend(_unparse_redirect(r) for r in command.redirects)
        return " ".join(parts)
    if isinstance(command, Subshell):
        body = unparse_list(command.body)
        tail = "".join(f" {_unparse_redirect(r)}" for r in command.redirects)
        return f"({body}){tail}"
    if isinstance(command, BraceGroup):
        body = unparse_list(command.body).rstrip(";")
        tail = "".join(f" {_unparse_redirect(r)}" for r in command.redirects)
        return f"{{ {body}; }}{tail}"
    raise TypeError(f"unknown command node {type(command).__name__}")


def _unparse_pipeline(pipeline: Pipeline) -> str:
    parts = [_unparse_command(pipeline.commands[0])]
    for index, command in enumerate(pipeline.commands[1:]):
        operator = "|&" if index < len(pipeline.pipe_stderr) and pipeline.pipe_stderr[index] else "|"
        parts.append(_after(operator, _unparse_command(command)))
    text = " ".join(parts)
    return f"! {text}" if pipeline.negated else text


def unparse_list(ast: CommandList) -> str:
    """Reconstruct canonical text from a :class:`CommandList`."""
    pieces = [_unparse_pipeline(ast.pipelines[0])]
    for operator, pipeline in zip(ast.operators, ast.pipelines[1:]):
        pieces.append(_after(operator, _unparse_pipeline(pipeline)))
    text = " ".join(pieces)
    if ast.terminator == "&":
        text += " &"
    elif ast.terminator == ";":
        text += ";"
    return text


def unparse(line_or_ast: str | CommandList, parser: Parser | None = None) -> str:
    """Canonicalize *line_or_ast* (parsing first when given text).

    Raises
    ------
    ShellSyntaxError
        If text input does not parse.
    """
    if isinstance(line_or_ast, CommandList):
        return unparse_list(line_or_ast)
    ast = (parser or Parser()).parse(line_or_ast)
    return unparse_list(ast)


def _abstract_word(word: str) -> str:
    """Replace value-like words with type placeholders."""
    if word.startswith("-"):
        return word  # flags are structure
    if _URL_RE.match(word):
        return "<url>"
    if _HOSTISH_RE.match(word):
        return "<host>"
    if _NUMBER_RE.match(word):
        return "<n>"
    if _PATH_RE.match(word) or "/" in word:
        return "<path>"
    if word.startswith(("'", '"')):
        return "<str>"
    return word


def _structural_command(command: Command) -> str:
    if isinstance(command, SimpleCommand):
        parts: list[str] = [f"{a.name}=<v>" for a in command.assignments]
        if command.name is not None:
            parts.append(command.name.raw.rsplit("/", 1)[-1])
        parts.extend(_abstract_word(word.raw) for word in command.words)
        # redirect targets are always values: keep bare fd digits (2>&1),
        # abstract every file target
        parts.extend(
            f"{r.operator}{r.target.raw if _NUMBER_RE.match(r.target.raw) else '<path>'}"
            for r in command.redirects
        )
        return " ".join(parts)
    if isinstance(command, Subshell):
        return f"({structural_key_list(command.body)})"
    if isinstance(command, BraceGroup):
        return f"{{{structural_key_list(command.body)}}}"
    raise TypeError(f"unknown command node {type(command).__name__}")


def structural_key_list(ast: CommandList) -> str:
    """The structural dedup key of a parsed command list."""
    pieces = []
    for pipeline in ast.pipelines:
        pieces.append(" | ".join(_structural_command(c) for c in pipeline.commands))
    return " ; ".join(pieces)


def structural_key(line: str, parser: Parser | None = None) -> str:
    """Structural dedup key for raw text; unparseable lines key to themselves."""
    try:
        ast = (parser or Parser()).parse(line)
    except ShellSyntaxError:
        return line
    return structural_key_list(ast)
