"""The character-at-a-time shell lexer, kept as a test-only reference.

:mod:`repro.shell.lexer` scans runs of characters with precompiled
regexes.  This module is the lexer it replaced, copied verbatim from
``class _Scanner`` down, so ``test_lexer_differential.py`` can hold the
run-based scan to the exact tokens and errors of the original.  Only two
things differ from the original module: the token types are imported
from :mod:`repro.shell.lexer` (so tokens compare with ``==``), and the
``chars`` tables and helpers the original called are copied here, so a
later edit of :mod:`repro.shell.chars` cannot move the reference along
with the lexer under test.
"""

from __future__ import annotations

from repro.errors import ShellSyntaxError
from repro.shell.lexer import Token, TokenKind, WordPart


class chars:
    """The character helpers of ``repro.shell.chars`` the original used."""

    OPERATORS = (
        "<<<",
        "<<-",
        "&&",
        "||",
        ";;",
        "<<",
        ">>",
        "<&",
        ">&",
        "<>",
        "|&",
        ">|",
        "|",
        "&",
        ";",
        "<",
        ">",
        "(",
        ")",
    )
    METACHARACTERS = frozenset("|&;<>() \t\n")
    NAME_FIRST = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
    NAME_REST = NAME_FIRST | frozenset("0123456789")

    @staticmethod
    def is_metacharacter(ch: str) -> bool:
        return ch in chars.METACHARACTERS

    @staticmethod
    def is_blank(ch: str) -> bool:
        return ch in (" ", "\t")

    @staticmethod
    def match_operator(text: str, pos: int) -> str | None:
        for op in chars.OPERATORS:
            if text.startswith(op, pos):
                return op
        return None


class _Scanner:
    """Stateful character scanner shared by the lexing routines."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def advance(self, count: int = 1) -> str:
        value = self.text[self.pos : self.pos + count]
        self.pos += count
        return value

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.text)


class Lexer:
    """Tokenize shell command lines.

    Example
    -------
    >>> [t.value for t in Lexer().tokenize("ls -la | grep foo")]
    ['ls', '-la', '|', 'grep', 'foo']
    """

    def tokenize(self, line: str) -> list[Token]:
        """Tokenize *line* into a list of tokens (without the EOF token).

        Raises
        ------
        ShellSyntaxError
            If a quote, command substitution, or parameter expansion is
            left unterminated.
        """
        scanner = _Scanner(line)
        tokens: list[Token] = []
        while not scanner.exhausted:
            ch = scanner.peek()
            if chars.is_blank(ch) or ch == "\n":
                scanner.advance()
                continue
            if ch == "#" and self._at_word_boundary(tokens, scanner):
                start = scanner.pos
                comment = scanner.advance(len(scanner.text) - scanner.pos)
                tokens.append(Token(TokenKind.COMMENT, comment, start))
                continue
            if ch in ("<", ">") and scanner.peek(1) == "(":
                # process substitution <(cmd) / >(cmd): lexes as one word
                tokens.append(self._lex_word(scanner))
                continue
            operator = chars.match_operator(scanner.text, scanner.pos)
            if operator is not None:
                start = scanner.pos
                scanner.advance(len(operator))
                tokens.append(Token(TokenKind.OPERATOR, operator, start))
                if operator in ("<<", "<<-"):
                    self._consume_heredoc_body(scanner, tokens)
                continue
            token = self._lex_word(scanner)
            # A bare digit string immediately followed by < or > is an
            # IO number (file-descriptor prefix), e.g. ``2>``.
            if token.value.isdigit() and scanner.peek() in ("<", ">"):
                token = Token(TokenKind.IO_NUMBER, token.value, token.position)
            tokens.append(token)
        return tokens

    @staticmethod
    def _at_word_boundary(tokens: list[Token], scanner: _Scanner) -> bool:
        """Comments only start when preceded by whitespace or line start."""
        if scanner.pos == 0:
            return True
        return chars.is_blank(scanner.text[scanner.pos - 1])

    def _consume_heredoc_body(self, scanner: _Scanner, tokens: list[Token]) -> None:
        """Consume a here-document delimiter word (body handling is lexical).

        Single-line logs rarely carry heredoc bodies; we lex the delimiter
        word so parsing can continue, treating the rest of the line
        normally (matching how ``bashlex`` treats one-line input).
        """
        while chars.is_blank(scanner.peek()):
            scanner.advance()
        if scanner.exhausted or chars.match_operator(scanner.text, scanner.pos):
            raise ShellSyntaxError("here-document requires a delimiter word", scanner.pos, scanner.text)
        tokens.append(self._lex_word(scanner))

    def _lex_word(self, scanner: _Scanner) -> Token:
        """Lex one word, honouring quotes, escapes and substitutions."""
        start = scanner.pos
        raw: list[str] = []
        parts: list[WordPart] = []
        while not scanner.exhausted:
            ch = scanner.peek()
            if ch in ("<", ">") and scanner.peek(1) == "(":
                # process substitution embedded in (or starting) a word
                marker = scanner.advance()
                raw.append(marker)
                body = self._lex_balanced(scanner, raw, "(", ")", scanner.pos - 1)
                parts.append(WordPart(body, marker + "("))
                continue
            if chars.is_metacharacter(ch):
                break
            if ch == "\\":
                scanner.advance()
                if scanner.exhausted:
                    # Trailing backslash: line continuation in a real
                    # shell; in one-line logs we keep it literally.
                    raw.append("\\")
                    parts.append(WordPart("\\", ""))
                    break
                escaped = scanner.advance()
                raw.append("\\" + escaped)
                parts.append(WordPart(escaped, ""))
            elif ch == "'":
                parts.append(WordPart(self._lex_single_quote(scanner, raw), "'"))
            elif ch == '"':
                parts.append(WordPart(self._lex_double_quote(scanner, raw), '"'))
            elif ch == "`":
                parts.append(WordPart(self._lex_backtick(scanner, raw), "`"))
            elif ch == "$":
                parts.append(self._lex_dollar(scanner, raw))
            else:
                raw.append(scanner.advance())
                if parts and parts[-1].quote == "" and not parts[-1].text.startswith("\\"):
                    parts[-1] = WordPart(parts[-1].text + raw[-1], "")
                else:
                    parts.append(WordPart(raw[-1], ""))
        return Token(TokenKind.WORD, "".join(raw), start, tuple(parts))

    def _lex_single_quote(self, scanner: _Scanner, raw: list[str]) -> str:
        start = scanner.pos
        raw.append(scanner.advance())  # opening '
        body: list[str] = []
        while True:
            if scanner.exhausted:
                raise ShellSyntaxError("unterminated single quote", start, scanner.text)
            ch = scanner.advance()
            raw.append(ch)
            if ch == "'":
                return "".join(body)
            body.append(ch)

    def _lex_double_quote(self, scanner: _Scanner, raw: list[str]) -> str:
        start = scanner.pos
        raw.append(scanner.advance())  # opening "
        body: list[str] = []
        while True:
            if scanner.exhausted:
                raise ShellSyntaxError("unterminated double quote", start, scanner.text)
            ch = scanner.peek()
            if ch == '"':
                raw.append(scanner.advance())
                return "".join(body)
            if ch == "\\":
                scanner.advance()
                if scanner.exhausted:
                    raise ShellSyntaxError("unterminated double quote", start, scanner.text)
                escaped = scanner.advance()
                raw.append("\\" + escaped)
                body.append(escaped)
            elif ch == "$":
                part = self._lex_dollar(scanner, raw)
                body.append(part.text)
            elif ch == "`":
                body.append(self._lex_backtick(scanner, raw))
            else:
                raw.append(scanner.advance())
                body.append(ch)

    def _lex_backtick(self, scanner: _Scanner, raw: list[str]) -> str:
        start = scanner.pos
        raw.append(scanner.advance())  # opening `
        body: list[str] = []
        while True:
            if scanner.exhausted:
                raise ShellSyntaxError("unterminated backquote substitution", start, scanner.text)
            ch = scanner.advance()
            raw.append(ch)
            if ch == "`":
                return "".join(body)
            if ch == "\\" and not scanner.exhausted:
                escaped = scanner.advance()
                raw.append(escaped)
                body.append(escaped)
            else:
                body.append(ch)

    def _lex_dollar(self, scanner: _Scanner, raw: list[str]) -> WordPart:
        start = scanner.pos
        raw.append(scanner.advance())  # the $
        ch = scanner.peek()
        if ch == "(":
            if scanner.peek(1) == "(":
                body = self._lex_balanced(scanner, raw, "((", "))", start)
                return WordPart(body, "$((")
            body = self._lex_balanced(scanner, raw, "(", ")", start)
            return WordPart(body, "$(")
        if ch == "{":
            body = self._lex_balanced(scanner, raw, "{", "}", start)
            return WordPart(body, "${")
        # Simple $NAME or positional/special parameter; lex greedily.
        name: list[str] = []
        if ch and (ch in chars.NAME_FIRST or ch.isdigit() or ch in "?$!#@*-"):
            name.append(scanner.advance())
            raw.append(name[-1])
            if name[-1] in chars.NAME_FIRST:
                while scanner.peek() and scanner.peek() in chars.NAME_REST:
                    name.append(scanner.advance())
                    raw.append(name[-1])
        return WordPart("".join(name), "$")

    def _lex_balanced(self, scanner: _Scanner, raw: list[str], opener: str, closer: str, start: int) -> str:
        """Lex a balanced ``$(...)``/``${...}``/``$((...))`` construct."""
        raw.append(scanner.advance(len(opener)))
        depth = 1
        body: list[str] = []
        open_ch, close_ch = opener[0], closer[0]
        while True:
            if scanner.exhausted:
                raise ShellSyntaxError(f"unterminated ${opener}...{closer} construct", start, scanner.text)
            ch = scanner.peek()
            if ch == "\\":
                raw.append(scanner.advance())
                if not scanner.exhausted:
                    escaped = scanner.advance()
                    raw.append(escaped)
                    body.append(escaped)
                continue
            if ch == "'":
                body.append(self._lex_single_quote(scanner, raw))
                continue
            if ch == '"':
                body.append(self._lex_double_quote(scanner, raw))
                continue
            if ch == open_ch:
                depth += 1
            elif ch == close_ch:
                depth -= 1
                if depth == 0:
                    raw.append(scanner.advance(len(closer)))
                    return "".join(body)
            raw.append(scanner.advance())
            body.append(ch)


def tokenize(line: str) -> list[Token]:
    """Tokenize *line* with a default :class:`Lexer` instance."""
    return Lexer().tokenize(line)
