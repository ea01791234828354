"""Lexer for the concrete TeSSLa-like specification syntax."""

from __future__ import annotations

import re
from typing import List, NamedTuple


class FrontendError(Exception):
    """Raised on lexical or syntactic errors, with line/column info."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


KEYWORDS = {
    "in",
    "def",
    "out",
    "if",
    "then",
    "else",
    "true",
    "false",
    "nil",
    "unit",
    "last",
    "delay",
    "time",
    "merge",
    "default",
}

#: One token, with the blanks before it.  The blanks are not a token of
#: their own, so each token costs one match.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*
    (?:
      (?P<comment>\#[^\n]*|--[^\n]*)
    | (?P<float>\d+\.\d+([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
    | (?P<int>\d+)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<symbol>:=|==|!=|<=|>=|&&|\|\||[()\[\],:<>+\-*/%!=])
    | (?P<newline>\n)
    )
    """,
    re.VERBOSE,
)

_BLANKS = " \t\r"


def tokenize(text: str) -> List[Token]:
    """Tokenize *text*; raises :class:`FrontendError` on stray characters."""
    tokens: List[Token] = []
    append = tokens.append
    match_at = _TOKEN_RE.match
    line, line_start = 1, 0
    position = 0
    end = len(text)
    while position < end:
        match = match_at(text, position)
        if match is None:
            rest = text[position:].lstrip(_BLANKS)
            if not rest:
                position = end
                break
            position = end - len(rest)
            raise FrontendError(
                f"unexpected character {rest[0]!r}",
                line,
                position - line_start + 1,
            )
        kind = match.lastgroup
        start = match.start(kind)
        value = match.group(kind)
        position = match.end()
        if kind == "newline":
            append(Token("newline", value, line, start - line_start + 1))
            line += 1
            line_start = position
        elif kind != "comment":
            if kind == "name" and value in KEYWORDS:
                kind = value
            append(Token(kind, value, line, start - line_start + 1))
    append(Token("eof", "", line, position - line_start + 1))
    return tokens
