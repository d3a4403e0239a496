"""Tokenizer for the C-like kernel language.

The language covers what TSVC loops need: declarations, perfect
``for`` nests, assignments, ``if``/``else``, arithmetic with the usual
precedence, comparisons, and a few intrinsic calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

KEYWORDS = frozenset({"kernel", "for", "if", "else", "f32", "f64", "i32", "i64"})

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|==|!=|\+\+|&&|\|\||[-+*/%<>=!(){}\[\];,&|^])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "float" | "int" | "ident" | "kw" | "op" | "eof"
    text: str
    pos: int
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


class LexError(Exception):
    pass


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise LexError(
                f"line {line}: unexpected character {source[pos]!r}"
            )
        text = m.group(0)
        kind = m.lastgroup
        if kind == "ws":
            line += text.count("\n")
        elif kind == "ident" and text in KEYWORDS:
            tokens.append(Token("kw", text, pos, line))
        else:
            assert kind is not None
            tokens.append(Token(kind, text, pos, line))
        pos = m.end()
    tokens.append(Token("eof", "", pos, line))
    return tokens


class TokenStream:
    """Cursor over a token list with expect/accept helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._idx = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._idx]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "eof":
            self._idx += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.current
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            want = text or kind
            raise LexError(
                f"line {self.current.line}: expected {want!r}, "
                f"got {self.current.text!r}"
            )
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.current
        return tok.kind == kind and (text is None or tok.text == text)
