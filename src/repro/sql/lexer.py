"""SQL lexer: text -> token stream, and the literal scan that shares
its grammar.

The sub-patterns below are the only definition of what a comment, a
word, a number and a string literal look like.  :func:`tokenize` runs
them as one master regex; :func:`scan_literals` — how the statement
cache tells the texts of one statement template apart without lexing
them — runs the same ones, so the two cannot drift
(``tests/property/`` holds them together on arbitrary accepted text).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import SqlError

KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having",
    "order", "limit", "offset", "as", "and", "or", "not", "in", "like",
    "between", "join", "inner", "left", "right", "full", "outer",
    "semi", "anti", "on", "union",
    "all", "asc", "desc", "date", "case", "when", "then", "else", "end",
    "exists", "is", "null", "true", "false",
}

SYMBOLS = ("<=", ">=", "<>", "!=", "||", "(", ")", ",", "+", "-", "*",
           "/", "%", "<", ">", "=", ".", ";")

# The grammar of the tokens that can hold a literal, or hide something
# that looks like one.  Each is split after its first character: the
# lexer dispatches on that character inside one alternation, the scan
# finds it with a character-set search (which ``re`` runs far faster
# than an alternation) and looks back at it — the tails are shared.
#: after ``-``: a second dash makes a comment, up to the end of the line
_COMMENT_TAIL = r"-[^\n]*"
#: after the opening quote: ``''`` inside is an escaped quote, so the
#: closing quote is one that no quote follows
_STRING_TAIL = r"[^']*(?:''[^']*)*'(?!')"
_EXPONENT = r"(?:[eE][+-]?\d+)?"
#: after a number's first digit: ``12``, ``1.5``, ``1e-05``; a dot that
#: no digit follows is left for the qualifier in ``t.c``
_DIGIT_TAIL = rf"\d*(?:\.\d+)?{_EXPONENT}"
#: after a leading dot: ``.5``
_DOT_TAIL = rf"\d+{_EXPONENT}"
#: identifiers and keywords: a letter or ``_``, then letters, digits, ``_``
_WORD = r"[^\W\d]\w*"

# One match per token, newline or comment; blanks are skipped as a
# prefix, and a newline is a match of its own so that line and column
# need no search.  (A newline inside a string literal does not start a
# line.)
_TOKEN = re.compile(
    r"[^\S\n]*(?:"
    rf"({_WORD})"
    rf"|(\d{_DIGIT_TAIL}|\.{_DOT_TAIL})"
    rf"|('{_STRING_TAIL})"
    rf"|-{_COMMENT_TAIL}"
    r"|(" + "|".join(map(re.escape, SYMBOLS)) + ")"
    r"|(\n))")
_WORD_GROUP, _NUMBER_GROUP, _STRING_GROUP, _SYMBOL_GROUP, _NEWLINE_GROUP = \
    range(1, 6)

# Where the lexer starts a number: at a digit that no word or number is
# still running over — not after a word character (``t1``, the ``5`` of
# ``e5``) nor after a dot, which belongs to the number already matched
# (``1.5``) or starts one itself — and at any dot a digit follows
# (``t.5`` lexes as ``t`` and ``.5``).  With that guard the scan need not
# match words, only comments (which may hold quotes and digits).
_LITERAL = re.compile(
    r"[-'.\d](?:"
    rf"(?<=-){_COMMENT_TAIL}"
    rf"|(?<=')({_STRING_TAIL})"
    rf"|(?<=\d)(?<![\w.]\d)({_DIGIT_TAIL})"
    rf"|(?<=\.)({_DOT_TAIL}))")

#: what :func:`scan_literals` leaves where a literal stood; the lexer
#: rejects the character, so no statement that binds contains it outside
#: a string or a comment
PLACEHOLDER = "?"


class Token(NamedTuple):
    kind: str       # "ident" | "keyword" | "number" | "string" | "symbol"
                    # | "eof"
    value: str
    line: int
    column: int
    #: for number and string tokens, the literal's ordinal in the text
    slot: int | None = None

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "keyword" and self.value in names

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind == "symbol" and self.value in symbols


def number_value(text: str) -> int | float:
    """The value of a number token: a float when the text has a
    fraction or an exponent."""
    return int(text) if text.isdecimal() else float(text)


def _string_value(quoted: str) -> str:
    return quoted[1:-1].replace("''", "'")


def tokenize(text: str) -> list[Token]:
    """Lex SQL text into tokens; raises :class:`SqlError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    newline_at = -1     # a token's column is its offset less this
    slot = 0
    match = None
    for match in iter(_TOKEN.scanner(text).match, None):
        group = match.lastindex
        if group == _WORD_GROUP:
            word = match.group(group)
            lower = word.lower()
            if lower in KEYWORDS:
                append(Token("keyword", lower, line,
                             match.start(group) - newline_at))
            else:
                append(Token("ident", word, line,
                             match.start(group) - newline_at))
        elif group == _SYMBOL_GROUP:
            symbol = match.group(group)
            append(Token("symbol", "<>" if symbol == "!=" else symbol,
                         line, match.start(group) - newline_at))
        elif group == _NUMBER_GROUP:
            append(Token("number", match.group(group), line,
                         match.start(group) - newline_at, slot))
            slot += 1
        elif group == _STRING_GROUP:
            append(Token("string", _string_value(match.group(group)), line,
                         match.start(group) - newline_at, slot))
            slot += 1
        elif group == _NEWLINE_GROUP:
            line += 1
            newline_at = match.start(group)
        # (a comment produces nothing)
    end = match.end() if match is not None else 0
    stopped = len(text) - len(text[end:].lstrip())
    if stopped < len(text):
        column = stopped - newline_at
        if text[stopped] == "'":
            raise SqlError("unterminated string literal", line, column)
        raise SqlError(f"unexpected character {text[stopped]!r}", line,
                       column)
    tokens.append(Token("eof", "", line, len(text) - newline_at))
    return tokens


def scan_literals(text: str) -> tuple[str, list[int | float | str]]:
    """``text`` with every number and string literal replaced by
    :data:`PLACEHOLDER`, and the literals' values in text order — for
    any text :func:`tokenize` accepts, exactly the values of its number
    and string tokens (:func:`number_value` applied to the numbers)."""
    pieces: list[str] = []
    values: list[int | float | str] = []
    last = 0
    for match in _LITERAL.finditer(text):
        group = match.lastindex
        if group is None:       # a comment: stays in the stripped text
            continue
        start, end = match.span()
        pieces.append(text[last:start])
        last = end
        if group == 1:
            values.append(_string_value(match.group()))
        else:
            values.append(number_value(match.group()))
    pieces.append(text[last:])
    return PLACEHOLDER.join(pieces), values
