"""The regex lexer against the character loop it replaced.

``reference_tokenize`` is the old hand-written lexer, kept here as the
specification of token kinds, values, line / column positions and
error positions.  The two differ in exactly one way, on purpose: the
loop knew no exponents (``1e5`` lexed as ``1`` and the identifier
``e5``), so the fuzz leaves ``e`` out of its alphabet and exponents
get their own cases.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SqlError
from repro.sql import parse, sql_to_plan, tokenize
from repro.sql.lexer import KEYWORDS, SYMBOLS


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens: list[tuple[str, str, int, int]] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            line_start = i + 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        column = i - line_start + 1
        if ch == "-" and i + 1 < n and text[i + 1] == "-":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            lower = word.lower()
            kind = "keyword" if lower in KEYWORDS else "ident"
            tokens.append((kind, lower if kind == "keyword" else word,
                           line, column))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n
                            and text[i + 1].isdigit()):
            start = i
            seen_dot = False
            while i < n and (text[i].isdigit()
                             or (text[i] == "." and not seen_dot)):
                if text[i] == ".":
                    if i + 1 >= n or not text[i + 1].isdigit():
                        break
                    seen_dot = True
                i += 1
            tokens.append(("number", text[start:i], line, column))
            continue
        if ch == "'":
            i += 1
            start = i
            parts: list[str] = []
            while True:
                if i >= n:
                    raise SqlError("unterminated string literal", line,
                                   column)
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        parts.append(text[start:i + 1])
                        i += 2
                        start = i
                        continue
                    break
                i += 1
            parts.append(text[start:i])
            i += 1
            tokens.append(("string", "".join(parts), line, column))
            continue
        for symbol in SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(("symbol", "<>" if symbol == "!=" else symbol,
                               line, column))
                i += len(symbol)
                break
        else:
            raise SqlError(f"unexpected character {ch!r}", line, column)
    tokens.append(("eof", "", line, n - line_start + 1))
    return tokens


def outcome(lexer, text: str):
    try:
        return [(t[0], t[1], t[2], t[3]) for t in lexer(text)]
    except SqlError as error:
        return ("error", str(error), error.line, error.column)


ALPHABET = ["'", "''", "-", "--", ".", "1", "23", "0", "a", "b_", "X", " ",
            "  ", "\n", "\t", "\r", "+", "<", ">", "=", "!", "!=", "(", ",",
            "@", "select", "x1", ";", "|", "||", "é", "%", "/", "*"]


def test_same_tokens_and_error_positions_as_the_character_loop():
    rng = random.Random(20130408)
    for _ in range(30000):
        text = "".join(rng.choice(ALPHABET)
                       for _ in range(rng.randint(0, 12)))
        assert outcome(tokenize, text) == \
            outcome(reference_tokenize, text), repr(text)


@pytest.mark.parametrize("text", [
    "SELECT a, b FROM t WHERE x >= 1.5 AND s = 'it''s' -- done",
    "SELECT *\n  FROM t -- why 'not\n WHERE a<>b AND c!=.5;\n",
    "a\n  'x\ny' b\n c @",
    "SELECT 'open",
    "",
    "   \n\t ",
])
def test_positions_on_multi_line_text(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


class TestExponents:
    @pytest.mark.parametrize("text, value", [
        ("1e-05", 1e-05), ("1e+16", 1e16), ("2.5E3", 2500.0),
        (".5e1", 5.0), ("1e5", 100000.0)])
    def test_one_number_token_with_a_float_value(self, text, value):
        [number, eof] = tokenize(text)
        assert (number.kind, number.value, eof.kind) == \
            ("number", text, "eof")
        literal = parse(f"SELECT {text} AS x FROM t").items[0].expr
        assert literal.value == value and isinstance(literal.value, float)

    def test_an_e_without_digits_is_an_identifier(self):
        assert [(t.kind, t.value) for t in tokenize("1e 2e+ 3ex")][:-1] == [
            ("number", "1"), ("ident", "e"), ("number", "2"),
            ("ident", "e"), ("symbol", "+"), ("number", "3"),
            ("ident", "ex")]

    def test_limit_still_wants_an_integer(self, sales_catalog):
        with pytest.raises(SqlError, match="expected integer, got '1e1'"):
            sql_to_plan("SELECT * FROM sales LIMIT 1e1", sales_catalog)
