"""Small expression parser for polynomials in ``x``.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | power
    power  := atom ('^' INTEGER)?
    atom   := INTEGER | IDENT | '(' expr ')'

Rationals are spelled as a division of integers (``3/2``); more generally
``/`` is accepted whenever the divisor works out to a nonzero constant.
Exponents must be nonnegative integer literals; ``**`` is accepted as a
spelling of ``^``.  The identifier ``x`` is the
variable; any other identifier is looked up in a parameter mapping and
substituted as a constant, so family patterns like
``(beta - alpha) - (alpha + beta + 2)*x`` parse directly.  Parentheses and
unary signs together may nest at most ``MAX_NESTING`` levels deep, so every
input finishes or raises ``ExprSyntaxError`` well inside the interpreter's
recursion limit.  No exponent, and no intermediate result, may pass degree
``MAX_DEGREE``: a ``^`` or ``*`` that would is refused before it is expanded,
so ``(x+1)^3000 - (x+1)^3000`` costs nothing.  Likewise a ``^`` is refused
when the exponent times the bit length of the base's largest numerator or
denominator passes ``MAX_CONSTANT_BITS``, so ``((2^100)^100)^100`` never
builds its million-bit constant.  An integer literal is ASCII digits only,
at most ``MAX_LITERAL_DIGITS`` of them (CPython's default ``int()`` limit),
so every literal converts exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import ExprSyntaxError
from .poly import MAX_LITERAL_DIGITS, Poly, as_rational

MAX_NESTING = 100
MAX_DEGREE = 100
MAX_CONSTANT_BITS = 10_000


class _Token(NamedTuple):
    kind: str  # "int" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
        elif ch == "*" and i + 1 < n and text[i + 1] == "*":
            tokens.append(_Token("op", "^", i))
            i += 2
        elif ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
        else:
            raise ExprSyntaxError(i, f"unexpected character {ch!r}")
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], params: Mapping[str, Fraction]):
        self.tokens = tokens
        self.pos = 0
        self.params = params
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def enter(self, tok: _Token) -> None:
        """Open one nesting level at ``tok``; the caller closes it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(tok.pos, f"expression nests deeper than {MAX_NESTING} levels")

    def check_degree(self, tok: _Token, degree: int | float, what: str) -> None:
        """Refuse, at ``tok``, a result of ``degree`` above ``MAX_DEGREE``."""
        if degree > MAX_DEGREE:
            raise ExprSyntaxError(
                tok.pos, f"{what} would have degree {degree}, above the cap {MAX_DEGREE}")

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def expr(self) -> Poly:
        acc = self.term()
        while self.at_op("+", "-"):
            op = self.take()
            rhs = self.term()
            acc = acc + rhs if op.text == "+" else acc - rhs
        return acc

    def term(self) -> Poly:
        acc = self.factor()
        while self.at_op("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op.text == "*":
                self.check_degree(op, acc.degree + rhs.degree, "product")
                acc = acc * rhs
            else:
                if rhs.degree > 0:
                    raise ExprSyntaxError(op.pos, "divisor must be a constant")
                if rhs.is_zero:
                    raise ExprSyntaxError(op.pos, "division by zero")
                acc = acc / rhs.coefficient(0)
        return acc

    def factor(self) -> Poly:
        if self.at_op("+", "-"):
            op = self.take()
            self.enter(op)
            inner = self.factor()
            self.depth -= 1
            return inner if op.text == "+" else -inner
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        if self.at_op("^"):
            caret = self.take()
            tok = self.peek()
            if tok.kind != "int":
                raise ExprSyntaxError(caret.pos, "exponent must be a nonnegative integer")
            self.take()
            digits = tok.text.lstrip("0") or "0"
            # compare lengths first: int() refuses literals of over 4300 digits
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                raise ExprSyntaxError(tok.pos, f"exponent exceeds {MAX_DEGREE}")
            exponent = int(digits)
            self.check_degree(caret, base.degree * exponent if exponent else 0, "power")
            bits = exponent * max((max(c.numerator.bit_length(), c.denominator.bit_length())
                                   for c in base.coeffs), default=0)
            if bits > MAX_CONSTANT_BITS:
                raise ExprSyntaxError(caret.pos, f"power would need {bits}-bit coefficients, "
                                                 f"above the cap {MAX_CONSTANT_BITS}")
            return base ** exponent
        return base

    def atom(self) -> Poly:
        tok = self.take()
        if tok.kind == "int":
            if len(tok.text) > MAX_LITERAL_DIGITS:
                raise ExprSyntaxError(tok.pos, f"integer literal longer than "
                                               f"{MAX_LITERAL_DIGITS} digits")
            return Poly.constant(int(tok.text))
        if tok.kind == "ident":
            if tok.text == "x":
                return Poly.x()
            if tok.text in self.params:
                return Poly.constant(self.params[tok.text])
            raise ExprSyntaxError(tok.pos, f"unknown identifier {tok.text!r}")
        if tok.kind == "op" and tok.text == "(":
            self.enter(tok)
            inner = self.expr()
            self.depth -= 1
            closing = self.take()
            if not (closing.kind == "op" and closing.text == ")"):
                raise ExprSyntaxError(closing.pos, "expected ')'")
            return inner
        raise ExprSyntaxError(tok.pos, f"unexpected {tok.text!r}" if tok.text
                              else "unexpected end of expression")


def parse_poly_expr(text: str,
                    params: Mapping[str, int | str | Fraction] | None = None) -> Poly:
    """Parse an expression into a ``Poly``, substituting named parameters."""
    resolved = {name: as_rational(value) for name, value in (params or {}).items()}
    parser = _Parser(_tokenize(text), resolved)
    result = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(trailing.pos, f"unexpected {trailing.text!r}")
    return result
