"""Group specifications and the text grammar for them.

A group is one of: a free group, a finite cyclic group, a one-relator
group whose relator is a product of distinct generator powers
(``x1^p1 x2^p2 ... xn^pn = 1`` with n >= 2 and every ``|pi| >= 2``),
or a free product of such groups; ``<a; a^p>`` parses as Z_|p|.
Presentations are stored in relator-normal form: any right-hand side
of the relation is moved to the left with its exponent negated, and
generator names are erased after parsing.
"""

from __future__ import annotations

import math
import re
from typing import Union

from .records import FrozenRecord


class ParseError(ValueError):
    """Raised when a group description cannot be parsed."""


def validate_exponents(exponents) -> tuple[int, ...]:
    """Check an exponent tuple: nonempty, integral, all |p| >= 2."""
    exps = tuple(exponents)
    if not exps:
        raise ValueError("exponent tuple must be nonempty")
    for p in exps:
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"exponent {p!r} is not an integer")
        if abs(p) < 2:
            raise ValueError(f"exponent {p} has absolute value < 2")
    return exps


def normalized_exponents(exponents) -> tuple[int, ...]:
    """Sign-normal form of a tuple: all exponents made positive.

    Negating any subset of exponents does not change the associated
    representation variety, so comparisons and eligibility checks run
    on absolute values.  Idempotent.
    """
    return tuple(abs(p) for p in validate_exponents(exponents))


def exponent_gcd(exponents) -> int:
    """gcd of the exponent absolute values."""
    return math.gcd(*normalized_exponents(exponents))


class FreeGroup(FrozenRecord):
    def __init__(self, rank: int):
        if not isinstance(rank, int) or rank < 0:
            raise ValueError(f"free group rank must be an integer >= 0, got {rank!r}")
        object.__setattr__(self, "rank", rank)


class CyclicFinite(FrozenRecord):
    def __init__(self, order: int):
        if not isinstance(order, int) or order < 2:
            raise ValueError(f"cyclic group order must be an integer >= 2, got {order!r}")
        object.__setattr__(self, "order", order)


class ProductPower(FrozenRecord):
    """One-relator group with relator x1^p1 ... xn^pn = 1, n >= 2."""

    def __init__(self, exponents: tuple[int, ...]):
        exps = validate_exponents(exponents)
        if len(exps) < 2:
            raise ValueError(f"a product-power relator needs at least 2 letters, got {len(exps)}")
        object.__setattr__(self, "exponents", exps)


class FreeProduct(FrozenRecord):
    def __init__(self, factors: tuple["GroupSpec", ...]):
        flat: list[GroupSpec] = []
        for f in factors:
            if isinstance(f, FreeProduct):
                flat.extend(f.factors)
            elif isinstance(f, (FreeGroup, CyclicFinite, ProductPower)):
                flat.append(f)
            else:
                raise ValueError(f"invalid free product factor {f!r}")
        if len(flat) < 2:
            raise ValueError("free product needs at least 2 factors")
        object.__setattr__(self, "factors", tuple(flat))


GroupSpec = Union[FreeGroup, CyclicFinite, ProductPower, FreeProduct]


def generator_count(spec: GroupSpec) -> int:
    """Number of generators in the defining presentation."""
    if isinstance(spec, FreeGroup):
        return spec.rank
    if isinstance(spec, CyclicFinite):
        return 1
    if isinstance(spec, ProductPower):
        return len(spec.exponents)
    if isinstance(spec, FreeProduct):
        return sum(generator_count(f) for f in spec.factors)
    raise TypeError(f"not a group spec: {spec!r}")


def contains_product_power(spec: GroupSpec) -> bool:
    if isinstance(spec, ProductPower):
        return True
    if isinstance(spec, FreeProduct):
        return any(contains_product_power(f) for f in spec.factors)
    return False


# a cost bound: a census of N cyclic factors prints Theta(N^2) digits (1,000 Z3s: ~0.4 s)
MAX_FACTORS = 1000
# the verifier's caps, here so that the CLI states them without the oracle:
# cost bounds (a few seconds each on a 2-core VM; the CLI exits 2 above)
MAX_SAMPLES = 1000
MAX_CENTRAL_POWER = 10**4
# an accuracy bound: float64 checks m^p to the residual gate up to here
MAX_VERIFY_EXPONENT = 10**7

_TOKEN_RE = re.compile(r"(\s*)(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([<>,;=*^-])|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then ("eof", "", len(text)); a
    token's position is where the previous one ended.  The matches cover
    the text up to trailing whitespace, so positions add up without the
    match objects of finditer."""
    tokens, pos = [], 0
    for space, digits, ident, punct, bad in _TOKEN_RE.findall(text):
        if bad:
            raise ParseError(f"unexpected character {bad!r} at position {pos}")
        token = digits or ident or punct
        tokens.append(("int" if digits else "ident" if ident else "punct", token, pos))
        pos += len(space) + len(token)
    tokens.append(("eof", "", len(text)))
    return tokens


def _to_int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int string limit
        raise ParseError(f"integer at position {pos} is too long") from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r} at position {pos}, got {val or 'end of input'!r}")
        return val

    def parse_expr(self) -> GroupSpec:
        factors = [self.parse_atom()]
        while self.peek()[1] == "*":
            self.next()
            factors.append(self.parse_atom())
        if len(factors) > MAX_FACTORS:
            raise ParseError(f"a group description has at most {MAX_FACTORS} factors, got {len(factors)}")
        if len(factors) == 1:
            return factors[0]
        return FreeProduct(tuple(factors))

    def parse_atom(self) -> GroupSpec:
        kind, val, pos = self.peek()
        if val == "<":
            return self.parse_presentation()
        if kind == "ident":
            m = re.fullmatch(r"([FZ])(\d+)", val)
            if m is None:
                raise ParseError(f"expected F<n>, Z<n>, or a presentation at position {pos}, got {val!r}")
            self.next()
            n = _to_int(m.group(2), pos)
            if m.group(1) == "F":
                return FreeGroup(n)
            try:
                return CyclicFinite(n)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        raise ParseError(f"expected a group atom at position {pos}, got {val or 'end of input'!r}")

    def parse_presentation(self) -> GroupSpec:
        self.expect("<")
        gens = [self._ident()]
        while self.peek()[1] == ",":
            self.next()
            gens.append(self._ident())
        if len(set(gens)) != len(gens):
            raise ParseError("duplicate generator name in presentation")
        self.expect(";")
        terms = self._word()
        if self.peek()[1] == "=":
            self.next()
            right = self._word()
            terms += [(name, -exp) for (name, exp) in right]
        self.expect(">")
        if not terms:
            return FreeGroup(len(gens))
        declared, seen = set(gens), set()
        exponents: list[int] = []
        for name, exp in terms:
            if name not in declared:
                raise ParseError(f"unknown generator {name!r} in relator")
            if name in seen:
                raise ParseError(f"generator {name!r} appears more than once in the relator")
            seen.add(name)
            exponents.append(exp)
        missing = [g for g in gens if g not in seen]
        if missing:
            raise ParseError(f"generator {missing[0]!r} does not appear in the relator")
        try:
            if len(exponents) == 1:  # <a; a^p> is Z_|p|
                return CyclicFinite(abs(validate_exponents(exponents)[0]))
            return ProductPower(tuple(exponents))
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    def _ident(self) -> str:
        kind, val, pos = self.next()
        if kind != "ident":
            raise ParseError(f"expected a generator name at position {pos}, got {val or 'end of input'!r}")
        return val

    def _word(self) -> list[tuple[str, int]]:
        # a word is '1' (trivial) or a sequence of ident('^'int)? terms
        if self.peek() == ("int", "1", self.peek()[2]):
            self.next()
            return []
        terms = []
        while self.peek()[0] == "ident":
            name = self.next()[1]
            exp = 1
            if self.peek()[1] == "^":
                self.next()
                sign = 1
                if self.peek()[1] == "-":
                    self.next()
                    sign = -1
                kind, val, pos = self.next()
                if kind != "int":
                    raise ParseError(f"expected an integer exponent at position {pos}")
                exp = sign * _to_int(val, pos)
            terms.append((name, exp))
        if not terms:
            kind, val, pos = self.peek()
            raise ParseError(f"expected a word at position {pos}, got {val or 'end of input'!r}")
        return terms


def parse_spec(text: str) -> GroupSpec:
    """Parse a group description.

    Grammar::

        expr         := atom ('*' atom)*
        atom         := 'F' nat | 'Z' nat | presentation
        presentation := '<' ident (',' ident)* ';' word ('=' word)? '>'
        word         := term+ | '1'
        term         := ident ('^' signed_int)?

    A relation with a right-hand side is normalized by moving the right
    word to the left with negated exponents.  Each declared generator
    must appear exactly once in the relator; multi-relator input is not
    in the grammar and is rejected.  <a; a^p> gives CyclicFinite(|p|).
    """
    parser = _Parser(text)
    spec = parser.parse_expr()
    kind, val, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"trailing input at position {pos}: {val!r}")
    return spec


_GENERATOR_NAMES = "abcdefghijklmnopqrstuvwxyz"


def format_spec(spec: GroupSpec) -> str:
    """Canonical text form; parse_spec(format_spec(g)) == g."""
    if isinstance(spec, FreeGroup):
        return f"F{spec.rank}"
    if isinstance(spec, CyclicFinite):
        return f"Z{spec.order}"
    if isinstance(spec, ProductPower):
        n = len(spec.exponents)
        names = _GENERATOR_NAMES[:n] if n <= len(_GENERATOR_NAMES) else [f"g{i + 1}" for i in range(n)]
        word = " ".join(f"{name}^{p}" for name, p in zip(names, spec.exponents))
        return f"<{','.join(names)}; {word}>"
    if isinstance(spec, FreeProduct):
        return " * ".join(format_spec(f) for f in spec.factors)
    raise TypeError(f"not a group spec: {spec!r}")
