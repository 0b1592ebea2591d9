"""Group specifications and the text grammar for them.

A group is one of: a free group, a finite cyclic group, a one-relator
group whose relator is a product of distinct generator powers
(``x1^p1 x2^p2 ... xn^pn = 1`` with n >= 2 and every ``|pi| >= 2``),
or a free product of such groups; ``<a; a^p>`` parses as Z_|p|.
Presentations are stored in relator-normal form: any right-hand side
of the relation is moved to the left with its exponent negated, and
generator names are erased after parsing.  The grammar is regular, and
parse_spec reads it with one anchored regular expression per production.
"""

from __future__ import annotations

import math
import re
from typing import Optional, Union

from .records import FrozenRecord


class ParseError(ValueError):
    """Raised when a group description cannot be parsed."""


def check_int(name: str, value, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    """value, when it is an int in lo..hi (None leaves an end open), else a
    ValueError naming the argument and the range.  The package's one
    integer rule: no bool (nor other int subclass), float or out-of-range
    value is read as an integer.  Paths that run thousands of times per
    command test type(value) is int inline and call this only to raise."""
    if type(value) is int and (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    span = (f" >= {lo}" if hi is None else f" in {lo}..{hi}") if lo is not None else \
        ("" if hi is None else f" <= {hi}")
    raise ValueError(f"{name} must be an integer{span}, got {value!r}")


def validate_exponents(exponents) -> tuple[int, ...]:
    """Check an exponent tuple: nonempty, integral, all |p| >= 2."""
    exps = tuple(exponents)
    if not exps:
        raise ValueError("exponent tuple must be nonempty")
    for p in exps:
        if type(p) is not int:
            check_int("exponent", p)
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
        object.__setattr__(self, "rank", check_int("free group rank", rank, 0))


class CyclicFinite(FrozenRecord):
    def __init__(self, order: int):
        object.__setattr__(self, "order", check_int("cyclic group order", order, 2))


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

# one anchored pattern per production, each matched where the last match
# ended.  None repeats a group of terms, and no two \s* meet with only
# optional text between them, so backtracking stays linear in the text.
# F<n> and Z<n> take ASCII digits, an exponent any digit that int() reads.
_ATOM = re.compile(r"\s*(?:([FZ])([0-9]+)|<)")
_AFTER_ATOM = re.compile(r"\s*(?:(\*)|\Z)")
_NAME = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)")
_SEPARATOR = re.compile(r"\s*([,;])")
_TRIVIAL = re.compile(r"\s*1")
_TERM = re.compile(_NAME.pattern + r"(?:\s*\^\s*(?:(-)\s*)?(\d+))?")
_RELATION = re.compile(r"\s*([=>])")
_CLOSE = re.compile(r"\s*>")


def _match(pattern: re.Pattern, text: str, pos: int, expected: str) -> re.Match:
    """pattern's match at pos, or a ParseError: what was expected where."""
    m = pattern.match(text, pos)
    if m is None:
        rest = text[pos:].lstrip()  # str.isspace is the \s of str patterns
        got = repr(rest[0]) if rest else "end of input"
        raise ParseError(f"expected {expected} at position {len(text) - len(rest)}, got {got}")
    return m


def _to_int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int string limit
        raise ParseError(f"integer at position {pos} is too long") from None


def _word(text: str, pos: int) -> tuple[list[tuple[str, int]], int]:
    """The word at pos as (name, exponent) terms, none for '1', and its end."""
    terms, m = [], _TERM.match(text, pos)
    while m:
        exp = _to_int(m[3], m.start(3)) if m[3] else 1
        terms.append((m[1], -exp if m[2] else exp))
        pos, m = m.end(), _TERM.match(text, m.end())
    return (terms, pos) if terms else ([], _match(_TRIVIAL, text, pos, "a word").end())


def _presentation(text: str, pos: int) -> tuple[GroupSpec, int]:
    """The presentation whose '<' ends at pos: its group, checked once read, and its end."""
    gens, m = [], None
    while m is None or m[1] == ",":
        m = _match(_NAME, text, m.end() if m else pos, "a generator name")
        gens.append(m[1])
        m = _match(_SEPARATOR, text, m.end(), "',' or ';'")
    terms, pos = _word(text, m.end())
    m = _match(_RELATION, text, pos, "a term, '=' or '>'")
    if m[1] == "=":
        right, pos = _word(text, m.end())
        terms += [(name, -exp) for name, exp in right]
        m = _match(_CLOSE, text, pos, "a term or '>'")
    if len(set(gens)) != len(gens):
        raise ParseError("duplicate generator name in presentation")
    if not terms:
        return FreeGroup(len(gens)), m.end()
    declared, seen = set(gens), set()
    for name, _ in terms:
        if name not in declared:
            raise ParseError(f"unknown generator {name!r} in relator")
        if name in seen:
            raise ParseError(f"generator {name!r} appears more than once in the relator")
        seen.add(name)
    if len(seen) < len(gens):
        raise ParseError(f"generator {next(g for g in gens if g not in seen)!r} does not appear in the relator")
    try:
        exps = validate_exponents(exp for _, exp in terms)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return (CyclicFinite(abs(exps[0])) if len(exps) == 1 else ProductPower(exps)), m.end()


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
    factors, more, pos = [], True, 0
    while more:
        m = _match(_ATOM, text, pos, "F<n>, Z<n> or a presentation")
        if m[1] is None:
            spec, pos = _presentation(text, m.end())
        else:
            n, pos = _to_int(m[2], m.start(2)), m.end()
            try:
                spec = FreeGroup(n) if m[1] == "F" else CyclicFinite(n)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        factors.append(spec)
        m = _match(_AFTER_ATOM, text, pos, "'*' or the end of input")
        more, pos = m[1], m.end()
    if len(factors) > MAX_FACTORS:
        raise ParseError(f"a group description has at most {MAX_FACTORS} factors, got {len(factors)}")
    return factors[0] if len(factors) == 1 else FreeProduct(tuple(factors))


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
