"""Grammar, normal form, and validation of group specifications."""

import random
import re
import time

import pytest

from sl2rep.presentations import (
    CyclicFinite,
    FreeGroup,
    FreeProduct,
    ParseError,
    ProductPower,
    contains_product_power,
    exponent_gcd,
    format_spec,
    generator_count,
    normalized_exponents,
    parse_spec,
    validate_exponents,
)


def test_parse_atoms():
    assert parse_spec("F3") == FreeGroup(3)
    assert parse_spec("F0") == FreeGroup(0)
    assert parse_spec("Z7") == CyclicFinite(7)
    assert parse_spec("  F12  ") == FreeGroup(12)


def test_parse_product_power_presentation():
    assert parse_spec("<a,b,c; a^2 b^3 c^5>") == ProductPower((2, 3, 5))
    assert parse_spec("<x, y; x^-2 y^4>") == ProductPower((-2, 4))
    assert parse_spec("<a, b, c, d; a^2 b^2 c^2 d^9>") == ProductPower((2, 2, 2, 9))


def test_relation_right_side_moves_left_negated():
    # x^p y^q = z^r normalizes to x^p y^q z^-r
    assert parse_spec("<a,b,c; a^-3 b^-5 = c^7>") == ProductPower((-3, -5, -7))
    assert parse_spec("<a,b; a^2 = b^-3>") == ProductPower((2, 3))


def test_one_generator_relator_is_a_cyclic_group():
    for p in (2, 5, 10**9):
        assert parse_spec(f"<a; a^{p}>") == parse_spec(f"<x; x^-{p}>") == CyclicFinite(p)
    assert parse_spec("<a; a^3 = 1>") == parse_spec("<a; 1 = a^3>") == CyclicFinite(3)
    assert parse_spec("F1 * <a; a^4>") == FreeProduct((FreeGroup(1), CyclicFinite(4)))
    for text in ("<a; a^1>", "<a; a^-1>", "<a; a^0>"):
        with pytest.raises(ParseError, match="absolute value < 2"):
            parse_spec(text)


def test_trivial_relator_is_a_free_group():
    assert parse_spec("<a,b; 1>") == FreeGroup(2)
    assert parse_spec("<a; 1>") == FreeGroup(1)


def test_free_products_parse_and_flatten():
    spec = parse_spec("F2 * Z3 * <a,b,c; a^2 b^3 c^7>")
    assert spec == FreeProduct((FreeGroup(2), CyclicFinite(3), ProductPower((2, 3, 7))))
    nested = FreeProduct((FreeGroup(1), FreeProduct((CyclicFinite(2), FreeGroup(2)))))
    assert nested.factors == (FreeGroup(1), CyclicFinite(2), FreeGroup(2))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "F",
        "Fx",
        "Q5",
        "Z1",
        "F2 *",
        "3,5,7",
        "<a,b; a^2>",
        "<a; a^2 b^2>",
        "<a,a; a^2 a^3>",
        "<a,b; a^2 a^-2>",
        "<a; a>",
        "<a; a^1>",
        "<a,b; a^2 b^2> junk",
        "<a,b; a^2 = >",
        "<a,b; a^2 b^^2>",
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse_spec(text)


@pytest.mark.parametrize(
    "text,message",
    [
        # term order decides between an unknown and a repeated generator
        ("<a,b; x^2 a^2 a^3>", "unknown generator 'x' in relator"),
        ("<a,b; a^2 a^3 x^2>", "generator 'a' appears more than once in the relator"),
        # the first generator missing in declaration order is named
        ("<a,b,c,d; d^2 b^3>", "generator 'a' does not appear in the relator"),
        ("<a,b,c,d; a^2 d^3>", "generator 'b' does not appear in the relator"),
    ],
)
def test_relator_errors_name_the_first_offender(text, message):
    with pytest.raises(ParseError) as info:
        parse_spec(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        ("Q5", "expected F<n>, Z<n> or a presentation at position 0, got 'Q'"),
        ("F2 *  ", "expected F<n>, Z<n> or a presentation at position 6, got end of input"),
        ("F2 x", "expected '*' or the end of input at position 3, got 'x'"),
        ("Z3 * <a, ; a^2>", "expected a generator name at position 9, got ';'"),
        ("<a b; a^2 b^3>", "expected ',' or ';' at position 3, got 'b'"),
        ("<a; >", "expected a word at position 4, got '>'"),
        ("<a,b; a^ -\tb^3>", "expected a term, '=' or '>' at position 7, got '^'"),
        ("<a,b; a^2 b^3 ! >", "expected a term, '=' or '>' at position 14, got '!'"),
        ("<a,b; a^2 = b^3 = 1>", "expected a term or '>' at position 16, got '='"),
        ("<a,b; a^2 = b^3", "expected a term or '>' at position 15, got end of input"),
        ("Z" + "9" * 5000, "integer at position 1 is too long"),
        ("<a,b; a^2 b^-" + "9" * 5000 + ">", "integer at position 13 is too long"),
    ],
    ids=["atom", "atom-at-end", "star-or-end", "generator-name", "separator", "word", "bad-exponent",
         "term-or-close", "close", "close-at-end", "overlong-order", "overlong-exponent"],
)
def test_syntax_errors_name_the_position_and_what_was_expected(text, message):
    with pytest.raises(ParseError) as info:
        parse_spec(text)
    assert str(info.value) == message


def test_long_relator_parses_in_linear_time():
    names = [f"g{i}" for i in range(10**5)]
    text = f"<{','.join(names)}; {' '.join(f'{name}^3' for name in names)}>"
    start = time.perf_counter()
    spec = parse_spec(text)
    elapsed = time.perf_counter() - start
    assert spec == ProductPower((3,) * 10**5)
    assert elapsed < 2.0


def test_parse_error_is_a_value_error():
    assert issubclass(ParseError, ValueError)


ROUNDTRIP_SPECS = [
    FreeGroup(0),
    FreeGroup(5),
    CyclicFinite(2),
    CyclicFinite(13),
    ProductPower((2, 2)),
    ProductPower((-3, -5, -7)),
    ProductPower((2, 3, 4, 5, 6)),
    FreeProduct((FreeGroup(2), CyclicFinite(3))),
    FreeProduct((FreeGroup(1), ProductPower((3, 5, 7)), CyclicFinite(4))),
]


@pytest.mark.parametrize("spec", ROUNDTRIP_SPECS)
def test_format_parse_roundtrip(spec):
    assert parse_spec(format_spec(spec)) == spec


def _random_atom(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return FreeGroup(rng.randrange(0, 40))
    if kind == 1:
        return CyclicFinite(rng.randrange(2, 10**6))
    n = rng.choice((2, 3, 5, 26, 27, 40))  # one letter would be a cyclic group
    return ProductPower(tuple(rng.choice((-1, 1)) * rng.randrange(2, 10**4) for _ in range(n)))


def test_format_parse_roundtrip_property():
    rng = random.Random(61)
    for _ in range(300):
        atoms = [_random_atom(rng) for _ in range(rng.randrange(1, 5))]
        spec = atoms[0] if len(atoms) == 1 else FreeProduct(tuple(atoms))
        assert parse_spec(format_spec(spec)) == spec


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|[0-9]+|\S")


def test_whitespace_at_token_boundaries_leaves_the_parse_unchanged():
    rng = random.Random(71)
    for _ in range(300):
        atoms = [_random_atom(rng) for _ in range(rng.randrange(1, 5))]
        spec = atoms[0] if len(atoms) == 1 else FreeProduct(tuple(atoms))
        tokens = _TOKEN.findall(format_spec(spec))
        spaced = "".join(rng.choice(("", " ", "\t", "\n", " \n\t")) + token for token in tokens)
        assert parse_spec(spaced + rng.choice(("", " ", "\n"))) == spec
        # no two names or numbers meet, so every space is optional
        assert parse_spec("".join(tokens)) == spec
    assert parse_spec("<a,b,c;a^3b^5c^7>") == parse_spec("<a,b,c; a^3 b^5 c^7>")


@pytest.mark.parametrize(
    "text",
    [
        "<" + "a" * 200000 + "!",
        "<" + ",".join(f"g{i}" for i in range(20000)) + ">",
        "Z3 *" * 50000 + "!",
        "<a; a" + " ^ - 2" * 50000 + ">",
        "<a,b; " + "a" * 200000 + "!",
    ],
    ids=["long-name", "no-semicolon", "many-factors", "many-carets", "long-term"],
)
def test_long_malformed_input_is_rejected_in_linear_time(text):
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_spec(text)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", ["<a; a^ x>", "<a; a ^ - x>", "<a; a ^ - >", "<a, b x", "<a; 1 x",
                                  "<a,b; a^2 b^3 = 1 = 1>", "Z3 * x", "F2 F3", "F2 *"])
def test_whitespace_runs_at_every_token_boundary_are_rejected_in_linear_time(text):
    # two \s* with only optional text between them backtrack in quadratic
    # time, ~1 s at 8,000 spaces and ~14 s at 30,000
    spaced = (" " * 30000).join([""] + _TOKEN.findall(text) + [""])
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_spec(spaced)
    assert time.perf_counter() - start < 1.0


def test_long_whitespace_runs_parse_in_linear_time():
    # a scanner that retries every start position of a trailing whitespace
    # run is quadratic in it: ~13 s for 16,000 spaces
    start = time.perf_counter()
    assert parse_spec(" " * 100000 + "F2" + " " * 100000) == FreeGroup(2)
    assert parse_spec("Z3" + " \n\t" * 50000 + "* Z5 " + "\t" * 100000) == \
        FreeProduct((CyclicFinite(3), CyclicFinite(5)))
    assert time.perf_counter() - start < 1.0


_FUZZ_PIECES = ["<", ">", ",", ";", "=", "*", "^", "-", " ", "a", "b", "c", "F", "Z",
                "1", "2", "7", "0", "x1", "<a,b; a^2 b^3>", "F2", "Z5", "^-", "9" * 5000,
                "!", "(", "\t", "é"]


def test_parser_fuzz_raises_only_parse_errors():
    rng = random.Random(67)
    for _ in range(20000):
        text = "".join(rng.choice(_FUZZ_PIECES) for _ in range(rng.randrange(0, 12)))
        try:
            parse_spec(text)
        except ParseError:
            pass


def test_overlong_integers_are_parse_errors():
    with pytest.raises(ParseError):
        parse_spec("F" + "9" * 5000)
    with pytest.raises(ParseError):
        parse_spec("<a,b; a^" + "9" * 5000 + " b^2>")


def test_format_examples():
    assert format_spec(ProductPower((3, -5, 7))) == "<a,b,c; a^3 b^-5 c^7>"
    assert format_spec(FreeProduct((FreeGroup(2), CyclicFinite(9)))) == "F2 * Z9"


def test_generator_count():
    assert generator_count(FreeGroup(4)) == 4
    assert generator_count(CyclicFinite(7)) == 1
    assert generator_count(ProductPower((2, 3, 5))) == 3
    assert generator_count(FreeProduct((FreeGroup(2), ProductPower((2, 2))))) == 4


def test_contains_product_power():
    assert contains_product_power(ProductPower((2, 2)))
    assert contains_product_power(FreeProduct((FreeGroup(1), ProductPower((2, 3)))))
    assert not contains_product_power(FreeGroup(3))
    assert not contains_product_power(FreeProduct((FreeGroup(1), CyclicFinite(4))))


def test_validate_exponents():
    assert validate_exponents([2, -3, 9]) == (2, -3, 9)
    with pytest.raises(ValueError):
        validate_exponents([])
    with pytest.raises(ValueError):
        validate_exponents([2, 1])
    with pytest.raises(ValueError):
        validate_exponents([2, 0])
    with pytest.raises(ValueError):
        validate_exponents([2, 2.0])
    with pytest.raises(ValueError):
        validate_exponents([True, 2])


def test_normalized_exponents_and_gcd():
    assert normalized_exponents((-3, 5, -7)) == (3, 5, 7)
    assert normalized_exponents(normalized_exponents((-4, 6))) == (4, 6)
    assert exponent_gcd((-4, 6, 10)) == 2
    assert exponent_gcd((3, 5, 7)) == 1


def test_spec_constructors_validate():
    with pytest.raises(ValueError):
        FreeGroup(-1)
    with pytest.raises(ValueError):
        CyclicFinite(1)
    with pytest.raises(ValueError):
        ProductPower((2, 1))
    with pytest.raises(ValueError, match="at least 2 letters, got 1"):
        ProductPower((5,))
    with pytest.raises(ValueError):
        FreeProduct((FreeGroup(2),))
    with pytest.raises(ValueError):
        FreeProduct((FreeGroup(2), "Z3"))
