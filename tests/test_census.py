"""Component spectra, convolution, and certified lower bounds.

The convolution oracle multiplies out spectra term by term with
itertools, independently of the accumulator in the package.
"""

import itertools
import json
import random
import sys
import time

import pytest

from sl2rep import census as census_module
from sl2rep.census import (
    MAX_SEQUENCE_COUNT,
    CensusResult,
    ComponentSpectrum,
    QuotientLowerBound,
    central_root_spectrum,
    consecutive_prime_triples,
    distinguishing_sequence,
    exact_census,
    lower_bound_census,
    prime_triple,
    product_spectrum,
    triple_bound,
    triple_group,
    _top_count,
)
from sl2rep.cli import main
from sl2rep.dimension import representation_dim
from sl2rep.families import MAX_FAMILY_INDEX, witness_group
from sl2rep.presentations import CyclicFinite, FreeGroup, FreeProduct, ProductPower


def convolve_brute(spectra):
    """Reference convolution over all index combinations."""
    out = {}
    for combo in itertools.product(*(s.entries.items() for s in spectra)):
        dim = sum(d for d, _ in combo)
        count = 1
        for _, c in combo:
            count *= c
        out[dim] = out.get(dim, 0) + count
    return out


def test_product_spectrum_matches_brute_force():
    parts = [
        central_root_spectrum(3, 1),
        central_root_spectrum(8, 1),
        ComponentSpectrum({0: 2, 3: 1, 5: 4}),
    ]
    for size in (1, 2, 3):
        for combo in itertools.combinations(parts, size):
            got = product_spectrum(combo)
            assert got.entries == convolve_brute(combo)


def test_product_spectrum_is_commutative_associative_and_multiplies_totals():
    rng = random.Random(20261018)

    def random_factor():
        if rng.random() < 0.3:
            return exact_census(FreeGroup(rng.randint(0, 3))).spectrum
        return exact_census(CyclicFinite(rng.randint(2, 60))).spectrum

    for _ in range(200):
        a, b, c = (random_factor() for _ in range(3))
        ab = product_spectrum([a, b])
        assert ab.entries == product_spectrum([b, a]).entries
        left = product_spectrum([ab, c])
        assert left.entries == product_spectrum([a, product_spectrum([b, c])]).entries
        assert left.entries == product_spectrum([a, b, c]).entries
        assert left.total() == a.total() * b.total() * c.total()


def test_exact_census_of_a_huge_cyclic_group_is_closed_form():
    assert exact_census(CyclicFinite(10**9)).spectrum.entries == {0: 2, 2: 499999999}


def test_product_spectrum_needs_a_factor():
    with pytest.raises(ValueError):
        product_spectrum([])


def test_product_spectrum_stops_only_on_an_unprintable_result(monkeypatch):
    # with a 3-digit limit, product_spectrum raises before convolving
    # exactly when the convolution, run with the limit off, has an entry
    # of 4 digits or more; it never raises on one it can print
    rng = random.Random(20261018)
    raised = 0
    for _ in range(300):
        factors = [ComponentSpectrum({d: rng.randint(1, 40)
                                      for d in rng.sample(range(7), rng.randint(1, 3))})
                   for _ in range(rng.randint(1, 4))]
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        largest = max(product_spectrum(factors).entries.values())
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 3)
        try:
            product_spectrum(factors)
        except ValueError as exc:
            assert str(exc) == "a result exceeds the limit (3 digits) for printing an integer"
            assert largest >= 1000
            raised += 1
    # 128 of the 157 unprintable cases stop early; render catches the rest
    assert raised == 128


def test_exact_census_of_an_odd_cyclic_triple():
    spec = FreeProduct((CyclicFinite(3), CyclicFinite(5), CyclicFinite(7)))
    result = exact_census(spec)
    assert result.spectrum.entries == {0: 1, 2: 6, 4: 11, 6: 6}
    assert result.spectrum.total() == 2 * 3 * 4
    assert result.basis is None


def test_exact_census_with_an_even_order_factor():
    spec = FreeProduct((CyclicFinite(2), CyclicFinite(3), CyclicFinite(5)))
    result = exact_census(spec)
    assert result.spectrum.entries == {0: 2, 2: 6, 4: 4}
    assert result.spectrum.dimension() == 4
    assert result.basis is None


def test_exact_census_of_free_groups():
    assert exact_census(FreeGroup(3)).spectrum.entries == {9: 1}
    spec = FreeProduct((FreeGroup(1), CyclicFinite(4)))
    assert exact_census(spec).spectrum.entries == {3: 2, 5: 1}


def test_exact_census_rejects_product_powers():
    with pytest.raises(ValueError):
        exact_census(ProductPower((3, 5, 7)))
    with pytest.raises(ValueError):
        exact_census(FreeProduct((FreeGroup(1), ProductPower((2, 2)))))


def test_odd_triple_top_count_formula():
    for p, q, t in itertools.product((3, 5, 7, 9), repeat=3):
        spec = FreeProduct((CyclicFinite(p), CyclicFinite(q), CyclicFinite(t)))
        spectrum = exact_census(spec).spectrum
        assert spectrum.dimension() == 6
        assert spectrum.count(6) == (p - 1) * (q - 1) * (t - 1) // 8


@pytest.mark.parametrize(
    "exponents,bound",
    [
        ((3, 5, 7), 6),
        ((-3, -5, -7), 6),
        ((11, 13, 17), 240),
        ((19, 23, 29), 1386),
    ],
)
def test_lower_bound_census_values(exponents, bound):
    result = lower_bound_census(ProductPower(exponents))
    assert result.spectrum.count(6) == bound
    assert isinstance(result.basis, QuotientLowerBound)
    assert result.basis.dim_check == 6


def test_lower_bound_census_with_free_factor():
    group = FreeProduct((FreeGroup(1), ProductPower((11, 13, 17))))
    result = lower_bound_census(group)
    assert result.basis.dim_check == 9
    assert result.spectrum.count(9) == 240
    assert result.basis.quotient == FreeProduct(
        (FreeGroup(1), CyclicFinite(11), CyclicFinite(13), CyclicFinite(17))
    )


NO_POWER = ("lower bound census is only available with a product-power factor; "
            "use exact_census without one")


@pytest.mark.parametrize(
    "spec,c,bound",
    [
        # a cyclic factor joins the quotient as it is
        (FreeProduct((ProductPower((3, 5, 7)), CyclicFinite(4))), 8, 6),
        # two relators: 6 * 240
        (FreeProduct((ProductPower((3, 5, 7)), ProductPower((11, 13, 17)))), 12, 1440),
        # a two-letter relator: Z3 * Z5 has 1 * 2 orbit products at dimension 4
        (ProductPower((3, 5)), 4, 2),
        # Z2's two central points double the count
        (FreeProduct((CyclicFinite(2), ProductPower((3, 5, 7)))), 6, 12),
    ],
)
def test_lower_bound_census_of_every_shape(spec, c, bound):
    result = lower_bound_census(spec)
    assert result.spectrum.entries == {c: bound}
    assert result.basis.dim_check == c == representation_dim(spec).dim


def test_lower_bound_census_quotient_keeps_factor_order_after_the_frees():
    spec = FreeProduct((ProductPower((3, -5)), FreeGroup(1), CyclicFinite(4), FreeGroup(2),
                        ProductPower((7, 9, -11))))
    quotient = lower_bound_census(spec).basis.quotient
    assert quotient == FreeProduct((FreeGroup(1), FreeGroup(2)) + tuple(
        CyclicFinite(p) for p in (3, 5, 4, 7, 9, 11)))


def test_lower_bound_census_rejections():
    # a 2 in the relator drops the quotient dimension below the variety's
    with pytest.raises(ValueError, match="quotient variety has dimension 4 != 6"):
        lower_bound_census(ProductPower((2, 3, 5)))
    # from four letters on, the generic floor 3(n-1) outgrows the quotient's 2n
    with pytest.raises(ValueError, match="quotient variety has dimension 8 != 9"):
        lower_bound_census(ProductPower((3, 5, 7, 9)))
    for spec in (FreeGroup(2), CyclicFinite(5), FreeProduct((CyclicFinite(2), FreeGroup(1)))):
        with pytest.raises(ValueError) as info:
            lower_bound_census(spec)
        assert str(info.value) == NO_POWER


def test_top_term_is_the_quotient_spectrum_top():
    for free_rank in range(4):
        for orders in itertools.product(range(2, 14), repeat=3):
            quotient = FreeProduct((FreeGroup(free_rank),) + tuple(map(CyclicFinite, orders)))
            spectrum = exact_census(quotient).spectrum
            top = spectrum.dimension()
            assert _top_count(free_rank, orders, top) == spectrum.count(top)
    # Z2 has no orbit: its top term is its two central points
    assert _top_count(0, (2,), 0) == 2


def bound_by_quotient_spectrum(spec):
    """lower_bound_census by the full convolution: the quotient that keeps
    the free factors, then replaces every other factor by its cyclic
    groups (Z_n by itself, a relator x1^p1 ... xk^pk by Z_|p1| * ... *
    Z_|pk|), its exact spectrum, its dimension checked against the
    variety's, and its count there."""
    factors = spec.factors if isinstance(spec, FreeProduct) else (spec,)
    if not any(isinstance(f, ProductPower) for f in factors):
        raise ValueError(NO_POWER)
    cyclics = []
    for f in factors:
        if isinstance(f, CyclicFinite):
            cyclics.append(f)
        elif isinstance(f, ProductPower):
            cyclics.extend(CyclicFinite(abs(p)) for p in f.exponents)
    quotient = FreeProduct(tuple(f for f in factors if isinstance(f, FreeGroup)) + tuple(cyclics))
    c = representation_dim(spec).dim
    spectrum = exact_census(quotient).spectrum
    if spectrum.dimension() != c:
        raise ValueError(
            f"quotient variety has dimension {spectrum.dimension()} != {c}; "
            "the lower bound does not apply"
        )
    return CensusResult(ComponentSpectrum({c: spectrum.count(c)}), QuotientLowerBound(quotient, c))


def outcome(bound, spec):
    try:
        return bound(spec)
    except ValueError as exc:
        return str(exc)


def test_lower_bound_census_matches_the_quotient_spectrum():
    # every triple with |p| <= 13, both signs, 2s and even exponents
    # included, under free factors of ranks 0-3 in turn
    free_choices = [(), (FreeGroup(1),), (FreeGroup(2),), (FreeGroup(3),),
                    (FreeGroup(1), FreeGroup(2))]
    exponents = [sign * p for p in range(2, 14) for sign in (1, -1)]
    rejected = 0
    for i, triple in enumerate(itertools.product(exponents, repeat=3)):
        frees = free_choices[i % len(free_choices)]
        spec = FreeProduct(frees + (ProductPower(triple),)) if frees else ProductPower(triple)
        got = outcome(lower_bound_census, spec)
        assert got == outcome(bound_by_quotient_spectrum, spec), spec
        rejected += isinstance(got, str)
    assert rejected == 24 ** 3 - 22 ** 3  # exactly the triples with a 2


def _random_factor(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return FreeGroup(rng.randint(0, 3))
    if kind == 1:
        return CyclicFinite(rng.randint(2, 13))
    return ProductPower(tuple(rng.choice((-1, 1)) * rng.randint(2, 13)
                              for _ in range(rng.randint(2, 4))))


def test_lower_bound_census_matches_the_quotient_spectrum_on_random_free_products():
    # free ranks 0-3, Z2..Z13 and relators of 2-4 letters with |p| <= 13,
    # in free products of up to 4 factors: the same value or error text
    rng = random.Random(20261019)
    seen = {"bound": 0, "dimension": 0, "no power": 0}
    for _ in range(3000):
        factors = tuple(_random_factor(rng) for _ in range(rng.randint(1, 4)))
        spec = factors[0] if len(factors) == 1 else FreeProduct(factors)
        got = outcome(lower_bound_census, spec)
        assert got == outcome(bound_by_quotient_spectrum, spec), spec
        if not isinstance(got, str):
            seen["bound"] += 1
        else:
            seen["no power" if got == NO_POWER else "dimension"] += 1
    assert min(seen.values()) >= 300, seen


def test_consecutive_prime_triples():
    gen = consecutive_prime_triples()
    first = [next(gen) for _ in range(5)]
    assert first == [
        (3, 5, 7),
        (11, 13, 17),
        (19, 23, 29),
        (31, 37, 41),
        (43, 47, 53),
    ]
    assert prime_triple(0) == (3, 5, 7)
    assert prime_triple(3) == (31, 37, 41)
    with pytest.raises(ValueError):
        prime_triple(-1)


def odd_primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for d in range(2, int(n ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytearray(len(sieve[d * d::d]))
    return [k for k in range(3, n) if sieve[k]]


def test_prime_triple_walk_matches_a_sieve():
    # every triple family_member accepts; the last is (350411, 350423, 350429)
    count = MAX_FAMILY_INDEX + 1
    primes = odd_primes_below(350430)
    reference = [tuple(primes[3 * i:3 * i + 3]) for i in range(count)]
    walk = list(itertools.islice(consecutive_prime_triples(), count))
    assert walk == reference
    assert [prime_triple(i) for i in range(200)] == reference[:200]
    assert prime_triple(MAX_FAMILY_INDEX) == reference[-1]


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_triple_bound_is_the_certified_count(rank):
    for triple in itertools.islice(consecutive_prime_triples(), 2000):
        census = lower_bound_census(triple_group(rank, triple))
        assert triple_bound(triple) == census.spectrum.count(3 * rank)


@pytest.mark.parametrize("c", [6, 9, 12])
def test_distinguishing_sequence_is_the_certified_census(c):
    entries = distinguishing_sequence(c, 500)
    assert len(entries) == 500
    assert entries == [(group, lower_bound_census(group).spectrum.count(c)) for group, _ in entries]
    assert all(type(bound) is int for _, bound in entries)


def test_distinguishing_sequence_certifies_once_and_checks_every_member(monkeypatch):
    # one full quotient census, of the first member, whatever the count
    calls = []
    lower_bound_at = census_module._lower_bound_at

    def counted(*args):
        calls.append(args)
        return lower_bound_at(*args)

    monkeypatch.setattr(census_module, "_lower_bound_at", counted)
    for count in (0, 1, 40, 500):
        calls.clear()
        distinguishing_sequence(9, count)
        assert len(calls) == 1
    # every member's count still checks its own quotient dimension: the
    # fifth member, (43, 47, 53), reads Z_53 two dimensions too high
    base_dim = census_module.base_dim

    def wrong_for_one(p, sign):
        return base_dim(p, sign) + 2 * (p == 53)

    monkeypatch.setattr(census_module, "base_dim", wrong_for_one)
    assert len(distinguishing_sequence(9, 4)) == 4
    with pytest.raises(ValueError, match="quotient variety has dimension 11 != 9"):
        distinguishing_sequence(9, 5)


@pytest.mark.parametrize("c", [6, 9, 12])
def test_sequence_command_matches_the_sieved_triples(c, capsys):
    # member i is the i-th triple of consecutive odd primes, times
    # F_{c/3-2}, with the closed-form count (p-1)(q-1)(r-1)/8
    assert main(["sequence", "--dim", str(c), "--count", "300", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    members = {r["name"]: r["value"] for r in payload["results"]}["groups"]
    primes = odd_primes_below(8000)
    assert len(members) == 300 and len(primes) >= 900
    free = "" if c == 6 else f"F{c // 3 - 2} * "
    for i, member in enumerate(members):
        p, q, r = primes[3 * i:3 * i + 3]
        assert member == {"group": f"{free}<a,b,c; a^{p} b^{q} c^{r}>", "dimension": c,
                          "lower_bound": (p - 1) * (q - 1) * (r - 1) // 8}


def test_distinguishing_sequence_at_its_cap_is_quick():
    start = time.perf_counter()
    entries = distinguishing_sequence(12, MAX_SEQUENCE_COUNT)
    elapsed = time.perf_counter() - start
    assert len(entries) == MAX_SEQUENCE_COUNT
    assert elapsed < 0.5


def test_distinguishing_sequence_and_witness_regression():
    # values of the enumerating implementation, which rescanned the
    # primes for every index
    entries = distinguishing_sequence(9, 40)
    primes = odd_primes_below(700)
    assert [group for group, _ in entries] == [
        FreeProduct((FreeGroup(1), ProductPower(tuple(primes[3 * i:3 * i + 3]))))
        for i in range(40)
    ]
    assert entries[-1][0].factors[1] == ProductPower((653, 659, 661))
    assert [bound for _, bound in entries] == [
        6, 240, 1386, 5400, 12558, 28710, 49140, 86592, 135150, 190512,
        304980, 432900, 578178, 760950, 931392, 1317015, 1573656, 1920000,
        2369790, 2724120, 3462390, 4066920, 5057136, 5765232, 6714414,
        7682400, 8953560, 10170360, 11286912, 12379290, 14228865, 15874746,
        18322200, 21326214, 23310720, 25931672, 27815400, 29979180,
        33178560, 35393820,
    ]
    for group, bound in entries:
        census = lower_bound_census(group)
        assert census.spectrum.entries == {9: bound}
        cyclics = tuple(CyclicFinite(p) for p in group.factors[1].exponents)
        assert census.basis == QuotientLowerBound(FreeProduct((FreeGroup(1),) + cyclics), 9)

    group, census = witness_group(3, 10**8)
    assert group == FreeProduct((FreeGroup(1), ProductPower((929, 937, 941))))
    assert census.spectrum.entries == {9: 102061440}
    assert census.basis == QuotientLowerBound(
        FreeProduct((FreeGroup(1), CyclicFinite(929), CyclicFinite(937), CyclicFinite(941))), 9
    )


def test_distinguishing_sequence_rank_two():
    entries = distinguishing_sequence(6, 4)
    bounds = [bound for _, bound in entries]
    assert bounds == [6, 240, 1386, 5400]
    assert bounds == [lower_bound_census(group).spectrum.count(6) for group, _ in entries]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    groups = [group for group, _ in entries]
    assert groups[0] == ProductPower((3, 5, 7))
    assert all(isinstance(g, ProductPower) for g in groups)


def test_distinguishing_sequence_higher_rank():
    entries = distinguishing_sequence(9, 2)
    bounds = [bound for _, bound in entries]
    assert bounds == [6, 240]
    assert bounds == [lower_bound_census(group).spectrum.count(9) for group, _ in entries]
    group = entries[0][0]
    assert group == FreeProduct((FreeGroup(1), ProductPower((3, 5, 7))))


def test_distinguishing_sequence_validation():
    with pytest.raises(ValueError):
        distinguishing_sequence(7, 2)
    with pytest.raises(ValueError):
        distinguishing_sequence(3, 2)
    with pytest.raises(ValueError):
        distinguishing_sequence(6, -1)
    assert distinguishing_sequence(6, 0) == []
