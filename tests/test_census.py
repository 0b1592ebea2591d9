"""Component spectra, convolution, and certified lower bounds.

The convolution oracle multiplies out spectra term by term with
itertools, independently of the accumulator in the package.
"""

import itertools
import random

import pytest

from sl2rep.census import (
    ExactBasis,
    QuotientLowerBound,
    consecutive_prime_triples,
    distinguishing_sequence,
    exact_census,
    lower_bound_census,
    prime_triple,
    product_spectrum,
)
from sl2rep.families import witness_group
from sl2rep.presentations import CyclicFinite, FreeGroup, FreeProduct, ProductPower
from sl2rep.traces import ComponentSpectrum, central_root_spectrum


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


def test_product_spectrum_requires_exact_factors():
    with pytest.raises(ValueError):
        product_spectrum([ComponentSpectrum({6: 1}, exact=False)])
    with pytest.raises(ValueError):
        product_spectrum([])


def test_exact_census_of_an_odd_cyclic_triple():
    spec = FreeProduct((CyclicFinite(3), CyclicFinite(5), CyclicFinite(7)))
    result = exact_census(spec)
    assert result.spectrum.entries == {0: 1, 2: 6, 4: 11, 6: 6}
    assert result.spectrum.total() == 2 * 3 * 4
    assert result.basis == ExactBasis(spec)


def test_exact_census_with_an_even_order_factor():
    spec = FreeProduct((CyclicFinite(2), CyclicFinite(3), CyclicFinite(5)))
    result = exact_census(spec)
    assert result.spectrum.entries == {0: 2, 2: 6, 4: 4}
    assert result.spectrum.dimension() == 4


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
    assert not result.spectrum.exact
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


def test_lower_bound_census_rejections():
    # a 2 in the relator drops the quotient dimension below the variety's
    with pytest.raises(ValueError):
        lower_bound_census(ProductPower((2, 3, 5)))
    with pytest.raises(ValueError):
        lower_bound_census(ProductPower((3, 5, 7, 9)))
    with pytest.raises(ValueError):
        lower_bound_census(FreeGroup(2))
    with pytest.raises(ValueError):
        lower_bound_census(FreeProduct((CyclicFinite(2), ProductPower((3, 5, 7)))))


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
    primes = odd_primes_below(5000)
    reference = [tuple(primes[3 * i:3 * i + 3]) for i in range(200)]
    walk = list(itertools.islice(consecutive_prime_triples(), 200))
    assert walk == reference
    assert [prime_triple(i) for i in range(200)] == reference


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
    assert [census.spectrum.count(9) for _, census in entries] == [
        6, 240, 1386, 5400, 12558, 28710, 49140, 86592, 135150, 190512,
        304980, 432900, 578178, 760950, 931392, 1317015, 1573656, 1920000,
        2369790, 2724120, 3462390, 4066920, 5057136, 5765232, 6714414,
        7682400, 8953560, 10170360, 11286912, 12379290, 14228865, 15874746,
        18322200, 21326214, 23310720, 25931672, 27815400, 29979180,
        33178560, 35393820,
    ]
    for group, census in entries:
        assert census.spectrum.entries.keys() == {9} and not census.spectrum.exact
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
    bounds = [census.spectrum.count(6) for _, census in entries]
    assert bounds == [6, 240, 1386, 5400]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    groups = [group for group, _ in entries]
    assert groups[0] == ProductPower((3, 5, 7))
    assert all(isinstance(g, ProductPower) for g in groups)


def test_distinguishing_sequence_higher_rank():
    entries = distinguishing_sequence(9, 2)
    bounds = [census.spectrum.count(9) for _, census in entries]
    assert bounds == [6, 240]
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
