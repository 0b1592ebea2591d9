"""Parafree profiles, the isomorphism test, and witness searches."""

import time

import pytest

from sl2rep.census import consecutive_prime_triples, lower_bound_census, triple_group
from sl2rep.families import (
    MAX_FAMILY_INDEX,
    MAX_WITNESS_TARGET,
    EligibilityError,
    family_member,
    meskin_isomorphic,
    parafree_profile,
    witness_group,
)
from sl2rep.presentations import CyclicFinite, FreeGroup, FreeProduct, ProductPower


LENGTH = "length_ok: relator needs at least 3 generator powers"
GCD = "gcd_ok: exponent magnitudes must have gcd 1"


def test_parafree_profile_names_each_failed_hypothesis():
    for exps, message in [
        ((2, 3), LENGTH),
        ((4, 6, 10), GCD),
        ((-4, 6, -10), GCD),
        ((4, 6), f"{LENGTH}; {GCD}"),
    ]:
        with pytest.raises(EligibilityError) as info:
            parafree_profile(ProductPower(exps))
        assert str(info.value) == message, exps
    # magnitudes below 2 never reach parafree_profile: ProductPower rejects them
    with pytest.raises(ValueError, match="absolute value < 2"):
        ProductPower((0, 3, 5))


def test_eligibility_error_lists_failed_fields():
    group = FreeProduct((FreeGroup(1), ProductPower((2, 4))))
    with pytest.raises(EligibilityError) as info:
        parafree_profile(group)
    assert str(info.value) == f"{LENGTH}; {GCD}"
    assert isinstance(info.value, ValueError)


def test_parafree_profile_of_eligible_relators():
    profile = parafree_profile(ProductPower((3, 5, 7)))
    assert profile.rank == 2
    assert profile.min_generators == 3
    assert profile.deviation == 1
    assert profile.freely_indecomposable

    longer = parafree_profile(ProductPower((2, 3, 5, 7, 9)))
    assert (longer.rank, longer.min_generators, longer.deviation) == (4, 5, 1)
    # signs never matter
    assert parafree_profile(ProductPower((-3, -5, -7))).rank == 2


def test_parafree_profile_of_free_products():
    mixed = parafree_profile(FreeProduct((FreeGroup(2), ProductPower((3, 5, 7)))))
    assert mixed.rank == 4
    assert mixed.min_generators == 5
    assert mixed.deviation == 1
    assert not mixed.freely_indecomposable

    two_frees = parafree_profile(
        FreeProduct((FreeGroup(1), FreeGroup(2), ProductPower((2, 3, 5))))
    )
    assert two_frees.rank == 1 + 2 + 2


def test_parafree_profile_rejects_other_shapes():
    with pytest.raises(ValueError):
        parafree_profile(FreeGroup(3))
    with pytest.raises(ValueError):
        parafree_profile(FreeProduct((FreeGroup(1), CyclicFinite(5))))
    with pytest.raises(ValueError):
        parafree_profile(
            FreeProduct((ProductPower((3, 5, 7)), ProductPower((2, 3, 5))))
        )


def test_meskin_isomorphism_is_a_magnitude_multiset_test():
    assert meskin_isomorphic((3, 5, 7), (7, 5, 3))
    assert meskin_isomorphic((3, 5, 7), (-5, 3, -7))
    assert not meskin_isomorphic((3, 5, 7), (3, 5, 11))
    assert not meskin_isomorphic((3, 3, 5), (3, 5, 5))
    assert not meskin_isomorphic((2, 2), (2, 2, 2))
    assert meskin_isomorphic((2, 2), (2, 2))


def test_family_member():
    assert family_member(2, 0) == ProductPower((3, 5, 7))
    assert family_member(2, 1) == ProductPower((11, 13, 17))
    assert family_member(4, 0) == FreeProduct((FreeGroup(2), ProductPower((3, 5, 7))))
    with pytest.raises(ValueError):
        family_member(1, 0)


def test_family_index_bound():
    # the value at the cap was recorded from the walk before it was capped
    assert family_member(2, MAX_FAMILY_INDEX) == ProductPower((350411, 350423, 350429))
    with pytest.raises(ValueError, match="family index"):
        family_member(2, MAX_FAMILY_INDEX + 1)
    with pytest.raises(ValueError, match="family index"):
        family_member(2, -1)


def test_family_members_are_pairwise_nonisomorphic():
    tuples = [family_member(2, i).exponents for i in range(4)]
    for i in range(len(tuples)):
        for j in range(i + 1, len(tuples)):
            assert not meskin_isomorphic(tuples[i], tuples[j])


def test_witness_group_spot_values():
    group, census = witness_group(2, 7)
    assert group == ProductPower((11, 13, 17))
    assert census.spectrum.count(6) == 240

    first, first_census = witness_group(2, 1)
    assert first == ProductPower((3, 5, 7))
    assert first_census.spectrum.count(6) == 6

    tall, tall_census = witness_group(3, 7)
    assert tall == FreeProduct((FreeGroup(1), ProductPower((11, 13, 17))))
    assert tall_census.spectrum.count(9) == 240


WITNESS_TARGETS = [
    target
    for target in [*range(1, 1995, 7), *(10**k + d for k in range(3, 16) for d in (-1, 0, 1))]
    if target <= MAX_WITNESS_TARGET
]


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_witness_group_matches_a_certified_walk(rank):
    # the search certifies every triple it passes and stops at the first
    # whose certified count reaches the target; over increasing targets
    # one walk serves them all, since no earlier triple reaches a larger one
    triples = consecutive_prime_triples()
    current = None
    for target in sorted(WITNESS_TARGETS):
        while current is None or current[1].spectrum.count(3 * rank) < target:
            group = triple_group(rank, next(triples))
            current = group, lower_bound_census(group)
        assert witness_group(rank, target) == current


def test_witness_search_at_its_cap_is_quick():
    start = time.perf_counter()
    group, _ = witness_group(2, MAX_WITNESS_TARGET)
    elapsed = time.perf_counter() - start
    assert group == ProductPower((199999, 200003, 200009))
    assert elapsed < 0.2


def test_witness_group_validation():
    with pytest.raises(ValueError):
        witness_group(2, 0)
    with pytest.raises(ValueError):
        witness_group(1, 5)
