"""Dimension recursion, closed forms, and reducibility certificates."""

import itertools

import numpy as np
import pytest

from sl2rep.dimension import (
    CERTIFIED_REDUCIBLE,
    IRREDUCIBLE,
    UNDETERMINED,
    RecursionStep,
    base_dim,
    dimension_table,
    freeness_test,
    orbit_count,
    product_power_dim,
    representation_dim,
)
from sl2rep.presentations import CyclicFinite, FreeGroup, FreeProduct, ProductPower


def test_base_dimensions():
    assert base_dim(2, 1) == 0
    assert base_dim(-2, 1) == 0
    assert base_dim(3, 1) == 2
    assert base_dim(9, 1) == 2
    for p in range(2, 10):
        assert base_dim(p, -1) == 2
    with pytest.raises(ValueError):
        base_dim(1, 1)
    with pytest.raises(ValueError):
        base_dim(3, 0)
    # {A : A^p = sign*I} is central points only, dimension 0, exactly
    # when it has no orbit: for p = +-2 at sign +1
    for p in range(2, 40):
        for sign in (1, -1):
            expected = 0 if (p, sign) == (2, 1) else 2
            assert base_dim(p, sign) == base_dim(-p, sign) == expected
            assert (expected == 0) == (orbit_count(p, sign) == 0)


def test_two_letter_dimensions_split_three_four():
    # sign -1 drops to 3 exactly when both exponents are 2
    for p in range(2, 10):
        for q in range(2, 10):
            plus = product_power_dim((p, q), 1).dim
            minus = product_power_dim((p, q), -1).dim
            assert plus == 4
            assert minus == (3 if p == 2 and q == 2 else 4)


def test_two_letter_frozen_examples():
    assert product_power_dim((-2, -2), -1).dim == 3
    assert product_power_dim((-2, -5), -1).dim == 4
    assert product_power_dim((2, 2), 1).dim == 4


def test_closed_form_for_three_or_more_letters():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(3, 11))
        exps = tuple(int(x) for x in rng.integers(2, 10, size=n))
        for sign in (1, -1):
            assert product_power_dim(exps, sign).dim == 3 * (n - 1)


def test_recursion_steps_respect_the_ceiling():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        exps = tuple(int(x) for x in rng.integers(2, 10, size=n))
        table = dimension_table(exps)
        for sign in (1, -1):
            for m, row in enumerate(table, start=2):
                step = row[sign]
                assert step.generic_floor == 3 * (m - 1)
                assert step.dim == max(step.same_sign_branch, step.flip_sign_branch, step.generic_floor)
                assert step.dim <= 3 * (m - 1) + 1
            assert table[-1][sign].dim == product_power_dim(exps, sign).dim


def test_dimension_table_shape():
    table = dimension_table((2, 3, 5))
    assert len(table) == 2
    assert [sorted(row) for row in table] == [[-1, 1], [-1, 1]]
    # D_+(1) = 0 and D_-(1) = 2 for the letter a^2
    assert table[0][1] == RecursionStep(2, 4, 3, 4, True)
    assert table[0][-1] == RecursionStep(4, 2, 3, 4, True)
    assert table[1][1] == RecursionStep(6, 6, 6, 6, True)
    assert dimension_table((7,)) == ()


_ALPHABET = (2, -2, 3, -3, 4, 5)


@pytest.mark.parametrize("n", range(1, 6))
def test_table_rows_are_the_prefix_dimensions(n):
    # one table holds every prefix's dimension, for both signs; the
    # prefixes repeat across the words, so their dimensions are kept
    dims = {}
    for exps in itertools.product(_ALPHABET, repeat=n):
        table = dimension_table(exps)
        assert len(table) == n - 1
        for sign in (1, -1):
            for m in range(2, n + 1):
                step = table[m - 2][sign]
                if (exps[:m], sign) not in dims:
                    dims[exps[:m], sign] = product_power_dim(exps[:m], sign).dim
                assert step.dim == dims[exps[:m], sign]


def test_invariance_under_permutation_and_negation():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        exps = [int(x) for x in rng.integers(2, 10, size=n)]
        flips = rng.integers(0, 2, size=n)
        negated = tuple(-p if f else p for p, f in zip(exps, flips))
        permuted = tuple(int(x) for x in np.array(exps)[rng.permutation(n)])
        for sign in (1, -1):
            base = product_power_dim(tuple(exps), sign).dim
            assert product_power_dim(negated, sign).dim == base
            assert product_power_dim(permuted, sign).dim == base


def test_invariance_under_permutation_and_global_negation_property():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        exps = tuple(int(s * p) for s, p in zip(rng.choice((-1, 1), size=n),
                                                  rng.integers(2, 40, size=n)))
        permuted = tuple(exps[i] for i in rng.permutation(n))
        negated = tuple(-p for p in exps)
        for sign in (1, -1):
            base = product_power_dim(exps, sign).dim
            assert product_power_dim(permuted, sign).dim == base
            assert product_power_dim(negated, sign).dim == base


def test_certificates_for_triples():
    # reducibility is certified exactly when some exponent exceeds 2
    for exps in [(2, 2, 2), (2, 2, 7), (2, 3, 5), (3, 5, 7), (9, 2, 2), (2, 9, 2)]:
        result = product_power_dim(exps, 1)
        expected = CERTIFIED_REDUCIBLE if max(exps) > 2 else UNDETERMINED
        assert result.reducibility == expected
        assert result.dim == 6


def test_certificates_never_fire_for_longer_words():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(4, 11))
        exps = tuple(int(x) for x in rng.integers(2, 10, size=n))
        for sign in (1, -1):
            assert product_power_dim(exps, sign).reducibility == UNDETERMINED


def test_single_letter_words_stay_undetermined():
    result = product_power_dim((5,), 1)
    assert result.dim == 2
    assert result.reducibility == UNDETERMINED
    assert product_power_dim((2,), 1).dim == 0
    assert product_power_dim((2,), -1).dim == 2


def test_representation_dim_by_variant():
    free = representation_dim(FreeGroup(2))
    assert (free.dim, free.reducibility) == (6, IRREDUCIBLE)
    assert representation_dim(FreeGroup(0)).dim == 0

    cyc = representation_dim(CyclicFinite(5))
    assert (cyc.dim, cyc.reducibility) == (2, CERTIFIED_REDUCIBLE)
    assert representation_dim(CyclicFinite(2)).dim == 0

    power = representation_dim(ProductPower((3, 5, 7)))
    assert (power.dim, power.reducibility) == (6, CERTIFIED_REDUCIBLE)

    mixed = representation_dim(
        FreeProduct((FreeGroup(2), CyclicFinite(3), ProductPower((3, 5, 7))))
    )
    assert mixed.dim == 6 + 2 + 6
    assert mixed.reducibility == CERTIFIED_REDUCIBLE

    free_product_of_frees = representation_dim(FreeProduct((FreeGroup(2), FreeGroup(1))))
    assert (free_product_of_frees.dim, free_product_of_frees.reducibility) == (9, IRREDUCIBLE)

    undecided = representation_dim(FreeProduct((FreeGroup(1), ProductPower((2, 2, 2)))))
    assert undecided.dim == 3 + 6
    assert undecided.reducibility == UNDETERMINED


def test_freeness_test():
    for n in range(8):
        assert freeness_test(n, representation_dim(FreeGroup(n)).dim)
    assert not freeness_test(3, product_power_dim((3, 5, 7), 1).dim)
    assert not freeness_test(2, product_power_dim((2, 2), 1).dim)
    with pytest.raises(ValueError):
        freeness_test(-1, 0)
