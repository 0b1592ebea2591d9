"""Matrix kernel: powers, words, k-th root branches."""

import numpy as np
import pytest

from sl2rep.dimension import central_signs, orbit_count
from sl2rep.matrices import (
    IDENTITY,
    adjugate,
    branch_roots,
    determinant,
    eval_word,
    mat2,
    mat_power,
    matrix_roots,
    mul2,
    power_stack,
    random_sl2,
)
from sl2rep.oracle import _orbit_point


def naive_power(m, k):
    """Reference power by plain repeated multiplication."""
    base = adjugate(m) if k < 0 else np.asarray(m, dtype=complex)
    out = np.eye(2, dtype=complex)
    for _ in range(abs(k)):
        out = out @ base
    return out


def _scalar_determinant(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _scalar_adjugate(m):
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


def _product(a, b):
    """(ab)_ij = a_i0 b_0j + a_i1 b_1j in numpy's array loops, on copies
    of the columns and rows (numpy's scalar arithmetic rounds differently)."""
    return a[..., :, [0]] * b[..., [0], :] + a[..., :, [1]] * b[..., [1], :]


def _scalar_power(m, k):
    """Binary exponentiation with the single-matrix formulas above."""
    base = _scalar_adjugate(m) if k < 0 else np.asarray(m, dtype=complex)
    k = abs(k)
    result = np.eye(2, dtype=complex)
    while k:
        if k & 1:
            result = _product(result, base)
        base = _product(base, base)
        k >>= 1
    return result


def test_single_matrix_kernel_is_bitwise_the_scalar_formulas():
    # the samplers' numbers, and so the report bytes, depend on the
    # single-matrix path staying exactly these formulas: the adjugate,
    # ad - bc, and every product as the entry-wise a_i0 b_0j + a_i1 b_1j
    # in numpy's array loops (not BLAS's @, not numpy's scalar arithmetic)
    rng = np.random.default_rng(71)
    for _ in range(20):
        m = random_sl2(rng) * complex(*rng.standard_normal(2))
        assert determinant(m) == _scalar_determinant(m)
        assert np.array_equal(adjugate(m), _scalar_adjugate(m))
        for k in (0, 1, 2, 7, 60, -1, -3, -60):
            assert np.array_equal(mat_power(m, k), _scalar_power(m, k))
    mats = [random_sl2(rng) for _ in range(4)]
    exps = (3, -5, 2, 9)
    ref = np.eye(2, dtype=complex)
    for m, p in zip(mats, exps):
        ref = _product(ref, _scalar_power(m, p))
    assert np.array_equal(eval_word(mats, exps), ref)
    assert np.array_equal(eval_word(np.stack(mats), exps), ref)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("left,right", [
    ((2, 2), (2, 2)),
    ((6, 2, 2), (6, 2, 2)),
    ((6, 4, 2, 2), (6, 1, 2, 2)),
    ((4, 2, 2), (2, 2)),
])
def test_mul2_is_the_matrix_product(left, right):
    rng = np.random.default_rng(79)
    eps = np.finfo(float).eps
    for _ in range(20):
        # magnitudes spread over six decades, as in high-power words
        a = _complex(rng, left) * 10.0 ** rng.uniform(-3, 3, left[:-2] + (1, 1))
        b = _complex(rng, right)
        got = mul2(a, b)
        ref = a @ b
        assert got.shape == ref.shape
        bound = 4 * eps * np.linalg.norm(a, axis=(-2, -1)) * np.linalg.norm(b, axis=(-2, -1))
        assert np.all(np.max(abs(got - ref), axis=(-2, -1)) <= bound)


def test_mul2_rows_are_bitwise_the_row_alone():
    rng = np.random.default_rng(83)
    a, b = _complex(rng, (9, 4, 2, 2)), _complex(rng, (9, 1, 2, 2))
    stacked = mul2(a, b)
    for i in range(9):
        assert np.array_equal(stacked[i], mul2(a[i], b[i]))
        assert np.array_equal(stacked[i], mul2(a[i:i + 1], b[i:i + 1])[0])
        for j in range(4):
            assert np.array_equal(stacked[i, j], mul2(a[i, j], b[i, 0]))
            assert np.array_equal(stacked[i, j], _product(a[i, j], b[i, 0]))


def test_kernel_on_stacks_matches_matrix_by_matrix():
    rng = np.random.default_rng(73)
    stack = np.stack([random_sl2(rng) * complex(*rng.standard_normal(2))
                      for _ in range(12)]).reshape(3, 4, 2, 2)
    flat = stack.reshape(12, 2, 2)
    assert determinant(stack).shape == (3, 4)
    assert np.allclose(determinant(stack).ravel(),
                       [_scalar_determinant(m) for m in flat], rtol=1e-14, atol=0)
    assert np.array_equal(adjugate(stack).reshape(12, 2, 2),
                          np.stack([_scalar_adjugate(m) for m in flat]))
    for k in (0, 1, 7, -3):
        got = mat_power(stack, k)
        assert got.shape == (3, 4, 2, 2)
        assert np.allclose(got.reshape(12, 2, 2), np.stack([_scalar_power(m, k) for m in flat]),
                           rtol=1e-12, atol=0)
    exps = (2, -3, 5, 4)
    words = eval_word(stack, exps)
    assert words.shape == (3, 2, 2)
    for point, word in zip(stack, words):
        assert np.allclose(word, eval_word(list(point), exps), rtol=1e-12, atol=0)


def _loop_power(m, k):
    """Reference for power_stack: binary exponentiation of one letter,
    k >= 1, whose first factor is the result itself."""
    base, result = m, None
    while k:
        if k & 1:
            result = base if result is None else mul2(result, base)
        k >>= 1
        if k:
            base = mul2(base, base)
    return result


_WORD_POWERS = tuple(range(2, 10)) + (211, 2000, 10**7)


def _random_words(seed, count):
    """(exponents, letters) for count random words of 1-10 letters with
    mixed signs: letters on eigenvalue-pair orbits through a near-unitary
    conjugator, so every power stays bounded, as (n, 3, 2, 2) stacks."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 11))
        exps = tuple(int(p) * int(s) for p, s in zip(rng.choice(_WORD_POWERS, size=n),
                                                      rng.choice((-1, 1), size=n)))
        yield exps, _orbit_point(rng.uniform(0.05, 0.95, (n, 3)), rng.random((n, 3, 7)))


def _bits(array):
    return array.tobytes(), array.shape


def test_power_stack_is_bitwise_each_letter_alone():
    for exps, stack in _random_words(101, 40):
        for letters in (stack[:, 0], stack):
            got = power_stack(letters, exps)
            assert got.shape == letters.shape
            for letter, p, power in zip(letters, exps, got):
                ref = _loop_power(adjugate(letter) if p < 0 else letter, abs(p))
                assert _bits(power) == _bits(ref) == _bits(mat_power(letter, p))
        # a stack of points is bitwise each point alone
        for point in range(3):
            assert _bits(power_stack(stack[:, point], exps)) == _bits(power_stack(stack, exps)[:, point])


def test_power_stack_takes_no_more_products_than_the_letters_alone():
    calls = []

    def counted(a, b):
        calls.append(len(a))
        return mul2(a, b)

    for exps, stack in _random_words(103, 40):
        ks = tuple(map(abs, exps))
        calls.clear()
        power_stack(stack[:, 0], ks, counted)
        alone = sum(k.bit_length() - 1 + bin(k).count("1") - 1 for k in ks)
        assert len(calls) <= alone
        # one product per bit for the squares and one for the results
        assert len(calls) <= 2 * max(ks).bit_length()
        assert sum(calls) == alone


def test_power_stack_takes_every_integer_power():
    rng = np.random.default_rng(107)
    letters = np.stack([random_sl2(rng) for _ in range(5)])
    kept = letters.copy()
    exps = (0, 1, -1, 3, -4)
    got = power_stack(letters, exps)
    for letter, p, power in zip(letters, exps, got):
        assert _bits(power) == _bits(mat_power(letter, p))
    assert np.array_equal(got[0], IDENTITY) and np.array_equal(got[1], letters[1])
    assert np.array_equal(got[2], adjugate(letters[2]))
    # the caller's letters are left as they were
    assert _bits(letters) == _bits(kept)
    with pytest.raises(ValueError):
        power_stack(letters[:2], (2, 2.0))


def test_mat_power_matches_naive():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = random_sl2(rng)
        for k in range(-6, 7):
            assert np.allclose(mat_power(m, k), naive_power(m, k), atol=1e-9)


def test_mat_power_identity_cases():
    m = mat2(2, 1, 1, 1)
    assert np.array_equal(mat_power(m, 0), IDENTITY)
    assert np.array_equal(mat_power(m, 1), m)
    with pytest.raises(ValueError):
        mat_power(m, 1.5)


def test_adjugate_inverts_det_one_matrices():
    rng = np.random.default_rng(5)
    for _ in range(8):
        m = random_sl2(rng)
        assert determinant(m) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(m @ adjugate(m), IDENTITY, atol=1e-12)
    # adjugate itself never divides by the determinant
    m = mat2(2, 0, 0, 3)
    assert np.allclose(adjugate(m), mat2(3, 0, 0, 2))


def test_eval_word_is_the_product_of_powers():
    rng = np.random.default_rng(9)
    mats = [random_sl2(rng) for _ in range(3)]
    exps = (2, -3, 5)
    direct = mat_power(mats[0], 2) @ mat_power(mats[1], -3) @ mat_power(mats[2], 5)
    assert np.allclose(eval_word(mats, exps), direct, atol=1e-9)
    assert np.array_equal(eval_word(mats, ()), IDENTITY)
    with pytest.raises(ValueError):
        eval_word(mats[:1], (2, 2))


def test_branch_roots_huge_trace_keeps_the_small_eigenvalue():
    # the naive quadratic formula loses the small eigenvalue here
    m = mat2(1e12, 0, 0, 1e-12)
    for k in (1, 2, 3):
        roots, counts = branch_roots(np.broadcast_to(m, (k, 2, 2)), k, np.arange(k))
        assert counts.tolist() == [k] * k
        for root in roots:
            # entry-wise relative: the 1e-12 entry comes back to 9 digits
            assert np.allclose(mat_power(root, k), m, rtol=1e-9, atol=0)


def test_branch_roots_of_an_ill_conditioned_row_leave_the_stack_whole():
    # its unit eigenvectors are ~2e-15 apart, so no eigenbasis of them is
    # numerically invertible; the closed form needs none
    bad = mat2(1.001, 1e12, 0, 1 / 1.001)
    good = random_sl2(np.random.default_rng(23))
    roots, counts = branch_roots(np.stack([bad, good]), 3, [0, 2])
    assert counts.tolist() == [3, 3]
    for root, target in zip(roots, (bad, good)):
        assert np.all(np.isfinite(root))
        assert np.linalg.norm(mat_power(root, 3) - target) <= 1e-6 * np.linalg.norm(target)
    assert _bits(roots[1]) == _bits(branch_roots(good[None], 3, [2])[0][0])


@pytest.mark.parametrize("k", [2, 3, 9, 10**6])
def test_generic_branch_j_takes_lam_to_mu_j(k):
    # branch j has eigenvalue exp((log(lam) + 2 pi i j)/k) on the
    # eigenvector of lam, the eigenvalue with the larger (imag, real)
    m = random_sl2(np.random.default_rng(k))
    values, vectors = np.linalg.eig(m)
    first = max((0, 1), key=lambda i: (values[i].imag, values[i].real))
    lam, v = values[first], vectors[:, first]
    branches = np.array([0, 1, k // 2, k - 1])
    roots, counts = branch_roots(np.broadcast_to(m, (4, 2, 2)), k, branches)
    assert counts.tolist() == [k] * 4
    for branch, root in zip(branches, roots):
        mu = np.exp((np.log(lam) + 2j * np.pi * branch) / k)
        assert np.allclose(root @ v, mu * v, rtol=0, atol=1e-9)


def test_matrix_roots_diagonalizable_branches():
    rng = np.random.default_rng(17)
    for k in (2, 3, 5):
        m = random_sl2(rng)
        roots = matrix_roots(m, k)
        assert len(roots) == k
        for root in roots:
            assert determinant(root) == pytest.approx(1.0, abs=1e-9)
            assert np.allclose(mat_power(root, k), m, atol=1e-7)
        for i in range(k):
            for j in range(i + 1, k):
                assert not np.allclose(roots[i], roots[j], atol=1e-6)


@pytest.mark.parametrize(
    "sign,k,count",
    [
        (1, 2, 2),
        (1, 3, 2),
        (1, 4, 3),
        (-1, 2, 1),
        (-1, 3, 2),
        (-1, 4, 2),
    ],
)
def test_matrix_roots_of_central_matrices(sign, k, count):
    target = sign * np.eye(2, dtype=complex)
    roots = matrix_roots(target, k)
    assert len(roots) == count
    for root in roots:
        assert np.allclose(mat_power(root, k), target, atol=1e-9)


def test_matrix_roots_parabolic_plus():
    u = mat2(1, 1, 0, 1)
    for k in (2, 3, 4):
        roots = matrix_roots(u, k)
        assert len(roots) == 1
        assert np.allclose(roots[0], mat2(1, 1 / k, 0, 1), atol=1e-12)
        assert np.allclose(mat_power(roots[0], k), u, atol=1e-12)


def test_matrix_roots_parabolic_minus_even_obstruction():
    b = mat2(-1, 1, 0, -1)
    assert matrix_roots(b, 2) == []
    assert matrix_roots(b, 4) == []
    for k in (3, 5, 7):
        roots = matrix_roots(b, k)
        assert len(roots) == 1
        root = roots[0]
        assert np.trace(root) == pytest.approx(-2.0, abs=1e-12)
        assert np.allclose(mat_power(root, k), b, atol=1e-10)


def _root_targets(rng):
    """Root targets of every kind branch_roots tells apart, with their
    sign at trace +-2 (0 for generic) and whether they are central."""
    targets = [(random_sl2(rng), 0, False) for _ in range(3)]
    targets += [(sign * IDENTITY, sign, True) for sign in (1, -1)]
    # parabolic, and within CENTRAL_TOL of central
    targets += [(sign * mat2(1, 1, 0, 1), sign, False) for sign in (1, -1)]
    targets += [(sign * mat2(1, 0, -2 + 1j, 1), sign, False) for sign in (1, -1)]
    targets += [(sign * IDENTITY + 1e-10 * mat2(0, 1, 0, 0), sign, True) for sign in (1, -1)]
    return targets


def _branch_count(k, sign, central):
    """The branch count branch_roots documents: k for a trace away from
    +-2, one per component of {A : A^k = sign*I} at sign*I, 1 for a
    parabolic target, and 0 for a parabolic one at -2 with k even."""
    if k == 1 or not sign:
        return k
    if central:
        return len(central_signs(k, sign)) + orbit_count(k, sign)
    return 0 if sign == -1 and k % 2 == 0 else 1


@pytest.mark.parametrize("k", range(1, 10))
def test_branch_roots_on_mixed_stacks(k):
    targets = _root_targets(np.random.default_rng(19 + k))
    # every target on every branch up to twice its count, shuffled
    picks = [(i, branch) for i, (_, sign, central) in enumerate(targets)
             for branch in range(2 * _branch_count(k, sign, central) + 1)]
    picks = [picks[j] for j in np.random.default_rng(k).permutation(len(picks))]
    stack = np.array([targets[i][0] for i, _ in picks])
    roots, counts = branch_roots(stack, k, [branch for _, branch in picks])
    for (i, branch), root, count in zip(picks, roots, counts):
        m, sign, central = targets[i]
        assert count == _branch_count(k, sign, central)
        alone, (alone_count,) = branch_roots(m[None], k, [branch])
        assert alone_count == count and _bits(alone[0]) == _bits(root)
        if count:
            assert determinant(root) == pytest.approx(1.0, abs=1e-9)
            assert np.allclose(mat_power(root, k), m, atol=1e-8)
            # a branch and the branch count above it are the same root
            if branch >= count:
                assert _bits(root) == _bits(roots[picks.index((i, branch % count))])
        else:
            assert np.all(np.isnan(root))
    # distinct branches are distinct roots
    for i, (m, sign, central) in enumerate(targets):
        built = [roots[picks.index((i, b))] for b in range(_branch_count(k, sign, central))]
        for a in range(len(built)):
            for b in range(a + 1, len(built)):
                assert not np.allclose(built[a], built[b], atol=1e-6)


def test_matrix_roots_order_one_and_validation():
    m = mat2(2, 1, 1, 1)
    assert np.array_equal(matrix_roots(m, 1)[0], m)
    with pytest.raises(ValueError):
        matrix_roots(m, 0)


def test_random_sl2_properties():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = random_sl2(rng)
        assert determinant(m) == pytest.approx(1.0, abs=1e-12)
        assert abs(m[0, 0]) >= 0.1
    a = random_sl2(np.random.default_rng(42))
    b = random_sl2(np.random.default_rng(42))
    assert np.array_equal(a, b)


def _scalar_random_sl2(rng):
    """random_sl2's formula with one scalar draw per normal; returns the
    matrix and the number of redrawn attempts."""
    redraws = 0
    while True:
        a, b, c = (complex(rng.standard_normal(), rng.standard_normal()) for _ in range(3))
        if abs(a) >= 0.1:
            return mat2(a, b, c, (1 + b * c) / a), redraws
        redraws += 1


def test_random_sl2_is_the_scalar_draw():
    redraws = 0
    for seed in range(1500):
        got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            m, extra = _scalar_random_sl2(ref)
            assert _bits(random_sl2(got)) == _bits(m)
            redraws += extra
        # both generators stand at the same place in the stream
        assert got.random() == ref.random()
    # seed 700 redraws its first attempt, so the |a| < 0.1 branch is covered
    assert redraws > 0
