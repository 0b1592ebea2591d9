"""Constraint systems, Jacobian ranks, sampling, and verification runs."""

import functools
import itertools
import json
import math

import numpy as np
import pytest

from sl2rep import oracle
from sl2rep.matrices import IDENTITY, adjugate, determinant, mat2, mat_power, random_sl2
from sl2rep.oracle import (
    MAX_CENTRAL_POWER,
    MAX_SAMPLES,
    MAX_VERIFY_EXPONENT,
    ConstraintSystem,
    RankGapError,
    ResidualError,
    SamplePlan,
    Tolerances,
    build_plan,
    complete_point,
    jacobian_fd,
    jacobian_rank,
    local_dimension,
    sample_from_plan,
    sample_rng,
    verify_central_roots,
    verify_dimension,
)
from sl2rep.oracle import _dimension_verdicts, _letters, _orbit_point, _power_with_derivs
from sl2rep.traces import admissible_traces, classify_trace, match_traces, orbit_count


def test_tolerance_defaults():
    tol = Tolerances()
    assert tol.residual == 1e-8
    assert tol.rank_rel == 1e-8
    assert tol.trace == 1e-6
    assert tol.genericity == 1e-4
    assert tol.min_rank_gap == 1e3
    assert tol.fd_step == 1e-6
    assert set(tol.to_dict()) == {
        "residual",
        "rank_rel",
        "trace",
        "genericity",
        "min_rank_gap",
    }


def test_constraint_system_validation():
    with pytest.raises(ValueError):
        ConstraintSystem(0)
    with pytest.raises(ValueError):
        ConstraintSystem(2, (2, 2, 2))
    with pytest.raises(ValueError):
        ConstraintSystem(2, (2, 2), 3)
    system = ConstraintSystem(2, (2, 2), 1)
    assert system.ambient_dim == 8


def test_residuals_vanish_on_an_exact_solution():
    # diag(i, -i) squares to -I, so the pair multiplies to +I
    m = np.diag([1j, -1j])
    system = ConstraintSystem(2, (2, 2), 1)
    assert system.residual_norm([m, m]) == pytest.approx(0.0, abs=1e-15)
    off = ConstraintSystem(2, (2, 2), -1)
    assert off.residual_norm([m, m]) == pytest.approx(2.0)


def test_residual_layout():
    system = ConstraintSystem(2, (2, 3), 1)
    mats = [mat2(2, 1, 1, 1), mat2(1, 1, 0, 1)]
    res = system.residuals(mats)
    assert res.shape == (6,)
    free = ConstraintSystem(3)
    assert free.residuals([mat2(1, 0, 0, 1)] * 3).shape == (3,)


@pytest.mark.parametrize("exponents,sign", [((2, 2), 1), ((-3, -5, -7), 1), ((2, 3, 4), -1)])
def test_analytic_jacobian_matches_finite_differences(exponents, sign):
    rng = np.random.default_rng(31)
    system = ConstraintSystem(len(exponents), exponents, sign)
    for _ in range(4):
        mats = np.stack([random_sl2(rng) for _ in exponents])
        analytic = system.jacobian(mats)
        numeric = jacobian_fd(system, mats)
        scale = max(np.linalg.norm(analytic), 1.0)
        assert np.linalg.norm(analytic - numeric) / scale < 1e-5


def _elliptic_point(n, rng):
    """n random elliptic matrices with well-conditioned conjugators, so
    that even 211th powers stay of moderate size."""
    return np.stack([_orbit_point(rng.uniform(0.05, 0.95), rng.random(7)) for _ in range(n)])


def test_residuals_of_a_stack_equal_the_residuals_of_each_point():
    rng = np.random.default_rng(43)
    for exps, sign in [((2, -9, 3), 1), ((211,), -1), ((9, 2, -2, 5, 7), -1), (None, 1)]:
        n = 3 if exps is None else len(exps)
        system = ConstraintSystem(n, exps, sign)
        stack = np.stack([_elliptic_point(n, rng) * (1 + 1e-3 * rng.standard_normal())
                          for _ in range(6)]).reshape(2, 3, n, 2, 2)
        got = system.residuals(stack)
        rows = n if exps is None else n + 4
        assert got.shape == (2, 3, rows)
        for index in np.ndindex(2, 3):
            ref = system.residuals(stack[index])
            assert np.max(np.abs(got[index] - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)


def _column_loop_fd(system, mats, step):
    """The per-column central differences: two residual calls per entry."""
    base = np.asarray(mats, dtype=complex)
    jac = np.zeros((len(system.residuals(base)), system.ambient_dim), dtype=complex)
    for col in range(system.ambient_dim):
        i, e = divmod(col, 4)
        plus, minus = base.copy(), base.copy()
        plus[(i,) + divmod(e, 2)] += step
        minus[(i,) + divmod(e, 2)] -= step
        jac[:, col] = (system.residuals(plus) - system.residuals(minus)) / (2 * step)
    return jac


def test_stacked_jacobian_fd_matches_the_column_loop():
    rng = np.random.default_rng(47)
    step = Tolerances().fd_step
    for n in range(1, 11):
        for sign in (1, -1):
            exps = tuple(int(x) for x in rng.choice((2, 9, 211, -2, -9, -211), size=n))
            system = ConstraintSystem(n, exps, sign)
            mats = _elliptic_point(n, rng)
            got = jacobian_fd(system, mats)
            ref = _column_loop_fd(system, mats, step)
            assert got.shape == (n + 4, 4 * n)
            assert np.linalg.norm(got - ref) <= 1e-9 * max(np.linalg.norm(ref), 1.0)


def test_jacobian_fd_defaults_to_the_tolerance_step():
    system = ConstraintSystem(2, (3, -5), 1)
    mats = _elliptic_point(2, np.random.default_rng(53))
    assert np.array_equal(jacobian_fd(system, mats),
                          jacobian_fd(system, mats, step=Tolerances().fd_step))
    assert not np.array_equal(jacobian_fd(system, mats),
                              jacobian_fd(system, mats, step=2 * Tolerances().fd_step))


def test_free_systems_keep_their_shapes():
    rng = np.random.default_rng(59)
    for n in (1, 3):
        system = ConstraintSystem(n)
        mats = np.stack([random_sl2(rng) for _ in range(n)])
        assert system.residuals(mats).shape == (n,)
        numeric = jacobian_fd(system, mats)
        assert numeric.shape == (n, 4 * n)
        assert np.allclose(numeric, system.jacobian(mats), rtol=0, atol=1e-8)


def _linear_power_derivs(m, p):
    """Entry derivatives of m^p as the O(|p|) sum of b^j dB b^(k-1-j),
    b = m (or adj m for p < 0), dB the derivative of b in one entry."""
    k = abs(p)
    elems = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    for e in range(4):
        elems[e][divmod(e, 2)] = 1.0
    base, dbase = (m, elems) if p >= 0 else (adjugate(m), [adjugate(e) for e in elems])
    powers = [np.eye(2, dtype=complex)]
    for _ in range(k):
        powers.append(powers[-1] @ base)
    return np.stack([
        sum(powers[j] @ db @ powers[k - 1 - j] for j in range(k)) for db in dbase
    ])


def _rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _power_test_points():
    rng = np.random.default_rng(41)
    elliptic = [_orbit_point(rng.uniform(0.05, 0.95), rng.random(7)) for _ in range(3)]
    # trace 2 - 1e-3: near-parabolic, where closed forms in the trace lose digits
    near_parabolic = _orbit_point(np.arccos(1 - 5e-4) / np.pi, rng.random(7))
    assert abs(np.trace(near_parabolic) - (2 - 1e-3)) < 1e-9
    return elliptic + [near_parabolic, elliptic[0] * (1 + 1e-4)]


_TEST_POWERS = (2, 9, 211, 2000, -2, -9, -211, -2000)


def test_power_value_is_bitwise_mat_power():
    for m in _power_test_points():
        for p in _TEST_POWERS:
            assert np.array_equal(_power_with_derivs(m, p)[0], mat_power(m, p))


def test_power_derivatives_match_sum_and_differences():
    step = 1e-6
    for m in _power_test_points():
        for p in _TEST_POWERS:
            derivs = _power_with_derivs(m, p)[1]
            assert derivs.shape == (4, 2, 2)
            assert _rel_err(derivs, _linear_power_derivs(m, p)) < 1e-10
            if abs(p) > 211:
                continue  # differences are too coarse at higher powers
            for e in range(4):
                bump = np.zeros((2, 2), dtype=complex)
                bump[divmod(e, 2)] = step
                diff = (mat_power(m + bump, p) - mat_power(m - bump, p)) / (2 * step)
                assert _rel_err(derivs[e], diff) < 1e-5


def _product(a, b):
    """(ab)_ij = a_i0 b_0j + a_i1 b_1j in numpy's array loops: the 2x2
    product the oracle's stacks use, written out here as the reference."""
    return a[..., :, [0]] * b[..., [0], :] + a[..., :, [1]] * b[..., [1], :]


def test_stacked_power_derivatives_match_differences():
    # the jet [m^k, d m^k] carried through a (2, 3) stack of points at once
    step = 1e-6
    stack = np.stack(_power_test_points()[:3] * 2).reshape(2, 3, 2, 2)
    for p in (2, 9, 211, -2, -9, -211):
        values, derivs = _power_with_derivs(stack, p)
        assert values.shape == (2, 3, 2, 2) and derivs.shape == (2, 3, 4, 2, 2)
        assert np.array_equal(values, mat_power(stack, p))
        for e in range(4):
            bump = np.zeros((2, 2), dtype=complex)
            bump[divmod(e, 2)] = step
            diff = (mat_power(stack + bump, p) - mat_power(stack - bump, p)) / (2 * step)
            for got, ref in zip(derivs[..., e, :, :].reshape(-1, 2, 2), diff.reshape(-1, 2, 2)):
                assert _rel_err(got, ref) < 1e-5


def _loop_power_with_derivs(m, p):
    """Reference for _power_with_derivs: the same binary exponentiation on
    one matrix, starting from I, which the stacked code matches bit for
    bit at finite entries."""
    k = abs(p)
    elems = np.eye(4, dtype=complex).reshape(4, 2, 2)
    base, dbase = (np.asarray(m, dtype=complex), elems) if p >= 0 else (adjugate(m), adjugate(elems))
    value = IDENTITY.copy()
    derivs = np.zeros((4, 2, 2), dtype=complex)
    while k:
        if k & 1:
            derivs = _product(derivs, base) + _product(value, dbase)
            value = _product(value, base)
        k >>= 1
        if k:
            dbase = _product(dbase, base) + _product(base, dbase)
            base = _product(base, base)
    return value, derivs


def _loop_jacobian(system, mats):
    """Reference for ConstraintSystem.jacobian: the per-letter loop on one
    point, which the single-point call matches bit for bit."""
    n = system.num_matrices
    jac = np.zeros((n + (4 if system.exponents is not None else 0), 4 * n), dtype=complex)
    for i in range(n):
        a, b, c, d = mats[i].ravel()
        jac[i, 4 * i: 4 * i + 4] = (d, -c, -b, a)
    if system.exponents is not None:
        value = IDENTITY.copy()
        word_derivs = np.zeros((4 * n, 2, 2), dtype=complex)
        for i, p in enumerate(system.exponents):
            factor, factor_derivs = _loop_power_with_derivs(mats[i], p)
            word_derivs = _product(word_derivs, factor)
            word_derivs[4 * i: 4 * i + 4] += _product(value, factor_derivs)
            value = _product(value, factor)
        jac[n:] = word_derivs.reshape(4 * n, 4).T
    return jac


def _stack_cases():
    """(system, three points stacked) on lengths 1-10, both central signs,
    exponents +-{2, 9, 211, 2000}, and a free system."""
    rng = np.random.default_rng(73)
    for n in range(1, 11):
        for sign in (1, -1):
            exps = tuple(int(x) for x in rng.choice(_TEST_POWERS, size=n))
            yield ConstraintSystem(n, exps, sign), np.stack([_elliptic_point(n, rng) for _ in range(3)])
    yield ConstraintSystem(3), np.stack([_elliptic_point(3, rng) for _ in range(3)])


def test_single_point_jacobian_equals_the_loop():
    for system, stack in _stack_cases():
        for mats in stack:
            assert np.array_equal(system.jacobian(mats), _loop_jacobian(system, mats))
    for m in _power_test_points():
        for p in _TEST_POWERS:
            for got, ref in zip(_power_with_derivs(m, p), _loop_power_with_derivs(m, p)):
                assert np.array_equal(got, ref)


def test_stacked_jacobian_and_powers_equal_each_point():
    for system, stack in _stack_cases():
        n = system.num_matrices
        got = system.jacobian(stack)
        assert got.shape == (3, len(system.residuals(stack[0])), 4 * n)
        for mats, jac in zip(stack, got):
            assert np.array_equal(jac, system.jacobian(mats))
        for i, p in enumerate(system.exponents or ()):
            values, derivs = _power_with_derivs(stack[:, i], p)
            assert derivs.shape == (3, 4, 2, 2)
            for mats, value, deriv in zip(stack, values, derivs):
                alone = _power_with_derivs(mats[i], p)
                assert np.array_equal(value, alone[0]) and np.array_equal(deriv, alone[1])


def _replay_verdict(plan, system, seed, index, tol):
    """One sample alone through the single-sample entry points, with the
    rejection order of a run: genericity, obstructed, residual, rank_gap."""
    sample = sample_from_plan(plan, index, sample_rng(seed, index))
    if any(min(abs(w - 2), abs(w + 2)) < tol.genericity for w in sample.witness_traces):
        return "genericity"
    if sample.mats is None:
        return "obstructed"
    try:
        return local_dimension(sample.mats, system, tol).dim
    except ResidualError:
        return "residual"
    except RankGapError:
        return "rank_gap"


@pytest.mark.parametrize(
    "exponents,sign,seed",
    [
        ((3, 5, 7), 1, 0),
        ((-3, 9, -211, 2000), -1, 4),
        ((2, 5), -1, 1),   # stratum: the prefix letter on -I
        ((2, 2), 1, 2),    # stratum: sign flip
        ((-3, 9, 211), 1, 1140749727),   # near-parabolic last matrices
        ((9, 6, 271), -1, 177841464),
    ],
)
def test_run_verdicts_replay_sample_by_sample(exponents, sign, seed):
    system = ConstraintSystem(len(exponents), exponents, sign)
    plan = build_plan(exponents, sign)
    # the tightened gates split most words between accepted and rejected
    for tol in (Tolerances(), Tolerances(genericity=0.2), Tolerances(residual=1e-15),
                Tolerances(residual=3e-15), Tolerances(min_rank_gap=1e15)):
        verdicts, gaps = _dimension_verdicts(plan, system, seed, 10, tol)
        assert verdicts == [_replay_verdict(plan, system, seed, i, tol) for i in range(10)]
        assert len(gaps) == sum(isinstance(v, int) for v in verdicts)
        report = verify_dimension(exponents, sign, num_samples=10, seed=seed, tol=tol)
        assert report.rejections == {r: verdicts.count(r) for r in report.rejections}
        assert report.local_dim_histogram == {d: verdicts.count(d) for d in set(verdicts)
                                              if isinstance(d, int)}


@pytest.mark.parametrize(
    "exponents,sign,seed",
    [((-3, 9, 211), 1, 1140749727), ((9, 6, 271), -1, 177841464)],
)
def test_verify_dimension_near_parabolic_roots(exponents, sign, seed):
    # the polished last matrix has trace close to 2, where a power
    # recurrence in the trace loses the digits the residual gate needs
    report = verify_dimension(exponents, sign, num_samples=1, seed=seed)
    assert report.passed
    assert report.samples_accepted == 1


def test_free_group_local_dimension():
    # no word equation: the variety is all of (SL2C)^n, dimension 3n
    rng = np.random.default_rng(33)
    for n in (1, 2, 4):
        system = ConstraintSystem(n)
        mats = np.stack([random_sl2(rng) for _ in range(n)])
        local = local_dimension(mats, system)
        assert local.dim == 3 * n
        assert local.rank == n


def test_jacobian_rank_gap_behavior():
    clean = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
    rank, gap = jacobian_rank(clean, 1e-8, 1e3)
    assert rank == 1 and gap > 1e9

    rng = np.random.default_rng(3)
    left, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    right, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    graded = left @ np.diag([1.0, 1e-6, 1e-10]) @ right.T
    rank, gap = jacobian_rank(graded, 1e-8, 1e3)
    assert rank == 2 and 1e3 <= gap < 1e6
    with pytest.raises(RankGapError):
        jacobian_rank(graded, 1e-8, 1e6)
    with pytest.raises(RankGapError):
        jacobian_rank(np.array([[1.0, np.nan], [0.0, 1.0]]), 1e-8, 1e3)

    full = jacobian_rank(np.eye(3), 1e-8, 1e3)
    assert full == (3, math.inf)
    assert jacobian_rank(np.zeros((2, 2)), 1e-8, 1e3) == (0, math.inf)


def test_local_dimension_rejects_off_variety_points():
    system = ConstraintSystem(1, (2,), 1)
    with pytest.raises(ResidualError):
        local_dimension(np.stack([mat2(2, 1, 1, 1)]), system)
    with pytest.raises(ResidualError):
        local_dimension(np.stack([mat2(np.nan, 0, 0, 1)]), system)


def test_complete_point_solves_the_word():
    rng = np.random.default_rng(37)
    exps = (-3, -5, -7)
    system = ConstraintSystem(3, exps, 1)
    prefix = [random_sl2(rng), random_sl2(rng)]
    for branch in range(7):
        mats = complete_point(prefix, exps, 1, branch)
        assert mats is not None
        assert system.residual_norm(mats) <= 1e-8
    with pytest.raises(ValueError):
        complete_point(prefix[:1], exps, 1, 0)


def test_complete_point_even_parabolic_obstruction():
    # m^3 lands exactly on the parabolic class with trace -2, where
    # squares do not exist; the sign flip moves it to the unipotent
    # class, where they do
    m1 = mat2(-1, 1 / 3, 0, -1)
    assert np.allclose(mat_power(m1, 3), mat2(-1, 1, 0, -1), atol=1e-14)
    assert complete_point([m1], (3, 2), 1, 0) is None
    mats = complete_point([m1], (3, 2), -1, 0)
    assert mats is not None
    system = ConstraintSystem(2, (3, 2), -1)
    assert system.residual_norm(mats) <= 1e-8


def test_generic_sample_reproducible_and_valid():
    exps = (-3, -5, -7)
    plan = build_plan(exps, 1)
    assert plan.kind == "generic"
    first = sample_from_plan(plan, 0, sample_rng(0, 0)).mats
    again = sample_from_plan(plan, 0, sample_rng(0, 0)).mats
    assert np.array_equal(first, again)
    system = ConstraintSystem(3, exps, 1)
    assert system.residual_norm(first) <= 1e-8


# |p| for the draw properties, up to powers where any letter whose norm is
# not pinned near 1 overflows
_DRAW_POWERS = (2, 9, 211, 2000, 20000)


def test_prefix_letters_are_bounded_by_construction():
    # C and C^-1 have norm <= e^0.2 and |lam^p| <= e^0.2, so ||m^p|| <= e^0.6
    rng = np.random.default_rng(61)
    margin = 2 * (1 - math.cos(0.05))
    for p in _DRAW_POWERS:
        departures = []
        for m in _letters((p,), rng.random((40, 1, 9)))[:, 0]:
            departures.append(np.linalg.norm(m @ m.conj().T - m.conj().T @ m))
            assert abs(determinant(m) - 1) <= 1e-13
            trace = np.trace(m)
            assert min(abs(trace - 2), abs(trace + 2)) >= margin - 1e-12
            for q in (p, -p):
                assert np.linalg.norm(mat_power(m, q), 2) <= math.exp(0.6) * (1 + 1e-9)
        # C = U diag(s, 1/s) with no V would make every letter normal
        assert max(departures) > 1e-2


def test_prefix_words_stay_within_their_bound():
    rng = np.random.default_rng(67)
    for p in _DRAW_POWERS:
        for sign in (1, -1):
            for letters in _letters((p,) * 8, rng.random((10, 8, 9))):
                word = IDENTITY
                for length, m in enumerate(letters, start=1):
                    word = word @ mat_power(m, sign * p)
                    assert np.linalg.norm(word, 2) <= math.exp(0.6 * length) * (1 + 1e-9)


def test_orbit_points_use_a_near_unitary_conjugator():
    rng = np.random.default_rng(71)
    for p in _DRAW_POWERS:
        for m in _orbit_point(np.full(20, 1 / p), rng.random((20, 7))):
            assert abs(determinant(m) - 1) <= 1e-13
            assert np.linalg.norm(m, 2) <= math.exp(0.4) * (1 + 1e-12)
            assert abs(np.trace(m) - 2 * math.cos(math.pi / p)) <= 1e-12


def test_draws_take_a_fixed_number_of_uniforms():
    # no data-dependent loop: a generic sample takes exactly nine uniforms
    # per prefix letter, whatever it drew, in one call that is bitwise the
    # stream of one nine-uniform call per letter
    for n in range(2, 9):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        assert np.array_equal(rng.random(9 * (n - 1)),
                              np.concatenate([ref.random(9) for _ in range(n - 1)]))
        assert rng.bit_generator.state == ref.bit_generator.state
    exps = (9, -211, 2000, -20000, 2)
    plan = build_plan(exps, -1)
    assert plan.kind == "generic"
    for index in range(20):
        rng = np.random.default_rng(index)
        sample_from_plan(plan, index, rng)
        ref = np.random.default_rng(index)
        ref.bit_generator.advance(9 * (len(exps) - 1))
        assert rng.bit_generator.state == ref.bit_generator.state
    # a stratum sample takes an orbit index, then seven uniforms, per letter
    plan = build_plan((2, 5), -1)
    for index in range(20):
        rng, ref = np.random.default_rng(index), np.random.default_rng(index)
        sample_from_plan(plan, index, rng)
        for k, target_sign in ((2, -1), (5, 1)):
            ref.integers(orbit_count(k, target_sign))
            ref.random(7)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_sample_rng_streams():
    a = sample_rng(0, 0).standard_normal(4)
    b = sample_rng(0, 0).standard_normal(4)
    c = sample_rng(0, 1).standard_normal(4)
    d = sample_rng(1, 0).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_build_plan_follows_the_recursion_argmax():
    generic = build_plan((3, 5, 7), 1)
    assert generic.kind == "generic"
    assert build_plan((2, 2), -1).kind == "generic"

    # (2, 5) with sign -1 peaks on the same-sign branch: the prefix
    # letter lands on -I and the last letter on +I
    stratum = build_plan((2, 5), -1)
    assert stratum.kind == "stratum"
    assert stratum.fiber_sign == 1
    assert stratum.prefix == SamplePlan((2,), -1, "leaf")

    flipped = build_plan((2, 2), 1)
    assert flipped.kind == "stratum"
    assert flipped.fiber_sign == -1
    assert flipped.prefix == SamplePlan((2,), -1, "leaf")


@functools.cache
def _reference_dim(exps, sign):
    if len(exps) == 1:
        return 0 if abs(exps[0]) == 2 and sign == 1 else 2
    return max(_reference_dim(exps[:-1], sign) + (0 if abs(exps[-1]) == 2 else 2),
               _reference_dim(exps[:-1], -sign) + 2, 3 * (len(exps) - 1))


def _reference_plan(exps, sign):
    """The recursion's argmax, step by step: generic on ties, then the flip."""
    if len(exps) == 1:
        return SamplePlan(exps, sign, "leaf")
    top = _reference_dim(exps, sign)
    if 3 * (len(exps) - 1) == top:
        return SamplePlan(exps, sign, "generic")
    fiber = -1 if _reference_dim(exps[:-1], -sign) + 2 == top else 1
    return SamplePlan(exps, sign, "stratum", fiber_sign=fiber,
                      prefix=_reference_plan(exps[:-1], sign * fiber))


@pytest.mark.parametrize("n", range(1, 6))
def test_build_plan_is_the_argmax_reference(n):
    for exps in itertools.product((2, -2, 3, -3, 4, 5), repeat=n):
        for sign in (1, -1):
            assert build_plan(exps, sign) == _reference_plan(exps, sign)


def test_sample_from_plan_stratum_matrices_satisfy_the_word():
    plan = build_plan((2, 5), -1)
    system = ConstraintSystem(2, (2, 5), -1)
    for index in range(6):
        sample = sample_from_plan(plan, index, sample_rng(0, index))
        assert sample.mats is not None
        assert system.residual_norm(sample.mats) <= 1e-8


@pytest.mark.parametrize(
    "exponents,sign,expected",
    [
        ((2, 2), 1, 4),
        ((-2, -2), -1, 3),
        ((-2, -5), -1, 4),
        ((3, 5, 7), 1, 6),
    ],
)
def test_verify_dimension_consensus(exponents, sign, expected):
    report = verify_dimension(exponents, sign, num_samples=20, seed=0)
    assert report.passed
    assert report.consensus_dim == expected
    assert report.predicted_dim == expected
    assert list(report.local_dim_histogram) == [expected]
    assert report.agreement == 1.0
    assert report.min_rank_gap >= 1e3
    assert report.samples_accepted + sum(report.rejections.values()) == 20


def test_verify_dimension_big_exponents_in_the_prefix():
    # powers in the hundreds in the prefix: only letters with |lam^p| near 1
    # keep the word, and so the residual floor, small
    report = verify_dimension((500, -700, 3, 5), 1, num_samples=20, seed=2)
    assert report.passed
    assert report.samples_accepted == 20


def test_verify_dimension_validation():
    with pytest.raises(ValueError):
        verify_dimension((5,), 1)
    with pytest.raises(ValueError):
        verify_dimension((2,) * 9, 1)
    with pytest.raises(ValueError):
        verify_dimension((2, 2), 0)
    with pytest.raises(ValueError):
        verify_dimension((2, 2), 1, num_samples=0)
    with pytest.raises(ValueError):
        verify_dimension((2, 2), 1, num_samples=MAX_SAMPLES + 1)
    for exps in ((MAX_VERIFY_EXPONENT + 1, 3, 5), (3, 5, -MAX_VERIFY_EXPONENT - 1), (3, 10**400)):
        with pytest.raises(ValueError):
            verify_dimension(exps, 1)


def test_verify_dimension_at_the_exponent_cap():
    # float64 still checks m^p to the residual gate at the cap
    for exps in ((MAX_VERIFY_EXPONENT, 3, 5), (3, 5, -MAX_VERIFY_EXPONENT),
                 (-MAX_VERIFY_EXPONENT, 3)):
        for sign in (1, -1):
            report = verify_dimension(exps, sign, num_samples=10, seed=5)
            assert report.passed
            assert report.samples_accepted == 10


def test_verify_dimension_report_is_deterministic():
    first = verify_dimension((2, 3), -1, num_samples=12, seed=5).to_dict()
    second = verify_dimension((2, 3), -1, num_samples=12, seed=5).to_dict()
    assert json.dumps(first) == json.dumps(second)
    assert first["pass"] is True


def test_verify_central_roots_with_orbits():
    report = verify_central_roots(5, 1, num_samples=12, seed=0)
    assert report.passed
    assert report.consensus_dim == 2
    assert report.central_checks == {"+2": 0}
    assert set(report.trace_class_tallies) == {"2cos(2pi/5)", "2cos(4pi/5)"}
    assert report.samples_accepted > 0


def test_verify_central_roots_central_only():
    report = verify_central_roots(2, 1, num_samples=8, seed=0)
    assert report.passed
    assert report.consensus_dim == 0
    assert report.predicted_dim == 0
    assert report.central_checks == {"+2": 0, "-2": 0}
    assert report.samples_requested == 0
    assert report.to_dict()["min_rank_gap"] == "inf"


def test_verify_central_roots_high_power():
    # the residual floor of A^p grows like |p| eps cond(C)^2, so at this
    # power every sample passes only with near-unitary conjugators
    report = verify_central_roots(6000, 1, num_samples=1, seed=0)
    assert report.passed
    assert report.samples_accepted == report.samples_requested == 2999


def _classify_against_every_class(value, table, tol):
    """Reference matcher: distances to every class, the last nearest one
    within tol."""
    errs = np.abs(complex(value) - table.values)
    hits = np.flatnonzero(errs <= min(tol, errs.min(initial=math.inf)))
    return table[hits[-1]] if len(hits) else None


@pytest.mark.parametrize("p,sign,samples", [(7, 1, 24), (600, -1, 1000), (MAX_CENTRAL_POWER, 1, 10)])
def test_trace_matching_equals_classify_trace_on_every_sample(p, sign, samples):
    tol, seed = Tolerances(), 5
    report = verify_central_roots(p, sign, samples, seed, tol)
    # the samples of the run, rebuilt: per_class draws of each orbit class
    table = admissible_traces(p, sign)
    orbits = [cls for cls in table if not cls.central]
    per_class = max(1, -(-samples // len(orbits)))
    angles = np.repeat([float(cls.angle) for cls in orbits], per_class)
    uniforms = np.stack([sample_rng(seed, index).random(7) for index in range(len(angles))])
    values = np.trace(_orbit_point(angles, uniforms), axis1=-2, axis2=-1)
    assert report.passed and report.samples_accepted == len(values)
    # nudged copies miss; near +-2 at p = 10^4 neighbouring classes lie
    # closer than tol.trace, so jittered class values test the
    # smallest-distance rule
    rng = np.random.default_rng(89)
    nudged = values + 10.0 ** rng.uniform(-8, -5, len(values)) * (
        rng.standard_normal(len(values)) + 1j * rng.standard_normal(len(values)))
    jittered = table.values + rng.uniform(-2, 2, len(table)) * tol.trace
    for batch in (values, nudged, jittered):
        matched = [table[row] if row >= 0 else None for row in match_traces(batch, table, tol.trace)]
        assert matched == [classify_trace(value, table, tol.trace) for value in batch]
        assert matched == [_classify_against_every_class(value, table, tol.trace) for value in batch]
    tallies = {}
    for value in values:
        label = classify_trace(value, table, tol.trace).label()
        tallies[label] = tallies.get(label, 0) + 1
    assert report.trace_class_tallies == tallies


def test_verify_central_roots_validation():
    with pytest.raises(ValueError):
        verify_central_roots(MAX_CENTRAL_POWER + 1, 1)
    with pytest.raises(ValueError):
        verify_central_roots(5, 1, num_samples=MAX_SAMPLES + 1)
    with pytest.raises(ValueError):
        verify_central_roots(5, 1, num_samples=0)


def test_verify_central_roots_even_sign_minus():
    report = verify_central_roots(4, -1, num_samples=10, seed=0)
    assert report.passed
    assert report.central_checks == {}
    assert len(report.trace_class_tallies) == 2


def test_verify_central_roots_reports_a_failed_central_check():
    # at this cutoff the Jacobians of +-I have no clean rank cut: the run
    # fails with a report instead of raising
    report = verify_central_roots(4, 1, 4, 0, Tolerances(rank_rel=0.9))
    assert not report.passed
    assert report.central_checks == {"+2": "rank_gap", "-2": "rank_gap"}
    assert json.loads(json.dumps(report.to_dict()))["pass"] is False


@pytest.mark.parametrize("p,sign", [(2, 1), (5, 1), (6, 1), (7, -1)])
def test_both_verify_runs_share_one_check_stage_and_report_builder(monkeypatch, p, sign):
    # the central points and the orbit samples pass one stacked check,
    # and both verify functions assemble their report in one place
    calls = []

    def counted(name):
        original = getattr(oracle, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(oracle, name, wrapper)

    for name in ("_local_dimensions", "local_dimension", "_report"):
        counted(name)
    assert verify_central_roots(p, sign, num_samples=6, seed=1).passed
    assert sorted(calls) == ["_local_dimensions", "_report"]
    calls.clear()
    assert verify_dimension((2, 3), sign, num_samples=6, seed=1).passed
    assert sorted(calls) == ["_local_dimensions", "_report"]


@pytest.mark.parametrize(
    "field,value",
    [(name, value) for name in ("residual", "rank_rel", "trace", "genericity", "min_rank_gap",
                                "fd_step")
     for value in (0.0, -1.0, math.nan, math.inf, -math.inf)]
    + [("rank_rel", 1.0), ("rank_rel", 2.0)],
)
def test_tolerances_reject_values_outside_their_domain(field, value):
    with pytest.raises(ValueError, match=field):
        Tolerances(**{field: value})


def test_verification_report_dict_shape():
    report = verify_dimension((2, 2), 1, num_samples=6, seed=0).to_dict()
    assert set(report) >= {
        "kind",
        "inputs",
        "seed",
        "tolerances",
        "samples_requested",
        "samples_accepted",
        "rejections",
        "local_dim_histogram",
        "consensus_dim",
        "predicted_dim",
        "agreement",
        "min_rank_gap",
        "pass",
    }
    assert report["kind"] == "dimension"
    assert report["samples_requested"] == 6
