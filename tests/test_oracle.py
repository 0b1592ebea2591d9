"""Constraint systems, Jacobian ranks, sampling, and verification runs."""

import functools
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sl2rep import dimension, oracle
from sl2rep.dimension import check_sign, dimension_table, orbit_count, product_power_dim
from sl2rep.matrices import IDENTITY, adjugate, determinant, mat2, mat_power, mul2, random_sl2
from sl2rep.oracle import (
    FD_STEP,
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
    uniforms,
    verify_central_roots,
    verify_dimension,
)
from sl2rep.oracle import (
    _checked,
    _dimension_verdicts,
    _draw_samples,
    _letter_jets,
    _letters,
    _orbit_point,
    _width,
)
from sl2rep.traces import TraceTable, admissible_traces, classify_trace, match_traces


def test_tolerance_defaults():
    tol = Tolerances()
    assert tol.residual == 1e-8
    assert tol.rank_rel == 1e-8
    assert tol.trace == 1e-6
    assert tol.genericity == 1e-4
    assert tol.min_rank_gap == 1e3
    assert FD_STEP == 1e-6
    # the report's JSON lists the fields in declaration order
    assert json.dumps(tol.to_dict()) == (
        '{"residual": 1e-08, "rank_rel": 1e-08, "trace": 1e-06, "genericity": 0.0001, '
        '"min_rank_gap": 1000.0}')


def test_constraint_system_validation():
    with pytest.raises(ValueError):
        ConstraintSystem(0, ())
    with pytest.raises(TypeError):
        ConstraintSystem(2)  # every system has a word equation
    with pytest.raises(ValueError):
        ConstraintSystem(2, (2, 2, 2))
    with pytest.raises(ValueError):
        ConstraintSystem(2, (2, 2), 3)
    system = ConstraintSystem(2, (2, 2), 1)
    assert system.ambient_dim == 8


@pytest.mark.parametrize("sign", [0, 3, -2, "+", None])
def test_every_sign_is_checked_by_dimension_check_sign(sign):
    with pytest.raises(ValueError) as expected:
        check_sign(sign)
    assert str(expected.value) == f"sign must be +1 or -1, got {sign!r}"
    for call in (lambda: ConstraintSystem(2, (2, 3), sign), lambda: verify_dimension((2, 3), sign),
                 lambda: product_power_dim((2, 3), sign)):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(expected.value)


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
    for exps, sign in [((2, -9, 3), 1), ((211,), -1), ((9, 2, -2, 5, 7), -1)]:
        n = len(exps)
        system = ConstraintSystem(n, exps, sign)
        stack = np.stack([_elliptic_point(n, rng) * (1 + 1e-3 * rng.standard_normal())
                          for _ in range(6)]).reshape(2, 3, n, 2, 2)
        got = system.residuals(stack)
        assert got.shape == (2, 3, n + 4)
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
    step = FD_STEP
    for n in range(1, 11):
        for sign in (1, -1):
            exps = tuple(int(x) for x in rng.choice((2, 9, 211, -2, -9, -211), size=n))
            system = ConstraintSystem(n, exps, sign)
            mats = _elliptic_point(n, rng)
            got = jacobian_fd(system, mats)
            ref = _column_loop_fd(system, mats, step)
            assert got.shape == (n + 4, 4 * n)
            assert np.linalg.norm(got - ref) <= 1e-9 * max(np.linalg.norm(ref), 1.0)


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


def _power_jet(m, p):
    """m^p (adjugate route for p < 0) and its derivatives in the four
    entries of m, as one letter of _letter_jets: a (..., 2, 2) stack
    gives (..., 2, 2) values and (..., 4, 2, 2) derivatives."""
    jet = _letter_jets(np.asarray(m, dtype=complex)[None], (p,))[0]
    return jet[..., 0, :, :], jet[..., 1:, :, :]


def test_power_value_is_bitwise_mat_power():
    for m in _power_test_points():
        for p in _TEST_POWERS:
            assert np.array_equal(_power_jet(m, p)[0], mat_power(m, p))


def test_power_derivatives_match_sum_and_differences():
    step = 1e-6
    for m in _power_test_points():
        for p in _TEST_POWERS:
            derivs = _power_jet(m, p)[1]
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
        values, derivs = _power_jet(stack, p)
        assert values.shape == (2, 3, 2, 2) and derivs.shape == (2, 3, 4, 2, 2)
        assert np.array_equal(values, mat_power(stack, p))
        for e in range(4):
            bump = np.zeros((2, 2), dtype=complex)
            bump[divmod(e, 2)] = step
            diff = (mat_power(stack + bump, p) - mat_power(stack - bump, p)) / (2 * step)
            for got, ref in zip(derivs[..., e, :, :].reshape(-1, 2, 2), diff.reshape(-1, 2, 2)):
                assert _rel_err(got, ref) < 1e-5


def _loop_power_jet(m, p):
    """Reference for _power_jet: the same binary exponentiation on
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
    jac = np.zeros((n + 4, 4 * n), dtype=complex)
    for i in range(n):
        a, b, c, d = mats[i].ravel()
        jac[i, 4 * i: 4 * i + 4] = (d, -c, -b, a)
    value = IDENTITY.copy()
    word_derivs = np.zeros((4 * n, 2, 2), dtype=complex)
    for i, p in enumerate(system.exponents):
        factor, factor_derivs = _loop_power_jet(mats[i], p)
        word_derivs = _product(word_derivs, factor)
        word_derivs[4 * i: 4 * i + 4] += _product(value, factor_derivs)
        value = _product(value, factor)
    jac[n:] = word_derivs.reshape(4 * n, 4).T
    return jac


def _stack_cases():
    """(system, three points stacked) on lengths 1-10, both central signs,
    exponents +-{2, 9, 211, 2000}."""
    rng = np.random.default_rng(73)
    for n in range(1, 11):
        for sign in (1, -1):
            exps = tuple(int(x) for x in rng.choice(_TEST_POWERS, size=n))
            yield ConstraintSystem(n, exps, sign), np.stack([_elliptic_point(n, rng) for _ in range(3)])


def test_single_point_jacobian_equals_the_loop():
    for system, stack in _stack_cases():
        for mats in stack:
            assert np.array_equal(system.jacobian(mats), _loop_jacobian(system, mats))
    for m in _power_test_points():
        for p in _TEST_POWERS:
            for got, ref in zip(_power_jet(m, p), _loop_power_jet(m, p)):
                assert np.array_equal(got, ref)


def test_stacked_jacobian_and_powers_equal_each_point():
    for system, stack in _stack_cases():
        n = system.num_matrices
        got = system.jacobian(stack)
        assert got.shape == (3, len(system.residuals(stack[0])), 4 * n)
        for mats, jac in zip(stack, got):
            assert np.array_equal(jac, system.jacobian(mats))
        for i, p in enumerate(system.exponents):
            values, derivs = _power_jet(stack[:, i], p)
            assert derivs.shape == (3, 4, 2, 2)
            for mats, value, deriv in zip(stack, values, derivs):
                alone = _power_jet(mats[i], p)
                assert np.array_equal(value, alone[0]) and np.array_equal(deriv, alone[1])


_WORD_POWERS = tuple(range(2, 10)) + (211, 2000, MAX_VERIFY_EXPONENT)


def test_letter_jets_are_bitwise_each_letter_alone():
    # one power chain over a whole word, on one point and on a stack of
    # points, gives every letter the jet of the per-letter loop
    rng = np.random.default_rng(109)
    for _ in range(20):
        n = int(rng.integers(1, 11))
        exps = tuple(int(p) * int(s) for p, s in zip(rng.choice(_WORD_POWERS, size=n),
                                                      rng.choice((-1, 1), size=n)))
        stack = _orbit_point(rng.uniform(0.05, 0.95, (n, 3)), rng.random((n, 3, 7)))
        for letters in (stack[:, 0], stack):
            jets = _letter_jets(letters, exps).reshape(n, -1, 5, 2, 2)
            for letter, p, jet in zip(letters.reshape(n, -1, 2, 2), exps, jets):
                for m, got in zip(letter, jet):
                    value, derivs = _loop_power_jet(m, p)
                    assert np.array_equal(got[0], value) and np.array_equal(got[1:], derivs)
                    assert np.array_equal(got[0], mat_power(m, p))


def _stacked_residual_fd(system, mats, step):
    """Central differences from one residuals call on all 8n points."""
    base = np.asarray(mats, dtype=complex)
    cols = system.ambient_dim
    offsets = (step * np.eye(cols)).reshape((cols,) + base.shape)
    res = system.residuals(base + np.concatenate([offsets, -offsets]))
    return (res[:cols] - res[cols:]).T / (2 * step)


def test_jacobian_fd_is_bitwise_the_stacked_residual_form():
    step = FD_STEP
    for system, stack in _stack_cases():
        for mats in stack:
            got = jacobian_fd(system, mats)
            assert got.tobytes() == _stacked_residual_fd(system, mats, step).tobytes()
    # the acceptance corpus shape: lengths 3-10, exponents 2-9, random_sl2 points
    rng = np.random.default_rng(113)
    for n in range(3, 11):
        system = ConstraintSystem(n, tuple(int(p) for p in rng.integers(2, 10, size=n)), (-1) ** n)
        mats = np.stack([random_sl2(rng) for _ in range(n)])
        assert jacobian_fd(system, mats).tobytes() == _stacked_residual_fd(system, mats, step).tobytes()


def test_jacobian_takes_one_product_per_letter_beyond_its_jet_chain(monkeypatch):
    # every row filled in so far multiplies by letter i's value, or in
    # letter i's own rows its derivatives, in one product
    calls, chains = [], []

    def counted(a, b):
        calls.append(a.shape)
        return mul2(a, b)

    def counted_jets(letters, exps):
        start = len(calls)
        jets = _letter_jets(letters, exps)
        chains.append(len(calls) - start)
        return jets

    monkeypatch.setattr(oracle, "mul2", counted)
    monkeypatch.setattr(oracle, "_letter_jets", counted_jets)
    for system, stack in _stack_cases():
        for mats in (stack[0], stack):
            calls.clear()
            chains.clear()
            system.jacobian(mats)
            (chain,) = chains
            assert len(calls) - chain == system.num_matrices - 1


def test_jacobian_fd_takes_the_determinants_of_the_letter_copies_only(monkeypatch):
    # each of the 8n points moves one entry of one letter, so the 9
    # copies of each letter hold every determinant the points need
    sizes = []

    def counted(m):
        dets = determinant(m)
        sizes.append(np.size(dets))
        return dets

    monkeypatch.setattr(oracle, "determinant", counted)
    for system, stack in _stack_cases():
        sizes.clear()
        jacobian_fd(system, stack[0])
        assert sum(sizes) == 9 * system.num_matrices


def test_power_chains_raise_no_warning_at_the_exponent_cap():
    rng = np.random.default_rng(127)
    cap = MAX_VERIFY_EXPONENT
    for exps in ((cap,), (-cap, 3), (2, cap, -9, -cap, 5)):
        system = ConstraintSystem(len(exps), exps, 1)
        stack = np.stack([_elliptic_point(len(exps), rng) for _ in range(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(system.jacobian(stack)))
            assert np.all(np.isfinite(system.residuals(stack)))
            assert np.all(np.isfinite(jacobian_fd(system, stack[0])))


def _replay_verdict(plan, system, seed, index, tol):
    """One sample alone through the single-sample entry points, with the
    rejection order of a run: genericity, obstructed, residual, rank_gap."""
    sample = sample_from_plan(plan, seed, index)
    if any(min(abs(w - 2), abs(w + 2)) < tol.genericity for w in sample.witness_traces):
        return "genericity"
    if sample.mats is None:
        return "obstructed"
    try:
        return local_dimension(sample.mats, system, tol)
    except ResidualError:
        return "residual"
    except RankGapError:
        return "rank_gap"


@pytest.mark.parametrize(
    "exponents,sign,seed",
    [
        ((3, 5, 7), 1, 0),
        ((-3, 9, -211, 2000), -1, 4),
        ((2, 5), -1, 1),   # orbit plan: the first letter on -I
        ((2, 2), 1, 2),    # orbit plan: sign flip
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
    last = sample_from_plan(build_plan(exponents, sign), seed, 0).mats[-1]
    assert abs(np.trace(last) - 2) < 1e-3
    report = verify_dimension(exponents, sign, num_samples=1, seed=seed)
    assert report.passed
    assert report.samples_accepted == 1


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


@pytest.mark.parametrize("seed", range(6))
def test_polish_takes_one_power_chain_per_step(monkeypatch, seed):
    # 10 to 12 rows of each of these draws take a Gauss-Newton step, and
    # at seed 1 one row goes on to the step limit
    plan, rows = build_plan((-3, 700, 5), -1), np.arange(12)
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_polish_last", lambda *args: calls.append(args) or args[1])
        _draw_samples(plan, rows, uniforms(seed, rows, _width(plan)))
    (args,) = calls

    counts = {"mat_power": 0, "_letter_jets": 0, "_lstsq": 0}

    def counted(name):
        original = getattr(oracle, name)

        def call(*a):
            counts[name] += 1
            return original(*a)
        return call

    for name in counts:
        monkeypatch.setattr(oracle, name, counted(name))
    polished = oracle._polish_last(*args)
    steps = counts.pop("_lstsq")
    assert steps >= 1 and (seed != 1 or steps == 4)
    # the value power at every check, the last one after the last step,
    # and the stepping rows' jets at every step
    assert counts == {"mat_power": steps + 1, "_letter_jets": steps}
    # each row keeps its best iterate, no worse than its root
    word, root, power, sign = args

    def residuals(m):
        words = (mul2(word, mat_power(m, power)) - sign * IDENTITY).reshape(-1, 4)
        return np.max(abs(np.column_stack([determinant(m) - 1, words])), axis=1)
    before, after = residuals(root), residuals(polished)
    assert np.all(after <= before) and np.any(after < before)


def test_generic_sample_reproducible_and_valid():
    exps = (-3, -5, -7)
    plan = build_plan(exps, 1)
    assert plan.orbits is None
    first = sample_from_plan(plan, 0, 0).mats
    again = sample_from_plan(plan, 0, 0).mats
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


# (exponents, sign, uniforms per sample): nine per generic prefix letter,
# eight per orbit letter (an orbit index, then seven for C)
_PLAN_WIDTHS = [((3, 5, 7), 1, 18), ((9, -211, 2000, -20000, 2), -1, 36), ((2, 5), -1, 16),
                ((2, 2), 1, 16)]


def test_draws_take_a_fixed_number_of_uniforms(monkeypatch):
    # a run reads one block of its plan's width and a replay one row of it,
    # and every column counts: moving one moves the draw, except the orbit
    # index of a letter with a single orbit
    widths = []

    def recorded(seed, rows, width):
        widths.append(width)
        return uniforms(seed, rows, width)
    monkeypatch.setattr(oracle, "uniforms", recorded)
    rows = np.arange(4)
    for exps, sign, width in _PLAN_WIDTHS:
        plan = build_plan(exps, sign)
        assert _width(plan) == width
        sample_from_plan(plan, 1, 3)
        verify_dimension(exps, sign, num_samples=4, seed=1)
        assert set(widths) == {width}
        widths.clear()
        block = uniforms(1, rows, width)
        drawn = _draw_samples(plan, rows, block)[0]
        for col in range(width):
            moved = block.copy()
            moved[:, col] = (moved[:, col] + 0.5) % 1
            changed = not np.array_equal(_draw_samples(plan, rows, moved)[0], drawn, equal_nan=True)
            single_orbit = (plan.orbits is not None and col % 8 == 0
                            and orbit_count(*plan.orbits[col // 8]) == 1)
            assert changed != single_orbit
    # a hand-built plan with a letter that has no orbit (A^2 = I) has
    # nothing to draw; build_plan never makes one
    with pytest.raises(oracle.OracleError):
        sample_from_plan(SamplePlan((2,), 1, ((2, 1),)), 0, 0)


_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix_ref(z):
    """SplitMix64's finaliser on a Python int, mod 2^64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def _uniform_ref(seed, row, col, width):
    """One uniform in Python integers: the key folds each 64-bit limb of
    the seed, low first, then the counter row * width + col + 1 steps the
    key by the golden increment."""
    key = 0
    while True:
        key = _splitmix_ref(((key + _GOLDEN) % 2**64) ^ (seed % 2**64))
        seed >>= 64
        if not seed:
            break
    return (_splitmix_ref((key + (row * width + col + 1) * _GOLDEN) % 2**64) >> 11) / 2**53


_BIG_SEEDS = (0, 1, 2, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**64 + 2, 10**30)


def test_uniform_rows_replay_alone_and_match_the_integer_reference():
    for seed in _BIG_SEEDS:
        block = uniforms(seed, np.arange(40), 9)
        assert block.shape == (40, 9) and block.dtype == np.float64
        assert np.all((block >= 0) & (block < 1))
        for row in (0, 17, 39):
            assert np.array_equal(uniforms(seed, [row], 9)[0], block[row])
            assert block[row].tolist() == [_uniform_ref(seed, row, col, 9) for col in range(9)]
        assert np.array_equal(uniforms(seed, [39, 2, 17], 9), block[[39, 2, 17]])
    assert uniforms(3, [0, 1], 0).shape == (2, 0)


def test_uniforms_are_pinned_and_distinct():
    # integer-exact, so the same bits on every platform
    assert uniforms(0, [0, 1], 4).tolist() == [
        [0.6524484863740322, 0.7012121095215252, 0.3871241409757855, 0.656413707073071],
        [0.7879284658471055, 0.14623465613318143, 0.7786519333063061, 0.26511816643428654],
    ]
    # no value repeats across seeds (seed and seed + 2^64 among them), rows
    # and columns
    blocks = np.stack([uniforms(seed, np.arange(30), 8) for seed in _BIG_SEEDS])
    assert len(set(blocks.ravel().tolist())) == blocks.size
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        uniforms(-1, [0], 3)
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got 1.5"):
        uniforms(1.5, [0], 3)


def test_uniforms_mean_and_variance():
    values = uniforms(20261018, np.arange(10**4), 10).ravel()
    assert values.size == 10**5
    assert abs(values.mean() - 1 / 2) < 0.01 / 2
    assert abs(values.var() - 1 / 12) < 0.01 / 12


def test_check_stage_residuals_come_from_the_jacobian_pass(monkeypatch):
    # the residual norms are bitwise those of the separate residual pass,
    # which a run no longer makes
    tol = Tolerances()
    for system, stack in _stack_cases():
        _, res, _ = _checked(stack, system, tol)
        assert np.array_equal(res, np.max(np.abs(system.residuals(stack)), axis=-1))

    def unused(self, mats):
        raise AssertionError("a run called ConstraintSystem.residuals")
    monkeypatch.setattr(ConstraintSystem, "residuals", unused)
    assert verify_dimension((3, 5, 7), 1, num_samples=6, seed=1).passed
    assert verify_dimension((2, 5), -1, num_samples=6, seed=1).passed
    assert verify_central_roots(7, 1, num_samples=6, seed=1).passed


def test_verify_commands_leave_numpy_random_unloaded():
    code = ("import sys\n"
            "from sl2rep.cli import main\n"
            "codes = [main(['verify', 'dim', '3,5,7', '--samples', '12']),\n"
            "         main(['verify', 'omega', '--p', '7'])]\n"
            "print(codes, 'numpy.random' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[0, 0] False"


def test_build_plan_follows_the_recursion_argmax():
    assert build_plan((3, 5, 7), 1) == SamplePlan((3, 5, 7), 1, None)
    assert build_plan((2, 2), -1).orbits is None

    # (2, 5) with sign -1 peaks on the same-sign branch: the first
    # letter lands on -I and the last letter on +I
    assert build_plan((2, 5), -1) == SamplePlan((2, 5), -1, ((2, -1), (5, 1)))
    # (2, 2) with sign +1 peaks on the flip branch: both letters on -I
    assert build_plan((2, 2), 1) == SamplePlan((2, 2), 1, ((2, -1), (2, -1)))


def test_verify_dimension_runs_the_recursion_once(monkeypatch):
    # the plan and the predicted dimension come from one table
    calls = []

    def counted(exps):
        calls.append(exps)
        return dimension_table(exps)

    monkeypatch.setattr(dimension, "dimension_table", counted)
    monkeypatch.setattr(oracle, "dimension_table", counted)
    for exps, sign in [((2, 2), 1), ((2, 5), -1), ((3, 5, 7), 1)]:
        calls.clear()
        report = verify_dimension(exps, sign, num_samples=2, seed=1)
        assert calls == [exps]
        assert report.predicted_dim == product_power_dim(exps, sign).dim


@functools.cache
def _reference_dim(exps, sign):
    if len(exps) == 1:
        return 0 if abs(exps[0]) == 2 and sign == 1 else 2
    return max(_reference_dim(exps[:-1], sign) + (0 if abs(exps[-1]) == 2 else 2),
               _reference_dim(exps[:-1], -sign) + 2, 3 * (len(exps) - 1))


def _reference_orbits(exps, sign):
    """The recursion's argmax, step by step: None for the generic stratum
    (preferred on ties), else the flip before the same-sign branch, with
    the (k, s) of each letter's orbit set, first letter first.  A generic
    prefix under an orbit letter has no flat plan: the tuple sum fails."""
    if len(exps) == 1:
        return ((abs(exps[0]), sign),)
    top = _reference_dim(exps, sign)
    if 3 * (len(exps) - 1) == top:
        return None
    fiber = -1 if _reference_dim(exps[:-1], -sign) + 2 == top else 1
    return _reference_orbits(exps[:-1], sign * fiber) + ((abs(exps[-1]), fiber),)


_PLAN_LETTERS = (2, -2, 3, -3, 4, 5)


@pytest.mark.parametrize("n", range(1, 6))
def test_build_plan_is_the_argmax_reference(n):
    for exps in itertools.product(_PLAN_LETTERS, repeat=n):
        for sign in (1, -1):
            if n == 1:
                # a one-letter word is {A : A^p = sign*I}, whose orbits
                # verify_central_roots samples; it has no sampling plan
                with pytest.raises(ValueError, match="2 or more letters"):
                    build_plan(exps, sign)
                continue
            assert build_plan(exps, sign) == SamplePlan(exps, sign, _reference_orbits(exps, sign))


@pytest.mark.parametrize("n", range(1, 6))
def test_orbit_plans_are_short_and_land_on_the_relator(n):
    # every letter A_i of an orbit plan has A_i^k_i = s_i I, so the word
    # is the product of the s_i times I
    for exps in itertools.product(_PLAN_LETTERS, repeat=n):
        for sign in (1, -1):
            if n == 1:
                # one-letter words are sampled orbit by orbit without a
                # plan, and A^-p = sign*I has the solutions of A^p = sign*I
                assert verify_central_roots(abs(exps[0]), sign, num_samples=4, seed=0).passed
                continue
            plan = build_plan(exps, sign)
            if n >= 3:
                assert plan.orbits is None
            if plan.orbits is None:
                continue
            assert [k for k, _ in plan.orbits] == [abs(p) for p in exps]
            assert math.prod(s for _, s in plan.orbits) == sign
            assert all(orbit_count(k, s) >= 1 for k, s in plan.orbits)


def test_sample_from_plan_stratum_matrices_satisfy_the_word():
    plan = build_plan((2, 5), -1)
    system = ConstraintSystem(2, (2, 5), -1)
    for index in range(6):
        sample = sample_from_plan(plan, 0, index)
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
    return int(hits[-1]) if len(hits) else None


@pytest.mark.parametrize("p,sign,samples", [(7, 1, 24), (600, -1, 1000), (MAX_CENTRAL_POWER, 1, 10)])
def test_trace_matching_equals_classify_trace_on_every_sample(p, sign, samples):
    tol, seed = Tolerances(), 5
    report = verify_central_roots(p, sign, samples, seed, tol)
    # the samples of the run, rebuilt: per_class draws of each orbit class
    table = admissible_traces(p, sign)
    orbits = np.flatnonzero(table.numerators % p)
    per_class = max(1, -(-samples // len(orbits)))
    angles = np.repeat(table.numerators[orbits] / p, per_class)
    values = np.trace(_orbit_point(angles, uniforms(seed, np.arange(len(angles)), 7)), axis1=-2, axis2=-1)
    assert report.passed and report.samples_accepted == len(values)
    # nudged copies miss; near +-2 at p = 10^4 neighbouring classes lie
    # closer than tol.trace, so jittered class values test the
    # smallest-distance rule
    rng = np.random.default_rng(89)
    nudged = values + 10.0 ** rng.uniform(-8, -5, len(values)) * (
        rng.standard_normal(len(values)) + 1j * rng.standard_normal(len(values)))
    jittered = table.values + rng.uniform(-2, 2, len(table)) * tol.trace
    for batch in (values, nudged, jittered):
        matched = [row if row >= 0 else None for row in match_traces(batch, table, tol.trace).tolist()]
        assert matched == [classify_trace(value, table, tol.trace) for value in batch]
        assert matched == [_classify_against_every_class(value, table, tol.trace) for value in batch]
    tallies = {}
    for value in values:
        label = table.label(classify_trace(value, table, tol.trace))
        tallies[label] = tallies.get(label, 0) + 1
    assert report.trace_class_tallies == tallies


def test_verify_central_roots_validation():
    with pytest.raises(ValueError):
        verify_central_roots(MAX_CENTRAL_POWER + 1, 1)
    with pytest.raises(ValueError):
        verify_central_roots(5, 1, num_samples=MAX_SAMPLES + 1)
    with pytest.raises(ValueError):
        verify_central_roots(5, 1, num_samples=0)


@pytest.mark.parametrize("num_samples", [True, 2.0, 2.5, "3"])
@pytest.mark.parametrize("verify,subject", [(verify_central_roots, 7), (verify_dimension, (3, 5, 7))])
def test_verify_rejects_a_sample_count_that_is_not_an_integer(verify, subject, num_samples):
    # 2.5 used to run 3 samples and True 1, or to fail inside numpy
    with pytest.raises(ValueError, match="num_samples"):
        verify(subject, 1, num_samples=num_samples)


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

    for name in ("_checked", "local_dimension", "_report"):
        counted(name)
    assert verify_central_roots(p, sign, num_samples=6, seed=1).passed
    assert sorted(calls) == ["_checked", "_report"]
    calls.clear()
    assert verify_dimension((2, 3), sign, num_samples=6, seed=1).passed
    assert sorted(calls) == ["_checked", "_report"]
    # a single sample goes through the same check stage, as a stack of one
    calls.clear()
    eta = dimension.central_signs(p, sign)[0]
    assert oracle.local_dimension(eta * IDENTITY[None], ConstraintSystem(1, (p,), sign)) == 0
    assert sorted(calls) == ["_checked", "local_dimension"]


def test_local_dimension_rejects_a_non_finite_jacobian(monkeypatch):
    # +I solves A^3 = I, so only the finite-Jacobian gate can reject it
    jacobian_and_word = ConstraintSystem._jacobian_and_word

    def poisoned(self, mats):
        jac, word = jacobian_and_word(self, mats)
        return jac * np.nan, word
    monkeypatch.setattr(ConstraintSystem, "_jacobian_and_word", poisoned)
    with pytest.raises(RankGapError, match="jacobian has non-finite entries"):
        local_dimension(IDENTITY[None], ConstraintSystem(1, (3,), 1))


@pytest.mark.parametrize("shape,got", [((3, 2, 2), "got 3"), ((1, 2, 2), "got 1"), ((4, 3, 2, 2), "got 3"),
                                       ((2, 2), r"got shape \(2, 2\)"), ((2, 4), r"got shape \(2, 4\)")])
@pytest.mark.parametrize("call", [ConstraintSystem.residuals, ConstraintSystem.jacobian, jacobian_fd,
                                  lambda system, mats: local_dimension(mats, system)],
                         ids=["residuals", "jacobian", "jacobian_fd", "local_dimension"])
def test_a_point_with_another_letter_count_is_a_value_error(call, shape, got):
    # a 3-letter point used to give 7 residuals, a 1-letter one to die in a
    # numpy reshape, and jacobian_fd to index past its copies
    with pytest.raises(ValueError, match=f"a point of this system has 2 letters, {got}$"):
        call(ConstraintSystem(2, (3, 5), 1), np.zeros(shape))


@pytest.mark.parametrize("p", ["5", 5.0, True, None])
def test_verify_central_roots_rejects_a_power_that_is_not_an_integer(p):
    # "5" used to raise TypeError from the comparison with the power cap
    with pytest.raises(ValueError, match=f"p must be an integer in 2..{MAX_CENTRAL_POWER}, got {re.escape(repr(p))}"):
        verify_central_roots(p)


@pytest.mark.parametrize(
    "field,value",
    [(name, value) for name in ("residual", "rank_rel", "trace", "genericity", "min_rank_gap")
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


_M = np.array([[2, 1], [1, 1]], dtype=complex)


@pytest.mark.parametrize("call,name", [
    # branch 1.5 used to return a point whose word residual is 1.0
    (lambda: complete_point([_M], (3, 5), 1, 1.5), "branch"),
    (lambda: complete_point([_M], (3, 5), 1.0, 0), "sign"),
    # 1.5 used to replay row 1, and -1 to raise numpy's OverflowError
    (lambda: sample_from_plan(build_plan((3, 5, 7), 1), 1, 1.5), "index"),
    (lambda: sample_from_plan(build_plan((3, 5, 7), 1), 1, -1), "index"),
    # 2 used to raise KeyError
    (lambda: build_plan((3, 5), 2), "sign"),
    (lambda: dimension.central_signs(5, 2), "sign"),
    (lambda: TraceTable([2, 4], 2.5), "power"),
    # True used to read as 1
    (lambda: uniforms(1, [0], True), "width"),
    (lambda: ConstraintSystem(True, (3,)), "num_matrices"),
    (lambda: Tolerances(residual=True), "residual"),
], ids=["complete_point-branch", "complete_point-sign", "sample_from_plan-index", "sample_from_plan-negative",
        "build_plan-sign", "central_signs-sign", "TraceTable-power", "uniforms-width",
        "ConstraintSystem-num_matrices", "Tolerances-residual"])
def test_entry_points_that_took_any_value_name_it(call, name):
    with pytest.raises(ValueError, match=rf"\b{name} must be"):
        call()


@pytest.mark.parametrize("call", [jacobian_fd, lambda system, mats: local_dimension(mats, system)],
                         ids=["jacobian_fd", "local_dimension"])
def test_the_one_point_entry_points_reject_a_stack(call):
    # a stack used to die in numpy: "truth value of an array" in
    # local_dimension, "operands could not be broadcast" in jacobian_fd
    with pytest.raises(ValueError, match=re.escape("one point of this system has shape (2, 2, 2), "
                                                   "got shape (4, 2, 2, 2)")):
        call(ConstraintSystem(2, (3, 5), 1), np.zeros((4, 2, 2, 2)))
