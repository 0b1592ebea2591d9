"""Census of A^p = +-I and trace class matching.

The census oracle below enumerates the candidate eigenvalues as
explicit roots of unity and folds reciprocal pairs, sharing no code
with the parity arithmetic in the package.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from sl2rep.matrices import mat_power, random_sl2
from sl2rep.traces import (
    ComponentSpectrum,
    TraceClass,
    TraceTable,
    admissible_traces,
    central_root_classes,
    central_root_spectrum,
    classify_trace,
    match_traces,
    orbit_class,
    orbit_count,
)


def unit_root_census(p, sign):
    """(central count, orbit traces) for z^p = sign by direct enumeration."""
    sols = []
    for j in range(2 * p):
        z = cmath.exp(1j * math.pi * j / p)
        if abs(z ** p - sign) < 1e-9:
            sols.append(z)
    central = sum(1 for z in sols if min(abs(z - 1), abs(z + 1)) < 1e-9)
    # z and 1/z share the trace z + 1/z, which is injective on pairs
    traces = sorted(
        {round((z + 1 / z).real, 9) for z in sols if min(abs(z - 1), abs(z + 1)) >= 1e-9},
        reverse=True,
    )
    return central, traces


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("p", range(2, 32))
def test_census_matches_unit_root_enumeration(p, sign):
    classes = central_root_classes(p, sign)
    n_central, traces = unit_root_census(p, sign)
    assert len(classes.central) == n_central
    assert len(classes.orbits) == len(traces)
    got = sorted((c.value for c in classes.orbits), reverse=True)
    assert got == pytest.approx(traces, abs=1e-9)
    assert orbit_count(p, sign) == len(traces)
    picked = [orbit_class(p, sign, i).value for i in range(orbit_count(p, sign))]
    # increasing angle means decreasing trace
    assert picked == pytest.approx(traces, abs=1e-9)


def test_orbit_count_closed_forms():
    for p in range(2, 501):
        plus = len(central_root_classes(p, 1).orbits)
        minus = len(central_root_classes(p, -1).orbits)
        assert (plus, minus) == (orbit_count(p, 1), orbit_count(p, -1))
        if p % 2 == 1:
            assert plus == (p - 1) // 2
            assert minus == (p - 1) // 2
        else:
            assert plus == (p - 2) // 2
            assert minus == p // 2


def test_central_membership_by_parity():
    assert central_root_classes(5, 1).central == (1,)
    assert central_root_classes(6, 1).central == (1, -1)
    assert central_root_classes(5, -1).central == (-1,)
    assert central_root_classes(6, -1).central == ()


def test_small_orbit_angles():
    assert [c.angle for c in central_root_classes(5, 1).orbits] == [
        Fraction(2, 5),
        Fraction(4, 5),
    ]
    assert [c.angle for c in central_root_classes(6, -1).orbits] == [
        Fraction(1, 6),
        Fraction(1, 2),
        Fraction(5, 6),
    ]
    assert central_root_classes(2, 1).orbits == ()
    assert [c.angle for c in central_root_classes(2, -1).orbits] == [Fraction(1, 2)]


def test_census_input_validation():
    with pytest.raises(ValueError):
        central_root_classes(1, 1)
    with pytest.raises(ValueError):
        central_root_classes(5, 0)
    with pytest.raises(ValueError):
        orbit_count(1, -1)
    for p, sign in ((5, 1), (6, 1), (6, -1), (2, 1)):
        with pytest.raises(IndexError):
            orbit_class(p, sign, orbit_count(p, sign))
        with pytest.raises(IndexError):
            orbit_class(p, sign, -1)


def test_trace_class_values_and_labels():
    assert TraceClass(Fraction(0)).value == pytest.approx(2.0)
    assert TraceClass(Fraction(1)).value == pytest.approx(-2.0)
    assert TraceClass(Fraction(1, 3)).value == pytest.approx(1.0)
    assert TraceClass(Fraction(0)).label() == "+2"
    assert TraceClass(Fraction(1)).label() == "-2"
    assert TraceClass(Fraction(2, 5)).label() == "2cos(2pi/5)"
    with pytest.raises(ValueError):
        TraceClass(Fraction(3, 2))


def test_admissible_traces_are_sorted_and_complete():
    traces = admissible_traces(6, 1)
    # centrals +-2 plus the two orbit classes, by increasing angle
    assert len(traces) == 4
    assert traces.numerators.tolist() == [0, 2, 4, 6] and traces.power == 6
    assert [traces[row] for row in range(4)] == [TraceClass(Fraction(k, 3)) for k in range(4)]
    assert traces.values.tolist() == sorted(traces.values, reverse=True)
    assert traces.order.tolist() == [3, 2, 1, 0]
    assert traces.sorted_values.tolist() == sorted(traces.values)
    assert [traces.label(row) for row in range(4)] == ["+2", "2cos(1pi/3)", "2cos(2pi/3)", "-2"]


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("sign", [1, -1])
def test_trace_table_is_the_enumerated_classes(sign):
    # the closed-form table against the classes central_root_classes builds
    mismatches = 0
    for p in [*range(2, 601), 10**4]:
        classes = central_root_classes(p, sign)
        expected = ([TraceClass(Fraction(0))] if 1 in classes.central else []) + list(classes.orbits)
        expected += [TraceClass(Fraction(1))] if -1 in classes.central else []
        table = admissible_traces(p, sign)
        assert [table[row] for row in range(len(table))] == expected
        assert [table.label(row) for row in range(len(table))] == [c.label() for c in expected]
        mismatches += sum(_bits(v) != _bits(c.value) for v, c in zip(table.values.tolist(), expected))
    assert mismatches == 0


def test_admissible_traces_builds_no_class(monkeypatch):
    built = []
    check = TraceClass.__post_init__
    monkeypatch.setattr(TraceClass, "__post_init__", lambda self: (built.append(self), check(self)))
    table = admissible_traces(10**4, 1)
    match_traces(table.values, table, 1e-6)
    assert len(table) == 5001 and table.label(7) == "2cos(7pi/5000)"
    assert built == []
    # a class is built only for a row that is read
    assert classify_trace(table.values[7], table, 1e-9) == TraceClass(Fraction(7, 5000))
    assert len(built) == 2


def test_classify_trace():
    classes = admissible_traces(5, 1)
    exact = 2 * math.cos(2 * math.pi / 5)
    hit = classify_trace(exact, classes, 1e-6)
    assert hit is not None and hit.angle == Fraction(2, 5)
    assert classify_trace(exact + 1e-8, classes, 1e-6) == hit
    assert classify_trace(exact + 1e-3, classes, 1e-6) is None
    # imaginary offsets count toward the distance
    assert classify_trace(exact + 1e-3j, classes, 1e-6) is None
    assert classify_trace(0.0, classes, 1e-6) is None


def classify_loop(value, classes, tol):
    """Reference matcher: the last class at the smallest distance within tol."""
    best, best_err = None, tol
    for cls in classes:
        err = abs(complex(value) - cls.value)
        if err <= best_err:
            best, best_err = cls, err
    return best


def test_classify_trace_matches_the_reference_loop():
    rng = np.random.default_rng(7)
    for p in (2, 3, 12, 97, 600):
        for sign in (1, -1):
            table = admissible_traces(p, sign)
            assert isinstance(table, TraceTable)
            for _ in range(40):
                target = table[int(rng.integers(len(table)))].value
                scale = 10.0 ** rng.uniform(-9, -1)
                value = complex(target + scale * rng.standard_normal(),
                                scale * rng.standard_normal())
                for tol in (1e-6, 1e-2, 5.0):
                    assert classify_trace(value, table, tol) == classify_loop(value, table, tol)


def test_classify_trace_ties_and_edge_cases():
    plus, minus = TraceClass(Fraction(0)), TraceClass(Fraction(1))
    # 0 is exactly 2 away from +2 and -2: the later class wins
    assert classify_trace(0.0, TraceTable([0, 1], 1), 3.0) == minus
    assert classify_trace(0.0, TraceTable([1, 0], 1), 3.0) == plus
    assert classify_trace(0.0, TraceTable([0, 1], 1), 1.5) is None
    assert classify_trace(0.0, TraceTable([], 1), 1.0) is None
    assert classify_trace(float("nan"), TraceTable([0], 1), 1.0) is None


def test_component_spectrum_bookkeeping():
    spec = ComponentSpectrum({2: 3, 0: 1, 4: 0})
    assert spec.entries == {0: 1, 2: 3}
    assert spec.dimension() == 2
    assert spec.count(2) == 3 and spec.count(6) == 0
    assert spec.total() == 4
    with pytest.raises(ValueError):
        ComponentSpectrum({-1: 2})
    with pytest.raises(ValueError):
        ComponentSpectrum({}).dimension()


def test_central_root_spectrum_closed_form_matches_enumeration():
    for p in range(2, 601):
        for sign in (1, -1):
            classes = central_root_classes(p, sign)
            # the central points are the eta in {+1, -1} with eta^p = sign
            assert len(classes.central) == sum(eta ** p == sign for eta in (1, -1))
            expected = {0: len(classes.central), 2: len(classes.orbits)}
            expected = {d: c for d, c in expected.items() if c}
            assert central_root_spectrum(p, sign).entries == expected


def test_central_root_spectrum_examples():
    assert central_root_spectrum(5, 1).entries == {0: 1, 2: 2}
    assert central_root_spectrum(2, 1).entries == {0: 2}
    assert central_root_spectrum(2, -1).entries == {2: 1}
    assert central_root_spectrum(6, -1).entries == {2: 3}


def _trace_poly(p, t):
    """tr(A^p) for A in SL2C from t = tr(A), by the recurrence T_0 = 2,
    T_1 = t, T_(m+1) = t T_m - T_(m-1)."""
    prev, cur = 2, t
    for _ in range(p - 1):
        prev, cur = cur, t * cur - prev
    return cur if p else prev


def test_trace_poly_matches_matrix_power_traces():
    rng = np.random.default_rng(11)
    for p in range(9):
        for _ in range(4):
            m = random_sl2(rng)
            expected = complex(np.trace(mat_power(m, p)))
            assert _trace_poly(p, complex(np.trace(m))) == pytest.approx(expected, rel=1e-8, abs=1e-8)
