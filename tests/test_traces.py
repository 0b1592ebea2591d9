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

from sl2rep.census import ComponentSpectrum, central_root_spectrum
from sl2rep.dimension import orbit_count
from sl2rep.matrices import mat_power, random_sl2
from sl2rep.traces import TraceTable, admissible_traces, central_root_classes, classify_trace


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
    assert len(classes.orbits) == orbit_count(p, sign) == len(traces)
    assert classes.orbits.power == p
    # increasing angle means decreasing trace
    assert classes.orbits.values.tolist() == pytest.approx(traces, abs=1e-9)


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
    # the orbits' angles k/p as numerators k over p
    assert central_root_classes(5, 1).orbits.numerators.tolist() == [2, 4]
    assert central_root_classes(6, -1).orbits.numerators.tolist() == [1, 3, 5]
    assert len(central_root_classes(2, 1).orbits) == 0
    assert central_root_classes(2, -1).orbits.numerators.tolist() == [1]
    assert [central_root_classes(p, 1).orbits.power for p in (2, 5, 6)] == [2, 5, 6]


def test_census_input_validation():
    with pytest.raises(ValueError):
        central_root_classes(1, 1)
    with pytest.raises(ValueError):
        central_root_classes(5, 0)
    with pytest.raises(ValueError):
        orbit_count(1, -1)
    with pytest.raises(ValueError):
        orbit_count(5, 0)


def test_trace_class_values_and_labels():
    # a trace class is a table row: numerator k over the power p
    table = TraceTable([0, 3, 1, 2], 3)
    assert table.values.tolist() == pytest.approx([2.0, -2.0, 1.0, -1.0])
    assert [table.label(row) for row in range(4)] == ["+2", "-2", "2cos(1pi/3)", "2cos(2pi/3)"]
    # labels are in lowest terms
    assert TraceTable([2, 4], 6).label(0) == "2cos(1pi/3)"
    assert TraceTable([2], 5).label(0) == "2cos(2pi/5)"


def test_admissible_traces_are_sorted_and_complete():
    traces = admissible_traces(6, 1)
    # centrals +-2 plus the two orbit classes, by increasing angle
    assert len(traces) == 4
    assert traces.numerators.tolist() == [0, 2, 4, 6] and traces.power == 6
    assert traces.values.tolist() == pytest.approx([2.0, 1.0, -1.0, -2.0])
    assert traces.order.tolist() == [3, 2, 1, 0]
    assert traces.sorted_values.tolist() == sorted(traces.values)
    assert [traces.label(row) for row in range(4)] == ["+2", "2cos(1pi/3)", "2cos(2pi/3)", "-2"]
    big = admissible_traces(10**4, 1)
    assert len(big) == 5001 and big.label(7) == "2cos(7pi/5000)"


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _reference_label(k, p):
    angle = Fraction(k, p)
    if angle in (0, 1):
        return "+2" if angle == 0 else "-2"
    return f"2cos({angle.numerator}pi/{angle.denominator})"


@pytest.mark.parametrize("sign", [1, -1])
def test_trace_table_is_the_enumerated_classes(sign):
    # the closed-form table against the census central_root_classes
    # gives, its values bitwise against a scalar math.cos reference
    mismatches = 0
    for p in [*range(2, 601), 10**4]:
        classes = central_root_classes(p, sign)
        expected = [0] * (1 in classes.central) + classes.orbits.numerators.tolist()
        expected += [p] * (-1 in classes.central)
        table = admissible_traces(p, sign)
        assert table.numerators.tolist() == expected and table.power == p
        assert [table.label(row) for row in range(len(table))] == [_reference_label(k, p) for k in expected]
        reference = [2 * math.cos(math.pi * float(Fraction(k, p))) for k in expected]
        mismatches += sum(_bits(v) != _bits(r) for v, r in zip(table.values.tolist(), reference))
    assert mismatches == 0


def test_classify_trace():
    classes = admissible_traces(5, 1)
    exact = 2 * math.cos(2 * math.pi / 5)
    hit = classify_trace(exact, classes, 1e-6)
    assert hit == 1 and classes.numerators[hit] == 2
    assert classify_trace(exact + 1e-8, classes, 1e-6) == hit
    assert classify_trace(exact + 1e-3, classes, 1e-6) is None
    # imaginary offsets count toward the distance
    assert classify_trace(exact + 1e-3j, classes, 1e-6) is None
    assert classify_trace(0.0, classes, 1e-6) is None


def classify_loop(value, classes, tol):
    """Reference matcher: the last row at the smallest distance within tol."""
    best, best_err = None, tol
    for row, class_value in enumerate(classes.values.tolist()):
        err = abs(complex(value) - class_value)
        if err <= best_err:
            best, best_err = row, err
    return best


def test_classify_trace_matches_the_reference_loop():
    rng = np.random.default_rng(7)
    for p in (2, 3, 12, 97, 600):
        for sign in (1, -1):
            table = admissible_traces(p, sign)
            assert isinstance(table, TraceTable)
            for _ in range(40):
                target = table.values[int(rng.integers(len(table)))]
                scale = 10.0 ** rng.uniform(-9, -1)
                value = complex(target + scale * rng.standard_normal(),
                                scale * rng.standard_normal())
                for tol in (1e-6, 1e-2, 5.0):
                    assert classify_trace(value, table, tol) == classify_loop(value, table, tol)


def test_classify_trace_ties_and_edge_cases():
    # 0 is exactly 2 away from +2 and -2: the later row wins, whichever
    # of the two it holds
    assert classify_trace(0.0, TraceTable([0, 1], 1), 3.0) == 1
    assert classify_trace(0.0, TraceTable([1, 0], 1), 3.0) == 1
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
