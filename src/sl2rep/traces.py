"""Trace classes of {A in SL2C : A^p = +-I}, the oracle's float layer.

The components of the solution set of A^p = sign*I, and the angle k/p
of each, are the exact closed forms of the dimension module
(central_signs, orbit_count, orbit_numerator).  A trace class is a row
of a TraceTable, its integer numerator k over the power p, so classes
compare exactly; the float trace 2cos(pi k/p) is derived from that row,
and match_traces matches sampled traces against those values.  In the
package only the oracle imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from .dimension import central_signs, orbit_count, orbit_numerator
from .presentations import check_int
from .records import FrozenRecord


class CentralRootClasses(FrozenRecord):
    """Component data for {A : A^p = sign*I}.

    central: signs eta with (eta*I)^p = sign*I, each an isolated point.
    orbits:  one TraceTable row per 2-dimensional conjugation orbit.
    """

    def __init__(self, central: tuple[int, ...], orbits: TraceTable):
        object.__setattr__(self, "central", central)
        object.__setattr__(self, "orbits", orbits)


def central_root_classes(p: int, sign: int) -> CentralRootClasses:
    """Enumerate components of the solution set of A^p = sign*I in SL2C.

    Solutions other than +-I are conjugates of diag(z, 1/z) with
    z^p = sign; the unordered pair {z, 1/z} indexes one orbit, listed
    by increasing angle as orbit_numerator gives them.
    """
    orbits = TraceTable(orbit_numerator(sign, np.arange(orbit_count(p, sign))), p)
    return CentralRootClasses(central_signs(p, sign), orbits)


class TraceTable:
    """Trace classes 2cos(pi k/p) held as arrays: the angle numerators k
    over the power p, the float values, and the order sorting them,
    computed once so that match_traces matches many samples in one pass.
    A row is one class: its numerator k is exact, label names it."""

    def __init__(self, numerators, power: int):
        self.numerators = np.asarray(numerators, dtype=int)
        self.power = check_int("power", power, 1)
        # k / p is the correctly rounded quotient of the two integers;
        # only the cos is numpy's array loop
        self.values = 2.0 * np.cos(np.pi * (self.numerators / power))
        self.order = np.argsort(self.values, kind="stable")
        self.sorted_values = self.values[self.order]

    def __len__(self) -> int:
        return len(self.numerators)

    def label(self, row) -> str:
        """The label of row's trace 2cos(pi k/p): +2, -2, or
        2cos(k'pi/p') in lowest terms."""
        k, p = int(self.numerators[row]), self.power
        if k == 0:
            return "+2"
        if k == p:
            return "-2"
        g = math.gcd(k, p)
        return f"2cos({k // g}pi/{p // g})"


def admissible_traces(p: int, sign: int) -> TraceTable:
    """All trace values occurring on the solution set of A^p = sign*I, by
    increasing angle: +2 if +I is a solution, the orbit classes, then -2
    if -I is one.  Closed form, one array pass."""
    central = central_signs(p, sign)
    rows = np.arange(-(1 in central), orbit_count(p, sign) + (-1 in central))
    return TraceTable(orbit_numerator(sign, rows), p)


def match_traces(values, classes: TraceTable, tol: float) -> np.ndarray:
    """Match numeric traces against a finite set of classes.

    Returns, per value, the index in classes of the class within tol of
    it at the smallest distance (the last such one on ties), or -1.
    Admissible traces are real, so the imaginary part counts toward the
    distance.  Distances only grow away from a value's place among the
    sorted class values, so only its two neighbours there are compared.
    """
    values = np.asarray(values, dtype=complex)
    if not len(classes):
        return np.full(values.shape, -1)
    place = np.searchsorted(classes.sorted_values, values.real)
    near = classes.order[np.clip([place - 1, place], 0, len(classes) - 1)]
    errs = np.abs(values - classes.values[near])
    right = (errs[1] < errs[0]) | ((errs[1] == errs[0]) & (near[1] > near[0]))
    return np.where(np.minimum(errs[0], errs[1]) <= tol, np.where(right, near[1], near[0]), -1)


def classify_trace(value: complex, classes: TraceTable, tol: float) -> int | None:
    """match_traces for one value: the matched row of classes, or None."""
    (row,) = match_traces([value], classes, tol)
    return int(row) if row >= 0 else None
