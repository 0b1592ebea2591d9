"""Trace classes and the component census of {A in SL2C : A^p = +-I}.

The solution set of A^p = sign*I splits into conjugation-invariant
pieces, one per angle k/p with 0 <= k <= p and (-1)^k = sign: the
conjugation orbit of diag(z, 1/z), z = exp(i pi k/p), with constant
trace 2cos(pi k/p).  k = 0 and k = p are the central points +I and -I,
isolated; every other k indexes the 2-dimensional orbit of the
eigenvalue pair {z, 1/z}.  orbit_numerator is that rule, the one place
it is spelled out: the orbit classes by increasing angle, and with
index -1 at sign +1 the central +I.  orbit_count is the one statement
of how many orbits there are, and so of the set's dimension: 2 when it
has an orbit, else 0.  A trace class is a row of a TraceTable, its
integer numerator k over the power p, so classes compare exactly; the
float trace 2cos(pi k/p) is derived from that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class ComponentSpectrum:
    """Map dimension -> number of maximal components of that dimension."""

    entries: dict[int, int]

    def __post_init__(self):
        cleaned = {int(d): int(c) for d, c in self.entries.items() if c}
        for d, c in cleaned.items():
            if d < 0 or c < 0:
                raise ValueError(f"invalid spectrum entry {d}: {c}")
        self.entries = dict(sorted(cleaned.items()))

    def dimension(self) -> int:
        if not self.entries:
            raise ValueError("empty spectrum has no dimension")
        return max(self.entries)

    def count(self, dim: int) -> int:
        return self.entries.get(dim, 0)

    def total(self) -> int:
        return sum(self.entries.values())


@dataclass(frozen=True)
class CentralRootClasses:
    """Component data for {A : A^p = sign*I}.

    central: signs eta with (eta*I)^p = sign*I, each an isolated point.
    orbits:  one TraceTable row per 2-dimensional conjugation orbit.
    """

    power: int
    sign: int
    central: tuple[int, ...]
    orbits: TraceTable


def _check_power_sign(p: int, sign: int):
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"power must be an integer >= 2, got {p!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def orbit_count(p: int, sign: int) -> int:
    """Number of 2-dimensional orbit components of {A : A^p = sign*I}."""
    _check_power_sign(p, sign)
    return (p - 1) // 2 if sign == 1 else p // 2


def orbit_numerator(sign, index):
    """The numerator k of the angle k/p of the index-th orbit class of
    {A : A^p = sign*I} by increasing angle, whatever p: the k strictly
    between 0 and p with (-1)^k = sign are 2*index + 2 (sign=+1) and
    2*index + 1 (sign=-1), so index -1 at sign +1 is k = 0, the central
    +I.  sign and index may be integer arrays."""
    return 2 * index + (3 + sign) // 2


def central_signs(p: int, sign: int) -> tuple[int, ...]:
    """Signs eta with (eta*I)^p = sign*I, each an isolated central point."""
    if sign == 1:
        return (1, -1) if p % 2 == 0 else (1,)
    return (-1,) if p % 2 == 1 else ()


def central_root_classes(p: int, sign: int) -> CentralRootClasses:
    """Enumerate components of the solution set of A^p = sign*I in SL2C.

    Solutions other than +-I are conjugates of diag(z, 1/z) with
    z^p = sign; the unordered pair {z, 1/z} indexes one orbit, listed
    by increasing angle as orbit_numerator gives them.
    """
    orbits = TraceTable(orbit_numerator(sign, np.arange(orbit_count(p, sign))), p)
    return CentralRootClasses(p, sign, central_signs(p, sign), orbits)


def central_root_spectrum(p: int, sign: int) -> ComponentSpectrum:
    """Component spectrum of {A : A^p = sign*I}: isolated centers at
    dimension 0, one 2-dimensional component per eigenvalue-pair orbit.
    Closed form, O(1) in p."""
    orbits = orbit_count(p, sign)
    return ComponentSpectrum({0: len(central_signs(p, sign)), 2: orbits})


class TraceTable:
    """Trace classes 2cos(pi k/p) held as arrays: the angle numerators k
    over the power p, the float values, and the order sorting them,
    computed once so that match_traces matches many samples in one pass.
    A row is one class: its numerator k is exact, label names it."""

    def __init__(self, numerators, power: int):
        self.numerators = np.asarray(numerators, dtype=int)
        self.power = power
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
