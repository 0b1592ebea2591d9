"""Trace classes and the component census of {A in SL2C : A^p = +-I}.

The solution set of A^p = sign*I splits into conjugation-invariant
pieces, one per angle k/p with 0 <= k <= p and (-1)^k = sign: the
conjugation orbit of diag(z, 1/z), z = exp(i pi k/p), with constant
trace 2cos(pi k/p).  k = 0 and k = p are the central points +I and -I,
isolated; every other k indexes the 2-dimensional orbit of the
eigenvalue pair {z, 1/z}.  orbit_numerator is that rule, the one place
it is spelled out: the orbit classes by increasing angle, and with
index -1 at sign +1 the central +I.  Traces are kept exact as rational
multiples of pi in 2*cos(pi * angle) form so classes compare exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True, order=True)
class TraceClass:
    """Exact trace value 2*cos(pi * angle) with angle in [0, 1]."""

    angle: Fraction

    def __post_init__(self):
        if not (0 <= self.angle <= 1):
            raise ValueError(f"trace angle {self.angle} outside [0, 1]")

    @property
    def value(self) -> float:
        return 2.0 * math.cos(math.pi * float(self.angle))

    def label(self) -> str:
        return _label(self.angle.numerator, self.angle.denominator)


def _label(k: int, p: int) -> str:
    """The label of the trace 2cos(pi k/p): +2, -2, or 2cos(k'pi/p') in
    lowest terms."""
    if k == 0:
        return "+2"
    if k == p:
        return "-2"
    g = math.gcd(k, p)
    return f"2cos({k // g}pi/{p // g})"


@dataclass
class ComponentSpectrum:
    """Map dimension -> number of maximal components of that dimension."""

    entries: dict[int, int]
    exact: bool = True

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
    orbits:  one TraceClass per 2-dimensional conjugation orbit.
    """

    power: int
    sign: int
    central: tuple[int, ...]
    orbits: tuple[TraceClass, ...]


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


def orbit_class(p: int, sign: int, index: int) -> TraceClass:
    """The index-th orbit class of {A : A^p = sign*I} by increasing angle."""
    if not 0 <= index < orbit_count(p, sign):
        raise IndexError(f"orbit index {index} out of range for power {p}, sign {sign}")
    return TraceClass(Fraction(orbit_numerator(sign, index), p))


def central_signs(p: int, sign: int) -> tuple[int, ...]:
    """Signs eta with (eta*I)^p = sign*I, each an isolated central point."""
    if sign == 1:
        return (1, -1) if p % 2 == 0 else (1,)
    return (-1,) if p % 2 == 1 else ()


def central_root_classes(p: int, sign: int) -> CentralRootClasses:
    """Enumerate components of the solution set of A^p = sign*I in SL2C.

    Solutions other than +-I are conjugates of diag(z, 1/z) with
    z^p = sign; the unordered pair {z, 1/z} indexes one orbit, listed
    by increasing angle as orbit_class gives them.
    """
    orbits = tuple(orbit_class(p, sign, i) for i in range(orbit_count(p, sign)))
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
    Indexing a row builds its TraceClass; label reads a row's label alone."""

    def __init__(self, numerators, power: int):
        self.numerators = np.asarray(numerators, dtype=int)
        self.power = power
        # k / p rounds as float(Fraction(k, p)) and 2cos(pi x) as
        # TraceClass.value; only the cos is numpy's array loop
        self.values = 2.0 * np.cos(np.pi * (self.numerators / power))
        self.order = np.argsort(self.values, kind="stable")
        self.sorted_values = self.values[self.order]

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, row) -> TraceClass:
        return TraceClass(Fraction(int(self.numerators[row]), self.power))

    def label(self, row) -> str:
        """self[row].label(), without building the class."""
        return _label(int(self.numerators[row]), self.power)


def admissible_traces(p: int, sign: int) -> TraceTable:
    """All trace values occurring on the solution set of A^p = sign*I, by
    increasing angle: +2 if +I is a solution, the orbit classes, then -2
    if -I is one.  Closed form: no class is built until a row is read."""
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


def classify_trace(value: complex, classes: TraceTable, tol: float) -> TraceClass | None:
    """match_traces for one value: the matched class, or None."""
    (index,) = match_traces([value], classes, tol)
    return classes[index] if index >= 0 else None
