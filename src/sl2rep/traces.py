"""Trace classes and the component census of {A in SL2C : A^p = +-I}.

The solution set of A^p = sign*I splits into conjugation-invariant
pieces: central points (+-I when they satisfy the equation) and, for
each unordered eigenvalue pair {z, 1/z} with z^p = sign and z != +-1,
the conjugation orbit of diag(z, 1/z).  Central pieces are isolated
points; every orbit piece is 2-dimensional and carries the constant
trace z + 1/z.  Traces are kept exact as rational multiples of pi in
2*cos(pi * angle) form so classes compare exactly.
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

    @property
    def central(self) -> bool:
        return self.angle == 0 or self.angle == 1

    def label(self) -> str:
        if self.angle == 0:
            return "+2"
        if self.angle == 1:
            return "-2"
        return f"2cos({self.angle.numerator}pi/{self.angle.denominator})"


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


def orbit_class(p: int, sign: int, index: int) -> TraceClass:
    """The index-th orbit class of {A : A^p = sign*I} by increasing angle.

    The angles are 2j/p (sign=+1) or (2j+1)/p (sign=-1) strictly
    between 0 and 1, so the index-th one is (2*index + 2)/p or
    (2*index + 1)/p.
    """
    if not 0 <= index < orbit_count(p, sign):
        raise IndexError(f"orbit index {index} out of range for power {p}, sign {sign}")
    return TraceClass(Fraction(2 * index + (2 if sign == 1 else 1), p))


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


class TraceTable(tuple):
    """Trace classes with their float values, and those values sorted,
    computed once so that match_traces matches many samples in one pass."""

    def __new__(cls, classes):
        table = super().__new__(cls, classes)
        table.values = np.array([c.value for c in table], dtype=float)
        table.order = np.argsort(table.values, kind="stable")
        table.sorted_values = table.values[table.order]
        return table


def admissible_traces(p: int, sign: int) -> TraceTable:
    """All trace values occurring on the solution set of A^p = sign*I, by
    increasing angle: +2 if +I is a solution, the orbit classes, then -2
    if -I is one."""
    classes = central_root_classes(p, sign)
    first = [TraceClass(Fraction(0))] if 1 in classes.central else []
    last = [TraceClass(Fraction(1))] if -1 in classes.central else []
    return TraceTable(first + list(classes.orbits) + last)


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
