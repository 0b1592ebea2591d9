"""Dimension of SL(2,C) representation varieties by power-word recursion.

For exponents (p1, ..., pn) and a sign e, write D_e(m) for the
dimension of the solution set of x1^p1 ... xm^pm = e*I inside SL2C^m.
The recursion peels off the last letter:

    D_e(1) = d(p1, e)
    D_e(m) = max(D_e(m-1) + d(pm, +1),    last letter lands on +I
                 D_-e(m-1) + d(pm, -1),   last letter lands on -I
                 3*(m-1))                 generic prefix, finite fiber

where d(p, e) = dim {A : A^|p| = e*I} (base_dim): 2, but 0 for
(|p|, e) = (2, +1).  That set splits into one piece per angle k/p with
0 <= k <= p and (-1)^k = e: the conjugation orbit of diag(z, 1/z),
z = exp(i pi k/p), of trace 2cos(pi k/p).  k = 0 and k = p are the
isolated central points +I and -I (central_signs); every other k is a
2-dimensional orbit.  orbit_numerator is that rule, the one place it is
spelled out (index -1 at sign +1 is the central +I), and orbit_count the
one count of the orbits, so of the set's dimension.  These closed forms
are exact; the numeric layer (matrices, traces, oracle) reads them here.

Each step's maximum is bounded by 3*(m-1) + 1.  Whenever one of the
two degenerate-prefix candidates reaches the generic floor 3*(m-1) at
the top step, the variety is certified reducible; otherwise
reducibility is left undetermined (for n >= 4 it is an open problem,
and the recursion never certifies those).

The recursion is written once, in dimension_table, which evaluates
every step for both signs: the two branches, the floor, the maximum and
the certificate.  product_power_dim reads its top step, and the
oracle's sampling plan (oracle.build_plan) follows that step's argmax.
"""

from __future__ import annotations

from typing import NamedTuple

from .presentations import (
    CyclicFinite,
    FreeGroup,
    FreeProduct,
    GroupSpec,
    ProductPower,
    check_int,
    validate_exponents,
)
from .records import FrozenRecord

CERTIFIED_REDUCIBLE = "certified-reducible"
IRREDUCIBLE = "irreducible"
UNDETERMINED = "undetermined"


def check_sign(sign: int, p: int = 2) -> None:
    """Reject a sign other than the ints +-1, and a power p that is not an integer >= 2."""
    if type(p) is not int or p < 2:
        check_int("p", p, 2)
    if type(sign) is not int or sign not in (1, -1):  # True and 1.0 equal 1
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def orbit_count(p: int, sign: int) -> int:
    """Number of 2-dimensional orbit components of {A : A^p = sign*I}."""
    check_sign(sign, p)
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
    check_sign(sign, p)
    if sign == 1:
        return (1, -1) if p % 2 == 0 else (1,)
    return (-1,) if p % 2 == 1 else ()


def base_dim(p: int, sign: int) -> int:
    """Dimension of {A : A^p = sign*I}, |p| >= 2: 2 if it has an orbit
    component, else 0 (only (|p|, sign) == (2, +1))."""
    # abs of an int only, so that orbit_count names any other p as given
    return 2 if orbit_count(abs(p) if type(p) is int else p, sign) else 0


class RecursionStep(NamedTuple):
    """One peel of the recursion: D_sign(m) at table entry m-2, key sign."""

    same_sign_branch: int  # D_e(m-1) + d(pm, +1)
    flip_sign_branch: int  # D_-e(m-1) + d(pm, -1)
    generic_floor: int     # 3*(m-1)
    dim: int
    certified: bool        # max of the two branches >= generic floor


class DimResult(FrozenRecord):
    def __init__(self, dim: int, reducibility: str):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "reducibility", reducibility)


def dimension_table(exponents) -> tuple[dict[int, RecursionStep], ...]:
    """Every step of the recursion, for m = 2..n and both signs: entry
    m-2 maps sign -> the step D_sign(m).  One-letter words have none."""
    exps = validate_exponents(exponents)
    prev = {sign: base_dim(exps[0], sign) for sign in (1, -1)}
    table = []
    for m in range(2, len(exps) + 1):
        # the last letter's fiber over each of +I and -I
        plus, minus = base_dim(exps[m - 1], 1), base_dim(exps[m - 1], -1)
        floor = 3 * (m - 1)
        row = {}
        for sign in (1, -1):
            same, flip = prev[sign] + plus, prev[-sign] + minus
            row[sign] = RecursionStep(same, flip, floor, max(same, flip, floor), max(same, flip) >= floor)
        table.append(row)
        prev = {sign: step.dim for sign, step in row.items()}
    return tuple(table)


def product_power_dim(exponents, sign: int = 1) -> DimResult:
    """Dimension of {(m1..mn) : m1^p1 ... mn^pn = sign*I} in SL2C^n.

    Invariant under permuting the tuple and under negating all
    exponents.  Certified reducible exactly when the top recursion
    step's degenerate branches reach the generic floor; single-letter
    words report undetermined (their census lives elsewhere).
    """
    check_sign(sign)
    exps = validate_exponents(exponents)
    table = dimension_table(exps)
    if not table:
        return DimResult(base_dim(exps[0], sign), UNDETERMINED)
    top = table[-1][sign]
    return DimResult(top.dim, CERTIFIED_REDUCIBLE if top.certified else UNDETERMINED)


def representation_dim(spec: GroupSpec) -> DimResult:
    """Dimension of the full representation variety Hom(G, SL2C).

    Free groups give the irreducible ambient power 3n; cyclic groups
    the base case, and one-relator product-power groups the recursion;
    free products add dimensions factorwise.
    """
    if isinstance(spec, FreeGroup):
        return DimResult(3 * spec.rank, IRREDUCIBLE)
    if isinstance(spec, CyclicFinite):
        # the variety is a disjoint union of at least two closed pieces
        return DimResult(base_dim(spec.order, 1), CERTIFIED_REDUCIBLE)
    if isinstance(spec, ProductPower):
        return product_power_dim(spec.exponents, 1)
    if isinstance(spec, FreeProduct):
        subs = [representation_dim(f) for f in spec.factors]
        dim = sum(sub.dim for sub in subs)
        statuses = [sub.reducibility for sub in subs]
        if CERTIFIED_REDUCIBLE in statuses:
            reducibility = CERTIFIED_REDUCIBLE
        elif all(s == IRREDUCIBLE for s in statuses):
            reducibility = IRREDUCIBLE
        else:
            reducibility = UNDETERMINED
        return DimResult(dim, reducibility)
    raise TypeError(f"not a group spec: {spec!r}")


def freeness_test(num_generators: int, dim: int) -> bool:
    """A group on n generators is free of rank n iff its representation
    variety fills the whole ambient dimension 3n."""
    return check_int("dim", dim, 0) == 3 * check_int("num_generators", num_generators, 0)
