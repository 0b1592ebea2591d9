"""Parafree profiles, isomorphism tests, and witness-group searches.

A one-relator group with relator x1^p1 ... xn^pn (n >= 3, all
|pi| >= 2, gcd of the |pi| equal to 1) is parafree of rank n - 1: it
shares all lower central quotients with a free group of that rank but
is not free, needs n generators, and is freely indecomposable.  Free
products with free groups stay parafree; rank adds, and the minimal
generator count stays one above the rank (deviation 1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .census import (
    CensusResult,
    consecutive_prime_triples,
    lower_bound_census,
    prime_triple,
    split_power_factor,
    triple_group,
)
from .presentations import (
    GroupSpec,
    ProductPower,
    exponent_gcd,
    format_spec,
    normalized_exponents,
    validate_exponents,
)


@dataclass(frozen=True)
class EligibilityChecks:
    """Field-by-field record of the parafree hypotheses."""

    length_ok: bool        # n >= 3
    magnitudes_ok: bool    # every |pi| >= 2 after sign normalization
    gcd_ok: bool           # gcd(|p1|, ..., |pn|) == 1

    @property
    def eligible(self) -> bool:
        return self.length_ok and self.magnitudes_ok and self.gcd_ok

    def failures(self) -> list[str]:
        out = []
        if not self.length_ok:
            out.append("length_ok: relator needs at least 3 generator powers")
        if not self.magnitudes_ok:
            out.append("magnitudes_ok: every exponent must have absolute value >= 2")
        if not self.gcd_ok:
            out.append("gcd_ok: exponent magnitudes must have gcd 1")
        return out


class EligibilityError(ValueError):
    def __init__(self, checks: EligibilityChecks):
        self.checks = checks
        super().__init__("; ".join(checks.failures()))


def tuple_eligibility(exponents) -> EligibilityChecks:
    exps = tuple(exponents)
    magnitudes_ok = all(isinstance(p, int) and abs(p) >= 2 for p in exps)
    length_ok = len(exps) >= 3
    gcd_ok = magnitudes_ok and bool(exps) and exponent_gcd(exps) == 1
    return EligibilityChecks(length_ok, magnitudes_ok, gcd_ok)


@dataclass(frozen=True)
class ParafreeProfile:
    rank: int
    min_generators: int
    deviation: int
    freely_indecomposable: bool
    hypotheses: EligibilityChecks


def parafree_profile(spec: GroupSpec) -> ParafreeProfile:
    """Parafree invariants of an eligible one-relator group, possibly
    free-multiplied by free groups.  Raises EligibilityError with the
    failed hypotheses listed field by field, and ValueError for other
    shapes."""
    shape = split_power_factor(spec)
    if shape is None:
        raise ValueError("parafree profiles cover one product-power factor times free groups, "
                         f"got {format_spec(spec)}")
    frees, power = shape
    checks = tuple_eligibility(power.exponents)
    if not checks.eligible:
        raise EligibilityError(checks)
    free_rank = sum(f.rank for f in frees)
    n = len(power.exponents)
    return ParafreeProfile(
        rank=n - 1 + free_rank,
        min_generators=n + free_rank,
        deviation=1,
        freely_indecomposable=isinstance(spec, ProductPower),
        hypotheses=checks,
    )


def meskin_isomorphic(a, b) -> bool:
    """One-relator product-power groups are isomorphic exactly when the
    multisets of exponent magnitudes agree."""
    a = validate_exponents(a)
    b = validate_exponents(b)
    return Counter(normalized_exponents(a)) == Counter(normalized_exponents(b))


# largest index family_member accepts: the walk reaches it at the triple
# (350411, 350423, 350429) in ~0.4 s
MAX_FAMILY_INDEX = 10**4

# largest component target witness_group accepts: the search walks the
# family once and reaches it at the triple (199999, 200003, 200009),
# after ~6000 triples
MAX_WITNESS_TARGET = 10**15


def family_member(rank: int, index: int) -> GroupSpec:
    """index-th member of the canonical rank-r parafree family.

    Rank 2: the one-relator group on the index-th consecutive prime
    triple (3,5,7), (11,13,17), ...; rank r > 2 multiplies in a free
    group of rank r - 2.  Distinct indices give non-isomorphic groups
    (disjoint exponent multisets).  index is at most MAX_FAMILY_INDEX."""
    if not 0 <= index <= MAX_FAMILY_INDEX:
        raise ValueError(f"family index must be in 0..{MAX_FAMILY_INDEX}, got {index}")
    return triple_group(rank, prime_triple(index))


def witness_group(rank: int, min_components: int) -> tuple[GroupSpec, CensusResult]:
    """First family member of the given rank whose variety carries at
    least min_components maximal components at top dimension 3*rank,
    certified by the quotient lower bound.  min_components is at most
    MAX_WITNESS_TARGET."""
    if not 1 <= min_components <= MAX_WITNESS_TARGET:
        raise ValueError(
            f"component target must be in 1..{MAX_WITNESS_TARGET}, got {min_components}"
        )
    for triple in consecutive_prime_triples():
        group = triple_group(rank, triple)
        result = lower_bound_census(group)
        if result.spectrum.count(3 * rank) >= min_components:
            return group, result
    raise AssertionError("unreachable")
