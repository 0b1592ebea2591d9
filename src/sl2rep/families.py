"""Parafree profiles, isomorphism tests, and witness-group searches.

A one-relator group with relator x1^p1 ... xn^pn (n >= 3, all
|pi| >= 2, gcd of the |pi| equal to 1) is parafree of rank n - 1: it
shares all lower central quotients with a free group of that rank but
is not free, needs n generators, and is freely indecomposable.  Free
products with free groups stay parafree; rank adds, and the minimal
generator count stays one above the rank (deviation 1).
ProductPower already holds every |pi| >= 2, so parafree_profile checks
the two hypotheses left, n >= 3 and gcd 1, and names each that fails.
"""

from __future__ import annotations

from collections import Counter

from .census import (
    CensusResult,
    consecutive_prime_triples,
    lower_bound_census,
    prime_triple,
    triple_bound,
    triple_group,
)
from .presentations import (
    FreeGroup,
    FreeProduct,
    GroupSpec,
    ProductPower,
    exponent_gcd,
    check_int,
    format_spec,
    normalized_exponents,
)
from .records import FrozenRecord


class EligibilityError(ValueError):
    """A product-power factor outside the parafree hypotheses."""


class ParafreeProfile(FrozenRecord):
    def __init__(self, rank: int, min_generators: int, deviation: int, freely_indecomposable: bool):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "min_generators", min_generators)
        object.__setattr__(self, "deviation", deviation)
        object.__setattr__(self, "freely_indecomposable", freely_indecomposable)


def parafree_profile(spec: GroupSpec) -> ParafreeProfile:
    """Parafree invariants of an eligible one-relator group, possibly
    free-multiplied by free groups.  Raises EligibilityError naming
    each failed hypothesis (n >= 3, gcd 1), and ValueError for other
    shapes."""
    factors = spec.factors if isinstance(spec, FreeProduct) else (spec,)
    others = [f for f in factors if not isinstance(f, FreeGroup)]
    if len(others) != 1 or not isinstance(others[0], ProductPower):
        raise ValueError("parafree profiles cover one product-power factor times free groups, "
                         f"got {format_spec(spec)}")
    exponents = others[0].exponents
    n = len(exponents)
    failures = []
    if n < 3:
        failures.append("length_ok: relator needs at least 3 generator powers")
    if exponent_gcd(exponents) != 1:
        failures.append("gcd_ok: exponent magnitudes must have gcd 1")
    if failures:
        raise EligibilityError("; ".join(failures))
    free_rank = sum(f.rank for f in factors if isinstance(f, FreeGroup))
    return ParafreeProfile(
        rank=n - 1 + free_rank,
        min_generators=n + free_rank,
        deviation=1,
        freely_indecomposable=isinstance(spec, ProductPower),
    )


def meskin_isomorphic(a, b) -> bool:
    """One-relator product-power groups are isomorphic exactly when the
    multisets of exponent magnitudes agree."""
    return Counter(normalized_exponents(a)) == Counter(normalized_exponents(b))


# largest index family_member accepts: the walk reaches it at the triple
# (350411, 350423, 350429) in ~0.02 s on a 2-core VM
MAX_FAMILY_INDEX = 10**4

# largest component target witness_group accepts: the search walks the
# family once and reaches it at the triple (199999, 200003, 200009),
# after ~6000 triples, in ~0.02 s on a 2-core VM
MAX_WITNESS_TARGET = 10**15


def family_member(rank: int, index: int) -> GroupSpec:
    """index-th member of the canonical rank-r parafree family.

    Rank 2: the one-relator group on the index-th consecutive prime
    triple (3,5,7), (11,13,17), ...; rank r > 2 multiplies in a free
    group of rank r - 2.  Distinct indices give non-isomorphic groups
    (disjoint exponent multisets).  index is at most MAX_FAMILY_INDEX."""
    check_int("family index", index, 0, MAX_FAMILY_INDEX)
    return triple_group(rank, prime_triple(index))


def witness_group(rank: int, min_components: int) -> tuple[GroupSpec, CensusResult]:
    """First family member of the given rank whose variety carries at
    least min_components maximal components at top dimension 3*rank,
    certified by the quotient lower bound.  The walk compares the
    family's closed form triple_bound with the target and runs
    lower_bound_census only on the member it returns, so the result is
    the certified one.  min_components is at most MAX_WITNESS_TARGET."""
    check_int("min_components", min_components, 1, MAX_WITNESS_TARGET)
    for triple in consecutive_prime_triples():
        if triple_bound(triple) >= min_components:
            group = triple_group(rank, triple)
            return group, lower_bound_census(group)
    raise AssertionError("unreachable")
