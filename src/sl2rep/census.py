"""Counting maximal components of representation varieties by dimension.

Exact spectra exist for free groups, finite cyclic groups, and free
products of those: the variety of a free product is the product of the
factor varieties, so spectra convolve.  For one-relator product-power
groups the census at top dimension is bounded below through the
quotient that kills each generator's power: a surjection G -> Q induces
a closed embedding of varieties, and when both varieties share the
dimension c, every dimension-c component of the quotient variety lands
inside a distinct dimension-c component upstairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Union

from .dimension import representation_dim
from .presentations import (
    CyclicFinite,
    FreeGroup,
    FreeProduct,
    GroupSpec,
    ProductPower,
    contains_product_power,
    format_spec,
)
from .traces import ComponentSpectrum, central_root_spectrum


@dataclass(frozen=True)
class ExactBasis:
    group: GroupSpec


@dataclass(frozen=True)
class QuotientLowerBound:
    quotient: GroupSpec
    dim_check: int  # shared dimension of both varieties


CensusBasis = Union[ExactBasis, QuotientLowerBound]


@dataclass
class CensusResult:
    spectrum: ComponentSpectrum
    basis: CensusBasis


def product_spectrum(factors) -> ComponentSpectrum:
    """Convolve component spectra: counts multiply, dimensions add."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one spectrum")
    for s in factors:
        if not s.exact:
            raise ValueError("product_spectrum needs exact factor spectra")
    entries = {0: 1}
    for s in factors:
        nxt: dict[int, int] = {}
        for d1, c1 in entries.items():
            for d2, c2 in s.entries.items():
                nxt[d1 + d2] = nxt.get(d1 + d2, 0) + c1 * c2
        entries = nxt
    return ComponentSpectrum(entries)


def exact_census(spec: GroupSpec) -> CensusResult:
    """Full spectrum for specs with no product-power factor."""
    if contains_product_power(spec):
        raise ValueError(
            "exact census is only available without product-power factors; "
            "use lower_bound_census for those"
        )
    return CensusResult(_exact_spectrum(spec), ExactBasis(spec))


def _exact_spectrum(spec: GroupSpec) -> ComponentSpectrum:
    if isinstance(spec, FreeGroup):
        return ComponentSpectrum({3 * spec.rank: 1})
    if isinstance(spec, CyclicFinite):
        return central_root_spectrum(spec.order, 1)
    if isinstance(spec, FreeProduct):
        return product_spectrum(_exact_spectrum(f) for f in spec.factors)
    raise TypeError(f"no exact spectrum for {type(spec).__name__}")


def split_power_factor(spec: GroupSpec):
    """(free factors, power factor) for ProductPower or FreeProduct(F*, one
    ProductPower); None for every other shape."""
    if isinstance(spec, ProductPower):
        return [], spec
    if isinstance(spec, FreeProduct):
        frees = []
        powers = []
        for f in spec.factors:
            if isinstance(f, FreeGroup):
                frees.append(f)
            elif isinstance(f, ProductPower):
                powers.append(f)
            else:
                return None
        if len(powers) == 1:
            return frees, powers[0]
    return None


def lower_bound_census(spec: GroupSpec) -> CensusResult:
    """Certified lower bound on the number of components of top dimension.

    spec must be a product-power triple, optionally free-multiplied by
    free groups.  Its variety dimension c is measured once and returned
    as basis.dim_check.  The bound is the exact dimension-c count for
    the quotient replacing the one-relator factor by the free product of
    cyclic groups of the exponent magnitudes; it is valid only when that
    quotient variety also has dimension c, which is checked.
    """
    shape = split_power_factor(spec)
    if shape is None:
        raise ValueError(
            "lower bounds need a product-power factor times free groups, "
            f"got {format_spec(spec)}"
        )
    frees, power = shape
    if len(power.exponents) != 3:
        raise ValueError(
            "quotient lower bounds are only valid for 3-exponent relators; "
            f"got {len(power.exponents)} exponents"
        )
    c = representation_dim(spec).dim
    cyclics = [CyclicFinite(abs(p)) for p in power.exponents]
    quotient: GroupSpec
    if frees:
        quotient = FreeProduct(tuple(frees) + tuple(cyclics))
    else:
        quotient = FreeProduct(tuple(cyclics))
    quotient_spectrum = _exact_spectrum(quotient)
    if quotient_spectrum.dimension() != c:
        raise ValueError(
            f"quotient variety has dimension {quotient_spectrum.dimension()} != {c}; "
            "the lower bound does not apply"
        )
    bound = quotient_spectrum.count(c)
    return CensusResult(
        ComponentSpectrum({c: bound}, exact=False),
        QuotientLowerBound(quotient, c),
    )


def _is_prime(n: int, odd_primes: list[int]) -> bool:
    """Primality of an odd n >= 3, by trial division with odd_primes,
    which must list every odd prime up to sqrt(n) in increasing order."""
    for p in odd_primes:
        if p * p > n:
            return True
        if n % p == 0:
            return False
    return True


def consecutive_prime_triples() -> Iterator[tuple[int, int, int]]:
    """(3,5,7), (11,13,17), (19,23,29), ...: consecutive odd primes in
    disjoint groups of three.  Each odd candidate is trial-divided by
    the primes the walk has already found."""
    primes: list[int] = []
    chunk = []
    n = 3
    while True:
        if _is_prime(n, primes):
            primes.append(n)
            chunk.append(n)
            if len(chunk) == 3:
                yield tuple(chunk)
                chunk = []
        n += 2


def prime_triple(index: int) -> tuple[int, int, int]:
    if index < 0:
        raise ValueError(f"triple index must be >= 0, got {index}")
    return next(islice(consecutive_prime_triples(), index, None))


def triple_group(rank: int, triple: tuple[int, int, int]) -> GroupSpec:
    """The rank-r group on a prime triple: the one-relator group
    ProductPower(triple), free-multiplied by F_{r-2} when r > 2."""
    if rank < 2:
        raise ValueError(f"family ranks start at 2, got {rank}")
    group: GroupSpec = ProductPower(triple)
    if rank > 2:
        group = FreeProduct((FreeGroup(rank - 2), group))
    return group


# a cost bound: 10^4 groups take about 1.3 s on a 2-core VM
MAX_SEQUENCE_COUNT = 10**4


def distinguishing_sequence(c: int, count: int) -> list[tuple[GroupSpec, CensusResult]]:
    """Groups of one rank, pairwise distinguished by dimension-c counts.

    c must be 6 (rank-2 one-relator groups on prime triples) or 3r for
    r >= 3 (the same groups free-multiplied by F_{r-2}).  Each entry
    carries a strictly larger certified dimension-c lower bound than
    the one before, so no two of the varieties are isomorphic.  count
    is at most MAX_SEQUENCE_COUNT.
    """
    if not 0 <= count <= MAX_SEQUENCE_COUNT:
        raise ValueError(f"count must be in 0..{MAX_SEQUENCE_COUNT}, got {count}")
    if c < 6 or c % 3 != 0:
        raise ValueError(f"supported dimensions are 6, 9, 12, ...; got {c}")
    groups = (triple_group(c // 3, t) for t in islice(consecutive_prime_triples(), count))
    return [(group, lower_bound_census(group)) for group in groups]
