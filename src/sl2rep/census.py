"""Counting maximal components of representation varieties by dimension.

Exact spectra exist for free groups, finite cyclic groups, and free
products of those: the variety of a free product is the product of the
factor varieties, so spectra convolve.  A group G with a product-power
factor gets a lower bound at its top dimension c through the quotient
Q that kills each generator's power: G -> Q is onto, so R(Q) is closed
in R(G), and when R(Q) also has dimension c, each of its dimension-c
components is a distinct component of R(G).  That dimension check is
the bound's only condition.  The spectra start from the closed forms
of the dimension module: F_n is one component of dimension 3n, and Z_p
has its central points at dimension 0 and its orbit_count(p, 1) orbits
at dimension 2.  A CensusResult's basis is the QuotientLowerBound its
count rests on, or None for an exact census.
"""

from __future__ import annotations

import operator
import sys
from itertools import accumulate, islice
from typing import Iterator, Optional

from .dimension import base_dim, central_signs, orbit_count, representation_dim
from .presentations import (
    CyclicFinite,
    FreeGroup,
    FreeProduct,
    GroupSpec,
    ProductPower,
    check_int,
    contains_product_power,
)
from .records import FrozenRecord, Record


class ComponentSpectrum(Record):
    """Map dimension -> number of maximal components of that dimension."""

    def __init__(self, entries: dict[int, int]):
        checked = {check_int("dimension", d, 0): c for d, c in entries.items() if check_int("count", c, 0)}
        self.entries = dict(sorted(checked.items()))

    def dimension(self) -> int:
        if not self.entries:
            raise ValueError("empty spectrum has no dimension")
        return max(self.entries)

    def count(self, dim: int) -> int:
        return self.entries.get(check_int("dim", dim, 0), 0)

    def total(self) -> int:
        return sum(self.entries.values())


def central_root_spectrum(p: int, sign: int) -> ComponentSpectrum:
    """Component spectrum of {A : A^p = sign*I}: isolated centers at
    dimension 0, one 2-dimensional component per eigenvalue-pair orbit.
    Closed form, O(1) in p."""
    return ComponentSpectrum({2: orbit_count(p, sign), 0: len(central_signs(p, sign))})


class QuotientLowerBound(FrozenRecord):
    def __init__(self, quotient: GroupSpec, dim_check: int):
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "dim_check", dim_check)  # shared dimension of both varieties


class CensusResult(Record):
    def __init__(self, spectrum: ComponentSpectrum, basis: Optional[QuotientLowerBound]):
        self.spectrum = spectrum
        self.basis = basis  # None for an exact census


def digit_limit_error() -> ValueError:
    """The error for a result with an integer past the int-to-str digit limit."""
    return ValueError(f"a result exceeds the limit ({sys.get_int_max_str_digits()} digits) "
                      "for printing an integer")


def product_spectrum(factors) -> ComponentSpectrum:
    """Convolve component spectra: counts multiply, dimensions add.

    Raises digit_limit_error() before convolving once the running product
    of the factors' totals passes slots * 10^limit, limit being the
    int-to-str digit limit (0 turns this off): the product has at most
    slots = 1 + (the sum of the factors' dimension spans) entries, so its
    largest entry would have more digits than any command can print.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one spectrum")
    limit = sys.get_int_max_str_digits()
    if limit and all(s.entries for s in factors):
        slots = 1 + sum(max(s.entries) - min(s.entries) for s in factors)
        running = accumulate((s.total() for s in factors), operator.mul)
        # a number below 2^(3 limit) is below 10^limit, so most checks skip the power of ten
        if any(r.bit_length() > 3 * limit and r > slots * 10**limit for r in running):
            raise digit_limit_error()
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
    return CensusResult(_exact_spectrum(spec), None)


def _exact_spectrum(spec: GroupSpec) -> ComponentSpectrum:
    if isinstance(spec, FreeGroup):
        return ComponentSpectrum({3 * spec.rank: 1})
    if isinstance(spec, CyclicFinite):
        return central_root_spectrum(spec.order, 1)
    if isinstance(spec, FreeProduct):
        return product_spectrum(_exact_spectrum(f) for f in spec.factors)
    raise TypeError(f"no exact spectrum for {type(spec).__name__}")


def lower_bound_census(spec: GroupSpec) -> CensusResult:
    """Certified lower bound on the number of components of top dimension.

    spec must have a product-power factor; exact_census covers the
    rest.  The quotient Q keeps spec's free factors, in order, then the
    cyclic groups of every other factor, in order: Z_n stays, and a
    relator x1^p1 ... xk^pk becomes Z_|p1| * ... * Z_|pk|.  G -> Q is
    onto, so when R(Q) has the dimension c of R(G), measured once as
    basis.dim_check, each dimension-c component of R(Q) is a distinct
    one of R(G), and the bound is Q's count at c: the product of its
    factors' top counts, as free products multiply varieties.
    """
    return _lower_bound_at(spec, representation_dim(spec).dim)


def _lower_bound_at(spec: GroupSpec, c: int) -> CensusResult:
    """lower_bound_census of spec, whose variety has dimension c."""
    if not contains_product_power(spec):
        raise ValueError("lower bound census is only available with a product-power factor; "
                         "use exact_census without one")
    frees, orders = [], []
    for f in spec.factors if isinstance(spec, FreeProduct) else (spec,):
        if isinstance(f, FreeGroup):
            frees.append(f)
        elif isinstance(f, CyclicFinite):
            orders.append(f.order)
        else:
            orders.extend(abs(p) for p in f.exponents)
    bound = _top_count(sum(f.rank for f in frees), orders, c)
    quotient = FreeProduct(tuple(frees) + tuple(CyclicFinite(p) for p in orders))
    return CensusResult(ComponentSpectrum({c: bound}), QuotientLowerBound(quotient, c))


def _top_count(free_rank: int, orders, c: int) -> int:
    """The dimension-c count of F_free_rank * Z_p1 * ... * Z_pn for p in
    orders, checked to be that variety's top dimension.  Top dimensions
    add and counts multiply: F_k gives (3k, 1), Z_p (2, orbit_count(p, 1)),
    or its central points at 0 if it has no orbit."""
    dim, count = 3 * free_rank, 1
    for p in orders:
        dim += base_dim(p, 1)
        count *= orbit_count(p, 1) or len(central_signs(p, 1))
    if dim != c:
        raise ValueError(f"quotient variety has dimension {dim} != {c}; the lower bound does not apply")
    return count


def _odd_primes() -> Iterator[int]:
    """3, 5, 7, 11, ...: a segmented sieve of Eratosthenes over the odd
    numbers (Bays & Hudson, BIT 17, 1977).  Segments double from 256
    odd numbers; each is crossed off by the primes found so far, and the
    first also by the primes it yields itself, whose squares it holds."""
    primes: list[int] = []
    lo, size = 3, 256
    while True:
        hi = lo + 2 * size
        segment = bytearray(b"\x01") * size  # segment[i] stands for lo + 2i

        def cross_off(p: int) -> None:
            start = max(p * p, -(-lo // p) * p)  # the first multiple >= lo
            if start % 2 == 0:
                start += p
            first = (start - lo) // 2
            segment[first::p] = bytes(len(range(first, size, p)))

        for p in primes:
            if p * p >= hi:
                break
            cross_off(p)
        i = segment.find(1)
        while i >= 0:
            p = lo + 2 * i
            primes.append(p)
            if p * p < hi:
                cross_off(p)
            yield p
            i = segment.find(1, i + 1)
        lo, size = hi, 2 * size


def consecutive_prime_triples() -> Iterator[tuple[int, int, int]]:
    """(3,5,7), (11,13,17), (19,23,29), ...: consecutive odd primes in
    disjoint groups of three, taken from _odd_primes' segmented sieve.
    The walk to the 10^4-th triple takes about 0.02 s on a 2-core VM."""
    primes = _odd_primes()
    return zip(primes, primes, primes)


def prime_triple(index: int) -> tuple[int, int, int]:
    return next(islice(consecutive_prime_triples(), check_int("triple index", index, 0), None))


def triple_group(rank: int, triple: tuple[int, int, int]) -> GroupSpec:
    """The rank-r group on a prime triple: the one-relator group
    ProductPower(triple), free-multiplied by F_{r-2} when r > 2."""
    check_int("family rank", rank, 2)
    group: GroupSpec = ProductPower(triple)
    if rank > 2:
        group = FreeProduct((FreeGroup(rank - 2), group))
    return group


def triple_bound(triple: tuple[int, int, int]) -> int:
    """The quotient lower bound of triple_group(r, triple) at its top
    dimension 3r, the same for every rank r >= 2, on a triple of odd
    primes: lower_bound_census's checked top count of Z_p * Z_q * Z_r at
    dimension 6, the product of the cyclic factors' orbit_count(p, 1)
    two-dimensional components."""
    return _top_count(0, triple, 6)


# a cost bound: 10^4 groups take about 0.07 s on a 2-core VM
MAX_SEQUENCE_COUNT = 10**4


def distinguishing_sequence(c: int, count: int) -> list[tuple[GroupSpec, int]]:
    """Groups of one rank, pairwise distinguished by dimension-c counts.

    c must be 6 (rank-2 one-relator groups on prime triples) or 3r for
    r >= 3 (the same groups free-multiplied by F_{r-2}).  Each entry is
    a (group, bound) pair: bound is the group's certified dimension-c
    lower bound, lower_bound_census(group).spectrum.count(c), and is
    strictly larger than the one before, so no two of the varieties are
    isomorphic.  count is at most MAX_SEQUENCE_COUNT.
    """
    check_int("count", count, 0, MAX_SEQUENCE_COUNT)
    if check_int("dimension c", c, 6) % 3 != 0:
        raise ValueError(f"supported dimensions are 6, 9, 12, ...; got {c}")
    # base_dim is 2 for every |p| >= 3, so the first member's census
    # certifies the variety's dimension c, and its quotient's free rank,
    # for every member; each member's count still checks its own
    # quotient dimension against c
    first = lower_bound_census(triple_group(c // 3, prime_triple(0))).basis
    free_rank = sum(f.rank for f in first.quotient.factors if isinstance(f, FreeGroup))
    return [(triple_group(c // 3, t), _top_count(free_rank, t, first.dim_check))
            for t in islice(consecutive_prime_triples(), count)]
