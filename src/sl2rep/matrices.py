"""2x2 complex matrix kernel: powers, words, eigensplits, k-th roots.

Matrices are numpy arrays of shape (2, 2), dtype complex128;
determinant, adjugate, mat_power and eval_word also take (..., 2, 2)
stacks and work matrix by matrix, and branch_roots takes a stack of
root targets with one branch each.  Every 2x2 product, here and in the
oracle, is entry-wise through mul2: three array operations over the
whole stack, where numpy's stacked @ calls BLAS once per matrix, and
each product is bitwise the same however many are taken together.
Every power is taken by power_stack, one binary exponentiation for a
stack of letters each raised to its own power: at each bit, all the
letters that still have higher bits square in one product.  mat_power
is its one-letter call, and eval_word powers all its letters in one.
Inverses of determinant-1 matrices are taken with the exact adjugate
[[d, -b], [-c, a]], which is also the polynomial continuation used off
the determinant-1 locus, so word maps stay polynomial in the entries.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .traces import central_signs, orbit_class, orbit_count

IDENTITY = np.eye(2, dtype=complex)

# classification tolerance for |trace -+ 2| in eigen_split
TRACE_CLASS_TOL = 1e-7
# tolerance for "is this matrix exactly central" within a trace class
CENTRAL_TOL = 1e-9
# (x, y) -> (y, -x): the null vector of a row (x, y)
_ROW_NULL = np.array([1, -1])


def mat2(a, b, c, d) -> np.ndarray:
    return np.array([[a, b], [c, d]], dtype=complex)


def adjugate(m: np.ndarray) -> np.ndarray:
    """[[d, -b], [-c, a]]; equals the inverse when det(m) == 1."""
    out = np.empty(m.shape, dtype=complex)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def determinant(m: np.ndarray):
    """ad - bc: a complex for one matrix, shape (...) for a (..., 2, 2) stack."""
    # one matrix keeps numpy's scalar arithmetic, whose bits
    # test_single_matrix_kernel_is_bitwise_the_scalar_formulas pins
    if m.ndim == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for broadcastable (..., 2, 2) stacks, entry by entry:
    (ab)_ij = a_i0 b_0j + a_i1 b_1j."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


# a step of _power_plan that covers every letter
_ALL = slice(None)


def _rows(positions: list, count: int):
    """A step's letters among count: None for none, _ALL for all, a slice
    when they are consecutive (a view, where an index array copies), or
    an index array."""
    if not positions or len(positions) == count:
        return _ALL if positions else None
    if positions[-1] - positions[0] == len(positions) - 1:
        return slice(positions[0], positions[-1] + 1)
    return np.array(positions)


@functools.lru_cache(maxsize=1024)
def _power_plan(powers: tuple):
    """power_stack's plan for powers >= 1: the order sorting the letters
    by decreasing bit length and its inverse (None when sorted already),
    and per bit the sorted letters whose first set bit it is, those with
    it set after an earlier one, and how many letters have higher bits."""
    order = sorted(range(len(powers)), key=lambda i: -powers[i].bit_length())
    ks = [powers[i] for i in order]
    steps = []
    for bit in range(max(powers, default=0).bit_length()):
        low = 1 << bit
        first, more, higher = [], [], 0
        for s, k in enumerate(ks):
            if k & low:
                (more if k & (low - 1) else first).append(s)
            higher += k >> bit > 1
        steps.append((_rows(first, len(ks)), _rows(more, len(ks)), higher))
    if order == sorted(order):
        return None, None, steps
    return np.array(order), np.argsort(order), steps


def power_stack(letters, exponents, product=mul2) -> np.ndarray:
    """letters[i] ** exponents[i] for a stack of (n, ..., 2, 2) matrices,
    or of (n, ..., 5, 2, 2) jets with product the jet product, in one
    binary exponentiation.  Negative powers go through the adjugate,
    which is linear and so also maps a jet's derivatives; a matrix to
    the power 0 is I.  The letters go by decreasing bit length, so at
    each bit those with higher bits square in one product over the
    leading letters, and those with the bit set multiply their results
    in one more, taking their first factor as it is.  Each letter runs
    exactly the arithmetic of its own binary exponentiation, so the
    result is bitwise the same."""
    bases = np.array(letters, dtype=complex)
    for i, p in enumerate(exponents):
        if not isinstance(p, int):
            raise ValueError(f"matrix power must be an integer, got {p!r}")
        if p <= 0:
            bases[i] = adjugate(bases[i]) if p else IDENTITY
    order, inverse, steps = _power_plan(tuple(abs(p) or 1 for p in exponents))
    base = bases if order is None else bases[order]
    result = np.empty_like(base)
    for first, more, higher in steps:
        if first is not None:
            result[first] = base[first]
        if more is _ALL:
            result = product(result, base)
        elif more is not None:
            result[more] = product(result[more], base[more])
        if higher:
            square = base if higher == len(base) else base[:higher]
            base = product(square, square)
    return result if inverse is None else result[inverse]


def mat_power(m: np.ndarray, k: int) -> np.ndarray:
    """m**k by binary exponentiation; negative k goes through the adjugate."""
    return power_stack(np.asarray(m)[None], (k,))[0]


def eval_word(mats, exponents) -> np.ndarray:
    """Evaluate m1^p1 ... mn^pn for the first n = len(exponents) matrices.

    mats is a sequence of matrices, or a (..., n, 2, 2) stack of points
    whose words come back as a (..., 2, 2) stack.
    """
    if isinstance(mats, np.ndarray) and mats.ndim > 3:
        mats = np.moveaxis(mats, -3, 0)
    mats = list(mats)
    exponents = tuple(exponents)
    if len(mats) < len(exponents):
        raise ValueError(f"word needs {len(exponents)} matrices, got {len(mats)}")
    out = IDENTITY.copy()
    for power in power_stack(mats[:len(exponents)], exponents):
        out = mul2(out, power)
    return out


@dataclass(frozen=True)
class Diagonalizable:
    """m = basis @ diag(eigenvalue, 1/eigenvalue) @ basis^-1."""

    eigenvalue: complex
    basis: np.ndarray


@dataclass(frozen=True)
class Scalar:
    """m == sign * I."""

    sign: int


@dataclass(frozen=True)
class Jordan:
    """m is non-central with trace 2*sign (a parabolic element)."""

    sign: int
    nilpotent: np.ndarray  # m - sign*I, nonzero with square 0


EigenSplit = Union[Diagonalizable, Scalar, Jordan]


def _check_order(k):
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"root order must be an integer >= 1, got {k!r}")


def _eigenpairs(m: np.ndarray):
    """(lam, basis) for an (S, 2, 2) stack with traces away from +-2:
    lam is the quadratic root with the larger (imag, real), basis has the
    unit eigenvectors of lam and 1/lam as columns."""
    t = m[:, 0, 0] + m[:, 1, 1]
    disc = np.sqrt(t * t - 4)
    # the roots are reciprocal; form the larger one without cancellation
    plus, minus = t + disc, t - disc
    big = np.where(abs(plus) >= abs(minus), plus, minus) / 2
    small = 1 / big
    first = (big.imag > small.imag) | ((big.imag == small.imag) & (big.real >= small.real))
    pair = np.stack([big, small], axis=1)
    lams = np.where(first[:, None], pair, pair[:, ::-1])
    # (m - lam I) v = 0: for each eigenvalue (axis 1), the null vectors
    # (m01, lam - m00) and -(lam - m11, m10) of the two rows (axis 2);
    # keep the better conditioned one
    shifted = m[:, None] - lams[:, :, None, None] * IDENTITY
    candidates = shifted[..., ::-1] * _ROW_NULL
    sq_norms = np.sum(abs(candidates) ** 2, axis=-1)
    second = sq_norms[..., 1] > sq_norms[..., 0]
    norm = np.sqrt(np.max(sq_norms, axis=-1))
    if np.any(norm == 0):
        raise ValueError("degenerate eigenvector, matrix is too close to central")
    basis = np.swapaxes(np.where(second[..., None], candidates[:, :, 1], candidates[:, :, 0])
                        / norm[..., None], 1, 2)
    if np.any(abs(determinant(basis)) < 1e-12):
        raise ValueError("eigenbasis is numerically singular")
    return lams[:, 0], basis


def eigen_split(m: np.ndarray, tol: float = TRACE_CLASS_TOL) -> EigenSplit:
    """Classify a determinant-1 matrix by its eigenvalue structure.

    Trace away from +-2: Diagonalizable with the eigenvalue chosen as
    the quadratic root with nonnegative imaginary part (ties broken
    toward nonnegative real part).  Trace within tol of 2*sign: Scalar
    if the matrix is centrally small, else Jordan.
    """
    m = np.asarray(m, dtype=complex)
    t = m[0, 0] + m[1, 1]
    for sign in (1, -1):
        if abs(t - 2 * sign) <= tol:
            off = m - sign * IDENTITY
            if np.max(np.abs(off)) <= CENTRAL_TOL:
                return Scalar(sign)
            return Jordan(sign, off)
    lam, basis = _eigenpairs(m[None])
    return Diagonalizable(complex(lam[0]), basis[0])


def _diagonal_roots(lam: np.ndarray, basis: np.ndarray, k: int, branches: np.ndarray) -> np.ndarray:
    """basis diag(mu, 1/mu) basis^-1 with mu = exp((log(lam) + 2 pi i
    branch)/k) for stacks lam (S,), basis (S, 2, 2) and branches (S,).
    Stacks only: numpy's scalar arithmetic rounds differently from its
    array loops, and every root should be bitwise the same however many
    are built together."""
    mu = np.exp((np.log(lam) + 2j * np.pi * branches) / k)
    scaled = basis * np.stack([mu, 1 / mu], axis=-1)[..., None, :]
    return mul2(scaled, adjugate(basis)) / determinant(basis)[..., None, None]


def _root_branches(m: np.ndarray, k: int):
    """(count, build): the number of k-th root branches of m in SL2C and
    a function building branch j, 0 <= j < count, alone."""
    _check_order(k)
    m = np.asarray(m, dtype=complex)
    if k == 1:
        return 1, lambda branch: m.copy()
    split = eigen_split(m)
    if isinstance(split, Diagonalizable):
        lam, basis = np.array([split.eigenvalue]), split.basis[None]
        return k, lambda branch: _diagonal_roots(lam, basis, k, np.array([branch]))[0]
    if isinstance(split, Scalar):
        central = central_signs(k, split.sign)

        def central_root(branch):
            if branch < len(central):
                return central[branch] * IDENTITY
            cls = orbit_class(k, split.sign, branch - len(central))
            zeta = cmath.exp(1j * cmath.pi * float(cls.angle))
            return np.diag([zeta, 1 / zeta]).astype(complex)
        return len(central) + orbit_count(k, split.sign), central_root
    if split.sign == 1:
        return 1, lambda branch: IDENTITY + split.nilpotent / k
    if k % 2 == 0:
        return 0, None
    return 1, lambda branch: -(IDENTITY + (-m - IDENTITY) / k)


def matrix_roots(m: np.ndarray, k: int) -> list[np.ndarray]:
    """All k-th root branches of m in SL2C, one representative per branch.

    Diagonalizable m: exactly k roots, basis @ diag(mu_j, 1/mu_j) @
    basis^-1 with mu_j = exp((log(lam) + 2 pi i j)/k) for j = 0..k-1,
    principal log.  Scalar m = sign*I: one representative per component
    of the solution set (central roots first, then one diagonal point
    per eigenvalue-pair orbit).  Jordan m with parabolic sign +1:
    the single root I + (m - I)/k.  Jordan sign -1: single root
    -(I + N/k) with N = -m - I when k is odd, and no roots at all when
    k is even, since no SL2C matrix has an even power in that class.
    """
    count, build = _root_branches(m, k)
    return [build(branch) for branch in range(count)]


def branch_roots(m: np.ndarray, k: int, branches):
    """One k-th root per matrix of an (S, 2, 2) stack: row i is
    matrix_roots(m[i], k)[branches[i] % count], built without the other
    branches.  Returns the (S, 2, 2) roots and the mask of rows that have
    one; a row without a root (the even-power parabolic obstruction) is
    NaN.  Rows with traces away from +-2 are split in one vectorised
    pass; the rare rows at +-2 take the central and parabolic branches
    of matrix_roots one by one."""
    _check_order(k)
    m = np.asarray(m, dtype=complex)
    branches = np.asarray(branches)
    if k == 1:
        return m.copy(), np.ones(len(m), dtype=bool)
    t = m[:, 0, 0] + m[:, 1, 1]
    special = (abs(t - 2) <= TRACE_CLASS_TOL) | (abs(t + 2) <= TRACE_CLASS_TOL)
    roots = np.empty_like(m)
    has_root = np.ones(len(m), dtype=bool)
    if not special.all():
        lam, basis = _eigenpairs(m[~special])
        roots[~special] = _diagonal_roots(lam, basis, k, branches[~special] % k)
    for i in np.flatnonzero(special):
        count, build = _root_branches(m[i], k)
        if count:
            roots[i] = build(int(branches[i]) % count)
        else:
            roots[i] = np.nan
            has_root[i] = False
    return roots, has_root


def random_sl2(rng: np.random.Generator) -> np.ndarray:
    """Random determinant-1 matrix: a, b, c standard complex Gaussians,
    redrawn while |a| < 0.1, then d = (1 + b*c)/a."""
    while True:
        # one call draws the six normals of six scalar calls, in order
        re_a, im_a, re_b, im_b, re_c, im_c = rng.standard_normal(6).tolist()
        a, b, c = complex(re_a, im_a), complex(re_b, im_b), complex(re_c, im_c)
        if abs(a) >= 0.1:
            break
    return mat2(a, b, c, (1 + b * c) / a)
