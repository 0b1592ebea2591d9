"""2x2 complex matrix kernel: powers, words, eigensplits, k-th roots.

Matrices are numpy arrays of shape (2, 2), dtype complex128;
determinant, adjugate, mat_power and eval_word also take (..., 2, 2)
stacks and work matrix by matrix.  Inverses of determinant-1 matrices
are taken with the exact adjugate [[d, -b], [-c, a]], which is also the
polynomial continuation used off the determinant-1 locus, so word maps
stay polynomial in the entries.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .traces import central_signs, orbit_class, orbit_count

IDENTITY = np.eye(2, dtype=complex)

# classification tolerance for |trace -+ 2| in eigen_split
TRACE_CLASS_TOL = 1e-7
# tolerance for "is this matrix exactly central" within a trace class
CENTRAL_TOL = 1e-9


def mat2(a, b, c, d) -> np.ndarray:
    return np.array([[a, b], [c, d]], dtype=complex)


# The single-matrix branches below keep scalar indexing: the samplers
# call them per draw, and it is several times cheaper than [..., i, j].

def adjugate(m: np.ndarray) -> np.ndarray:
    """[[d, -b], [-c, a]]; equals the inverse when det(m) == 1."""
    if m.ndim == 2:
        return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)
    out = np.empty(m.shape, dtype=complex)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def determinant(m: np.ndarray):
    """ad - bc: a complex for one matrix, shape (...) for a (..., 2, 2) stack."""
    if m.ndim == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def mat_power(m: np.ndarray, k: int) -> np.ndarray:
    """m**k by binary exponentiation; negative k goes through the adjugate."""
    if not isinstance(k, int):
        raise ValueError(f"matrix power must be an integer, got {k!r}")
    if k < 0:
        base = adjugate(m)
        k = -k
    else:
        base = np.asarray(m, dtype=complex)
    result = IDENTITY.copy() if base.ndim == 2 else np.broadcast_to(IDENTITY, base.shape).copy()
    while k:
        if k & 1:
            result = result @ base
        base = base @ base
        k >>= 1
    return result


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
    for m, p in zip(mats, exponents):
        out = out @ mat_power(m, p)
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


def _eigenvector(m: np.ndarray, lam: complex) -> np.ndarray:
    # (m - lam I) v = 0; pick the better conditioned of the two row formulas
    v1 = np.array([m[0, 1], lam - m[0, 0]], dtype=complex)
    v2 = np.array([lam - m[1, 1], m[1, 0]], dtype=complex)
    v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("degenerate eigenvector, matrix is too close to central")
    return v / norm


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
    disc = cmath.sqrt(t * t - 4)
    # the roots are reciprocal; form the larger one without cancellation
    big = (t + disc) / 2 if abs(t + disc) >= abs(t - disc) else (t - disc) / 2
    roots = (big, 1 / big)
    lam = max(roots, key=lambda z: (z.imag, z.real))
    lam_inv = roots[1] if lam is roots[0] else roots[0]
    v1 = _eigenvector(m, lam)
    v2 = _eigenvector(m, lam_inv)
    basis = np.column_stack([v1, v2])
    if abs(determinant(basis)) < 1e-12:
        raise ValueError("eigenbasis is numerically singular")
    return Diagonalizable(lam, basis)


def _conjugate(basis: np.ndarray, diag: np.ndarray) -> np.ndarray:
    return basis @ diag @ (adjugate(basis) / determinant(basis))


def _root_branches(m: np.ndarray, k: int):
    """(count, build): the number of k-th root branches of m in SL2C and
    a function building branch j, 0 <= j < count, alone."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"root order must be an integer >= 1, got {k!r}")
    m = np.asarray(m, dtype=complex)
    if k == 1:
        return 1, lambda branch: m.copy()
    split = eigen_split(m)
    if isinstance(split, Diagonalizable):
        log_lam = cmath.log(split.eigenvalue)

        def diagonal_root(branch):
            mu = cmath.exp((log_lam + 2j * cmath.pi * branch) / k)
            return _conjugate(split.basis, np.diag([mu, 1 / mu]))
        return k, diagonal_root
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


def matrix_root(m: np.ndarray, k: int, branch: int) -> Optional[np.ndarray]:
    """matrix_roots(m, k)[branch % count], built without the other
    branches; None when m has no k-th root."""
    count, build = _root_branches(m, k)
    return build(branch % count) if count else None


def random_sl2(rng: np.random.Generator) -> np.ndarray:
    """Random determinant-1 matrix: a, b, c standard complex Gaussians,
    redrawn while |a| < 0.1, then d = (1 + b*c)/a."""
    while True:
        a, b, c = (
            complex(rng.standard_normal(), rng.standard_normal()) for _ in range(3)
        )
        if abs(a) >= 0.1:
            break
    return mat2(a, b, c, (1 + b * c) / a)
