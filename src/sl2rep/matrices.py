"""2x2 complex matrix kernel: powers, words, k-th roots.

Matrices are numpy arrays of shape (2, 2), dtype complex128;
determinant, adjugate, mat_power and eval_word also take (..., 2, 2)
stacks and work matrix by matrix.  Every 2x2 product, here and in the
oracle, is entry-wise through mul2: three array operations over the
whole stack, where numpy's stacked @ calls BLAS once per matrix, and
each product is bitwise the same however many are taken together.
Every power is taken by power_stack, one binary exponentiation for a
stack of letters each raised to its own power: at each bit, all the
letters that still have higher bits square in one product.  mat_power
is its one-letter call, and eval_word powers all its letters in one.
Every root is taken by branch_roots, one root per row of a stack of
targets, each row classified in the same pass: Sylvester's closed form
a*m + b*I away from trace +-2, the components of {A : A^k = +-I} at +-I
(angles by the dimension module's closed forms), its confluent case at
a parabolic target.
matrix_roots is every branch of one matrix through it.
Inverses of determinant-1 matrices are taken with the exact adjugate
[[d, -b], [-c, a]], which is also the polynomial continuation used off
the determinant-1 locus, so word maps stay polynomial in the entries.
"""

from __future__ import annotations

import functools

import numpy as np

from .dimension import central_signs, orbit_count, orbit_numerator
from .presentations import check_int

IDENTITY = np.eye(2, dtype=complex)

# classification tolerance for |trace -+ 2| in branch_roots
TRACE_CLASS_TOL = 1e-7
# tolerance for "is this matrix exactly central" within a trace class
CENTRAL_TOL = 1e-9


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
    binary exponentiation.  Negative powers go through the adjugate, one
    call for all such letters, which is linear and so also maps a jet's
    derivatives; a matrix to the power 0 is I.  The letters go by
    decreasing bit length, so at each bit those with higher bits square
    in one product over the leading letters, and those with the bit set
    multiply their results in one more, taking their first factor as it
    is.  Each letter runs exactly the arithmetic of its own binary
    exponentiation, so the result is bitwise the same."""
    bases = np.array(letters, dtype=complex)
    for i, p in enumerate(exponents):
        if not check_int("exponent", p):
            bases[i] = IDENTITY
    negative = [i for i, p in enumerate(exponents) if p < 0]
    if negative:
        bases[negative] = adjugate(bases[negative])
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
    return power_stack(np.asarray(m)[None], (check_int("k", k),))[0]


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


def _eigenvalue(t: np.ndarray) -> np.ndarray:
    """For an (S,) stack of traces of determinant-1 matrices away from
    +-2, the eigenvalue with the larger (imag, real) of each pair."""
    disc = np.sqrt(t * t - 4)
    # the roots are reciprocal; form the larger one without cancellation
    plus, minus = t + disc, t - disc
    big = np.where(abs(plus) >= abs(minus), plus, minus) / 2
    small = 1 / big
    first = (big.imag > small.imag) | ((big.imag == small.imag) & (big.real >= small.real))
    return np.where(first, big, small)


def branch_roots(m: np.ndarray, k: int, branches):
    """One k-th root in SL2C per matrix of an (S, 2, 2) stack: row i on
    branch branches[i] mod the row's branch count.  Returns the (S, 2, 2)
    roots and the (S,) branch counts; a row with count 0 has no root
    (the even-power parabolic obstruction) and is NaN.  Every row is
    classified and built in one vectorised pass, and is bitwise the same
    however many are built together:

    - trace away from +-2: k branches, the function of m that takes its
      eigenvalue lam (the one with the larger (imag, real)) to mu_j =
      exp((log(lam) + 2 pi i j)/k), principal log, and 1/lam to 1/mu_j.
      By Sylvester's formula (Higham, Functions of Matrices, 1.2) it is
      a*m + b*I with a = (mu_j - 1/mu_j)/(lam - 1/lam) and b = (lam/mu_j
      - mu_j/lam)/(lam - 1/lam): eigenvalue mu_j on lam's eigenvector;
    - sign*I: one branch per component of {A : A^k = sign*I}, the
      central roots eta*I first, then diag(zeta, 1/zeta) per orbit
      class by increasing angle;
    - parabolic, non-central at trace 2*sign: one root sign*I +
      (m - sign*I)/k, the formula's confluent case a = 1/k, and none
      when sign is -1 and k is even, since no SL2C matrix has an even
      power in that class.
    """
    check_int("k", k, 1)
    m = np.asarray(m, dtype=complex)
    branches = np.asarray(branches)
    counts = np.full(len(m), k)
    if k == 1:
        return m.copy(), counts
    t = m[:, 0, 0] + m[:, 1, 1]
    signs = np.select([abs(t - 2) <= TRACE_CLASS_TOL, abs(t + 2) <= TRACE_CLASS_TOL], [1, -1], 0)
    roots = np.empty_like(m)
    generic = signs == 0
    if generic.any():
        lam = _eigenvalue(t[generic])
        mu = np.exp((np.log(lam) + 2j * np.pi * (branches[generic] % k)) / k)
        gap = lam - 1 / lam
        a, b = (mu - 1 / mu) / gap, (lam / mu - mu / lam) / gap
        roots[generic] = a[:, None, None] * m[generic] + b[:, None, None] * IDENTITY
    for sign in (1, -1):
        rows = np.flatnonzero(signs == sign)
        if not rows.size:
            continue
        offset = m[rows] - sign * IDENTITY
        scalar = np.max(abs(offset), axis=(1, 2)) <= CENTRAL_TOL
        central = central_signs(k, sign)
        counts[rows[scalar]] = count = len(central) + orbit_count(k, sign)
        branch = branches[rows[scalar]] % count
        index = branch - len(central)
        zeta = np.exp(1j * np.pi * (orbit_numerator(sign, index) / k))
        zeta[index < 0] = np.array(central)[branch[index < 0]]
        roots[rows[scalar]] = np.stack([zeta, 1 / zeta], axis=-1)[..., None] * IDENTITY
        parabolic, obstructed = rows[~scalar], sign == -1 and k % 2 == 0
        counts[parabolic] = 0 if obstructed else 1
        roots[parabolic] = np.nan if obstructed else sign * IDENTITY + offset[~scalar] / k
    return roots, counts


def matrix_roots(m: np.ndarray, k: int) -> list[np.ndarray]:
    """All k-th root branches of m in SL2C, one representative per
    branch, as branch_roots builds them."""
    (count,) = branch_roots(np.asarray(m)[None], k, [0])[1]
    return list(branch_roots(np.broadcast_to(m, (count, 2, 2)), k, np.arange(count))[0])


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
