"""Numeric verification of variety dimensions by Jacobian rank.

A point of the solution variety of m1^p1 ... mn^pn = sign*I is cut out
in C^(4n) by n determinant equations and the 4 entries of the word
equation; negative powers are evaluated through the adjugate so the
whole system stays polynomial.  At a smooth sample the local dimension
is 4n minus the rank of the complex Jacobian, with rank read off the
singular value spectrum (relative threshold, plus a minimum gap ratio
between the last kept and first dropped value; ambiguous spectra
reject the sample rather than guess).

Samples are drawn on a stratum of maximal dimension.  When the generic
stratum (random prefix, last matrix solved by a root branch) already
has top dimension, that is used; otherwise the sampler follows the
dimension recursion's argmax and draws every letter from a random
eigenvalue-pair orbit of {A : A^k = +-I}.  The generic floor is the
maximum at every step of length >= 3, so such orbit plans arise only
for two-letter words.  Sample i of a run draws from row i of
the run's block of counter-based uniforms(seed, rows, width), so runs
are reproducible and any sample replays alone.

Generic prefix letters of power p are C diag(lam, 1/lam) C^-1, with
C = U diag(s, 1/s) V, U and V Haar in SU(2), |log s| <= 0.2, |p log|lam||
<= 0.2 and arg lam in [0.05, pi - 0.05]: ||m^p|| <= e^0.6 for every p,
n-letter words stay below e^(0.6 n), traces stay 2(1 - cos 0.05) from
+-2, and nine uniforms per letter always serve.  The draw is generic: its
image contains an open subset of SU(2)^(n-1), Zariski dense in
SL2C^(n-1), so it meets the rank-drop locus with probability 0.

A run verifies all its samples at once, as stages over (S, n, 2, 2)
stacks: draw (all letters and orbit points built in one vectorised pass),
prefix word and closed-form root of the last matrix on branch index mod
count, Gauss-Newton polish, one Jacobian whose product-rule pass also
gives the residuals, and one SVD with per-sample rank cuts.  The prefix
words and the Jacobian each raise all their letters in one power chain
(matrices.power_stack), the Jacobian on jets of values and derivatives,
then one product per letter after the first.  The cross-check
jacobian_fd powers only the 9 copies of each letter its 8n points share.
A sample is rejected at the first stage it fails: genericity,
obstructed, residual, rank_gap; the last two are the one check stage,
_checked, which a census run's central points +-I pass stacked with
its orbit samples.  Both kinds of run turn the verdicts into a report
in one place.  The single-sample entry points (sample_from_plan,
complete_point, local_dimension, jacobian_rank) are stacks of one
through the same code, so any sample of a run replays alone;
local_dimension is _checked on a stack of one, and returns the
sample's dimension, an int, or raises the stage's error.

The exact values a run is checked against, and the sign check, come
from the dimension module and the caps from presentations, which load
no numpy.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Optional

import numpy as np

from .dimension import (
    base_dim,
    central_signs,
    check_sign,
    dimension_table,
    orbit_count,
    orbit_numerator,
)
from .matrices import IDENTITY, adjugate, branch_roots, determinant, eval_word, mat_power, mul2, power_stack
from .presentations import MAX_CENTRAL_POWER, MAX_SAMPLES, MAX_VERIFY_EXPONENT, check_int, validate_exponents
from .records import FrozenRecord, Record
from .traces import admissible_traces, match_traces


class Tolerances(FrozenRecord):
    def __init__(self, residual: float = 1e-8, rank_rel: float = 1e-8, trace: float = 1e-6,
                 genericity: float = 1e-4, min_rank_gap: float = 1e3):
        fields = {
            "residual": residual,          # max |equation| at an accepted sample
            "rank_rel": rank_rel,          # singular values below rank_rel * s_max count as zero
            "trace": trace,                # numeric trace vs admissible class matching
            "genericity": genericity,      # reject generic samples with traces this close to +-2
            "min_rank_gap": min_rank_gap,  # required s_rank / s_rank+1 ratio
        }
        for name, value in fields.items():
            if problem := self.domain_error(name, value):
                raise ValueError(f"tolerance {name} {problem}")
        vars(self).update(fields)

    @staticmethod
    def domain_error(name: str, value: float) -> Optional[str]:
        """What is wrong with value for the field name, or None."""
        if isinstance(value, bool) or not (isinstance(value, (int, float))
                                           and math.isfinite(value) and value > 0):
            return f"must be finite and > 0, got {value!r}"
        if name == "rank_rel" and not value < 1:
            return f"must be below 1, got {value!r}"

    def to_dict(self) -> dict:
        return dict(vars(self))


# jacobian_fd's central difference step
FD_STEP = 1e-6
# the most Gauss-Newton steps _polish_last takes
_POLISH_STEPS = 4


class OracleError(RuntimeError):
    pass


class ResidualError(OracleError):
    """Sample does not satisfy the equations to tolerance."""


class RankGapError(OracleError):
    """Singular value spectrum has no clean rank cut."""


# derivatives of m in its entries (0,0), (0,1), (1,0), (1,1)
_ELEM = np.eye(4, dtype=complex).reshape(4, 2, 2)
# d det(m) = (d, -c, -b, a) is m reversed in both axes, times these signs
_DET_SIGNS = np.array([[1, -1], [-1, 1]])

# the generic draw: |log s| and |p log|lam|| stay below _LOG_SPREAD, and
# arg lam keeps _ARG_MARGIN away from 0 and pi
_LOG_SPREAD = 0.2
_ARG_MARGIN = 0.05
# Shoemake's radii sqrt(1 - x), sqrt(x) are sqrt|shift - x| for x = u0, u0, u3, u3
_QUAT_SHIFT = np.array([1.0, 0.0, 1.0, 0.0])
# U and V as rows of [a, b, g, h, conj a, conj b, conj g, conj h]
_SU2_ENTRIES = np.array([0, 1, 5, 4, 2, 3, 7, 6])
_SU2_SIGNS = np.array([1, 1, -1, 1, 1, 1, -1, 1])
_RECIPROCAL = np.array([1, -1])
# SplitMix64's increment, the golden ratio in 64 bits
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 2**64 - 1


def _jet_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """[xy, dx y + x dy] for (..., 5, 2, 2) jets [x, dx]: a matrix and its
    derivatives in four entries, multiplied by the product rule."""
    out = mul2(left, right[..., :1, :, :])
    out[..., 1:, :, :] += mul2(left[..., :1, :, :], right[..., 1:, :, :])
    return out


def _letter_jets(letters: np.ndarray, exponents) -> np.ndarray:
    """The jets [m^p, d m^p] of the powers of a (n, ..., 2, 2) stack of
    letters, as (n, ..., 5, 2, 2): power_stack on the jets [m, dm], so
    each value is bitwise mat_power's at finite entries and the
    derivatives follow by the product rule in O(log |p|) products."""
    jets = np.empty(letters.shape[:-2] + (5, 2, 2), dtype=complex)
    jets[..., 0, :, :], jets[..., 1:, :, :] = letters, _ELEM
    return power_stack(jets, exponents, _jet_product)


@functools.lru_cache(maxsize=64)
def _jacobian_layout(n: int):
    """For n letters: the determinant rows' entries in the flat (n + 4, 4n)
    Jacobian, and per letter i the jet row each word row takes: 0, the
    value, up to row 4i, then 1..4, the derivatives, in i's own rows."""
    # row i holds d det(m_i) = (d, -c, -b, a) at columns 4i..4i+3
    det_entries = (np.arange(n)[:, None] * (4 * n + 4) + np.arange(4)).ravel()
    jet_rows = np.maximum(np.arange(1 + 4 * n) - 4 * np.arange(n)[:, None], 0)
    return det_entries, jet_rows


class ConstraintSystem(FrozenRecord):
    """Polynomial equations cutting the variety of m1^p1 ... mn^pn =
    sign*I out of C^(4n)."""

    def __init__(self, num_matrices: int, exponents: tuple[int, ...], sign: int = 1):
        exps = validate_exponents(exponents)
        check_int("num_matrices", num_matrices, len(exps), len(exps))
        check_sign(sign)
        object.__setattr__(self, "num_matrices", num_matrices)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "sign", sign)

    @property
    def ambient_dim(self) -> int:
        return 4 * self.num_matrices

    def residuals(self, mats) -> np.ndarray:
        """det(m_i) - 1 for each matrix, then the four entries of the word
        minus sign*I.  A (..., n, 2, 2) stack of points gives a
        (..., n + 4) stack of residual vectors."""
        mats = self._points(mats)
        return self._residuals(determinant(mats), eval_word(mats, self.exponents))

    def _residuals(self, dets: np.ndarray, word: np.ndarray) -> np.ndarray:
        """The residual vectors of a stack of points from its letters'
        determinants and its word values."""
        word = word - self.sign * IDENTITY
        return np.concatenate([dets - 1.0, word.reshape(word.shape[:-2] + (4,))], axis=-1)

    def residual_norm(self, mats) -> float:
        return float(np.max(np.abs(self.residuals(mats))))

    def jacobian(self, mats) -> np.ndarray:
        """Complex Jacobian of residuals, by product-rule accumulation.  A
        (..., n, 2, 2) stack of points gives a (..., rows, 4n) stack."""
        return self._jacobian_and_word(self._points(mats))[0]

    def _points(self, mats, one: bool = False) -> np.ndarray:
        """mats as a complex (..., n, 2, 2) stack, or (n, 2, 2) point with one, or a ValueError."""
        mats = np.asarray(mats, dtype=complex)
        if mats.shape[-3:] != (self.num_matrices, 2, 2):
            got = mats.shape[-3] if mats.ndim > 2 and mats.shape[-2:] == (2, 2) else f"shape {mats.shape}"
            raise ValueError(f"a point of this system has {self.num_matrices} letters, got {got}")
        if one and mats.ndim != 3:
            raise ValueError(f"one point of this system has shape {mats.shape[-3:]}, got shape {mats.shape}")
        return mats

    def _jacobian_and_word(self, mats: np.ndarray):
        """The Jacobian and the word values: row 0 of the product-rule
        pass, bitwise eval_word at finite entries.  Each letter after the
        first takes one product: its rows start as the word so far, then
        every row filled in multiplies by the letter's value or, in its
        own rows, its derivatives, each row the arithmetic it took alone."""
        n = self.num_matrices
        lead = mats.shape[:-3]
        det_entries, jet_rows = _jacobian_layout(n)
        jac = np.zeros(lead + (n + 4, 4 * n), dtype=complex)
        jac.reshape(lead + (-1,))[..., det_entries] = \
            (mats[..., ::-1, ::-1] * _DET_SIGNS).reshape(lead + (4 * n,))
        # row 0 holds the word so far, rows 4i+1..4i+4 its derivatives
        # in the entries of m_i; the word starts at its first factor,
        # as I @ factor is factor
        jets = _letter_jets(np.moveaxis(mats, -3, 0), self.exponents)
        word = np.empty(lead + (1 + 4 * n, 2, 2), dtype=complex)
        word[..., :5, :, :] = jets[0]
        for i in range(1, n):
            # the rows of later letters are not filled in yet
            rows = 4 * i + 5
            word[..., rows - 4:rows, :, :] = word[..., :1, :, :]
            word[..., :rows, :, :] = mul2(word[..., :rows, :, :], np.take(jets[i], jet_rows[i, :rows], axis=-3))
        jac[..., n:, :] = np.swapaxes(word[..., 1:, :, :].reshape(lead + (4 * n, 4)), -1, -2)
        return jac, word[..., 0, :, :]


# jacobian_fd's copies of a letter: unmoved, then each entry moved by
# +1 and by -1 steps (-0.0 elsewhere, as -(step * I) has)
_FD_MOVES = np.concatenate([np.zeros((1, 4)), np.eye(4), -np.eye(4)]).reshape(9, 2, 2)


@functools.lru_cache(maxsize=64)
def _fd_copies(n: int) -> np.ndarray:
    """jacobian_fd's (8n, n) map from point and letter to the letter's copy
    in the flat (n, 9) copies: point r moves entry r % 4 of letter
    (r mod 4n) // 4, by +step if r < 4n, else by -step."""
    rows = np.arange(8 * n)
    copies = np.tile(9 * np.arange(n), (8 * n, 1))
    copies[rows, rows % (4 * n) // 4] += rows // (4 * n) * 4 + rows % 4 + 1
    return copies


def jacobian_fd(system: ConstraintSystem, mats) -> np.ndarray:
    """Central finite differences of the residual map, for cross-checks.

    The 8n points base +- FD_STEP * e_j, one per entry j of the 4n matrix
    entries, are evaluated as one stack.  A point moves one entry of one
    letter only, so one power chain and one determinant call over each
    letter's 9 copies (unmoved, and each entry moved by +-FD_STEP) serve
    all points, and each point multiplies its letters' powers left to
    right: bitwise residuals at all 8n points, but for the sign of zero
    entries.
    """
    base = system._points(mats, one=True)
    cols = system.ambient_dim
    copies = base[:, None] + FD_STEP * _FD_MOVES
    index = _fd_copies(len(base))
    factors = power_stack(copies, system.exponents).reshape(-1, 2, 2)[index]
    word = IDENTITY
    for i in range(len(base)):
        word = mul2(word, factors[:, i])
    res = system._residuals(determinant(copies).ravel()[index], word)
    return (res[:cols] - res[cols:]).T / (2 * FD_STEP)


def _equilibrated(jac: np.ndarray) -> np.ndarray:
    # row/column scaling by nonzero scalars preserves rank but evens out
    # the huge magnitude spread high powers put into word rows
    row_scale = np.max(np.abs(jac), axis=-1, keepdims=True)
    row_scale[row_scale == 0] = 1.0
    out = jac / row_scale
    col_scale = np.max(np.abs(out), axis=-2, keepdims=True)
    col_scale[col_scale == 0] = 1.0
    return out / col_scale


def _ranks(jac: np.ndarray, rank_rel: float):
    """(rank, gap ratio) of each matrix of an (S, rows, cols) stack of
    finite Jacobians, from one stacked SVD of the equilibrated stack."""
    singular = np.linalg.svd(_equilibrated(jac), compute_uv=False)
    width = singular.shape[-1]
    rank = np.sum(singular > rank_rel * singular[:, :1], axis=-1)
    # the last kept and the first dropped value
    rows = np.arange(len(singular))
    kept = singular[rows, (rank - 1) % width]
    dropped = singular[rows, np.minimum(rank, width - 1)]
    cut = (rank < width) & (dropped != 0)
    gap = np.divide(kept, dropped, out=np.full(len(rank), math.inf), where=cut)
    return rank, gap


def jacobian_rank(jac: np.ndarray, rank_rel: float, min_gap: float) -> tuple[int, float]:
    """(rank, gap ratio); raises RankGapError when the cut is ambiguous."""
    if not np.all(np.isfinite(jac)):
        raise RankGapError("jacobian has non-finite entries")
    (rank,), (gap,) = _ranks(np.asarray(jac)[None], rank_rel)
    rank, gap = int(rank), float(gap)
    if gap < min_gap:
        raise RankGapError(f"singular value gap {gap:.3g} below {min_gap:.3g}")
    return rank, gap


def _checked(mats: np.ndarray, system: ConstraintSystem, tol: Tolerances):
    """The check stage on an (S, n, 2, 2) stack: one stacked Jacobian,
    whose pass also gives every sample's residual norm, then one stacked
    SVD of the finite Jacobians within tol.residual.  Returns each
    sample's verdict, its rejection reason ("residual" or "rank_gap") or
    else its local dimension, its residual norm, and its rank gap: at
    least tol.min_rank_gap exactly where accepted, NaN where the residual
    gate fails or the Jacobian is not finite."""
    jac, word = system._jacobian_and_word(mats)
    res = np.max(np.abs(system._residuals(determinant(mats), word)), axis=-1)
    near = res <= tol.residual
    verdicts = np.where(near, "rank_gap", "residual").astype(object)
    gap = np.full(len(mats), np.nan)
    finite = np.flatnonzero(near & np.all(np.isfinite(jac), axis=(-2, -1)))
    if finite.size:
        rank, gap[finite] = _ranks(jac[finite], tol.rank_rel)
        good = gap[finite] >= tol.min_rank_gap
        verdicts[finite[good]] = (system.ambient_dim - rank[good]).tolist()
    return verdicts, res, gap


def local_dimension(mats, system: ConstraintSystem, tol: Tolerances = Tolerances()) -> int:
    """Local dimension 4n - rank(Jacobian) at a near-solution sample, an
    int: the check stage on a stack of one, raising its rejection."""
    (verdict,), (res,), (gap,) = _checked(system._points(mats, one=True)[None], system, tol)
    if verdict == "residual":
        raise ResidualError(f"residual {res:.3g} above {tol.residual:.3g}")
    if verdict == "rank_gap":
        raise RankGapError("jacobian has non-finite entries" if math.isnan(gap)
                           else f"singular value gap {gap:.3g} below {tol.min_rank_gap:.3g}")
    return verdict


def _splitmix(z):
    """SplitMix64's finaliser on a Python int or a uint64 array, mod 2^64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _key(seed: int) -> int:
    """A run's 64-bit key: the finaliser folded over every 64-bit limb of
    a non-negative seed, low limb first, so seeds of any size stay apart."""
    key = 0
    for shift in range(0, max(check_int("seed", seed, 0).bit_length(), 1), 64):
        key = _splitmix(((key + _GOLDEN) & _MASK) ^ ((seed >> shift) & _MASK))
    return key


def uniforms(seed: int, rows, width: int) -> np.ndarray:
    """The (len(rows), width) block of a run's uniforms in [0, 1): entry
    (row, column) is the top 53 bits of the SplitMix64 finaliser of
    key(seed) + (row * width + column + 1) * golden.  Integer-exact and
    counter-based, so sample i of a run replays alone as
    uniforms(seed, [i], width)."""
    check_int("width", width, 0)
    counters = np.asarray(rows, dtype=np.uint64)[:, None] * width + np.arange(1, width + 1, dtype=np.uint64)
    return (_splitmix(_key(seed) + counters * _GOLDEN) >> 11) * 2.0 ** -53


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of a stack of systems a x = b,
    by stacked SVD with np.linalg.lstsq's default cutoff."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > np.finfo(float).eps * max(a.shape[-2:]) * s[..., :1]
    coef = (u.conj().swapaxes(-1, -2) @ b[..., None])[..., 0]
    coef = np.divide(coef, s, out=np.zeros_like(coef), where=keep)
    return (vh.conj().swapaxes(-1, -2) @ coef[..., None])[..., 0]


def _polish_last(prefix_word: np.ndarray, root: np.ndarray, power: int, sign: int) -> np.ndarray:
    """Gauss-Newton refinement of the solved last matrices, an (S, 2, 2)
    stack with its prefix words.

    The closed-form roots leave some rows above 1e-13, mostly those whose
    target trace lies near +-2, where branch_roots divides by a small
    lam - 1/lam: 124 of the 7,520 rows that the bench's verify-small and
    verify-highpower commands solve at seeds 1-10, the worst at 1.3e-11.
    A few corrector steps on the system (det m - 1, W m^power - sign I)
    pull the residual back to rounding level without leaving the chosen
    branch.  A row stops once its residual is below 1e-13 or not finite
    and keeps its best iterate; the others step together through a
    stacked SVD solve, which, unlike normal equations, does not square
    the magnitude spread of the word rows.  Each check takes the value
    power of its rows, and each step the derivative jets of its rows.
    """
    m, word, target = root, prefix_word, sign * IDENTITY
    best, best_res = root.copy(), np.full(len(root), math.inf)
    rows = np.arange(len(root))  # where the stepping rows sit in best
    for step in range(_POLISH_STEPS + 1):
        fvec = np.empty((len(m), 5), dtype=complex)
        fvec[:, 0] = determinant(m) - 1.0
        fvec[:, 1:] = (mul2(word, mat_power(m, power)) - target).reshape(-1, 4)
        res = np.max(abs(fvec), axis=1)
        better = res < best_res[rows]
        best[rows[better]], best_res[rows[better]] = m[better], res[better]
        go = (res >= 1e-13) & (res < math.inf)
        if step == _POLISH_STEPS or not go.any():
            break
        m, word, fvec, rows = m[go], word[go], fvec[go], rows[go]
        derivs = _letter_jets(m[None], (power,))[0, :, 1:]
        jac = np.empty((len(m), 5, 4), dtype=complex)
        jac[:, 0] = (m[:, ::-1, ::-1] * _DET_SIGNS).reshape(-1, 4)
        jac[:, 1:] = np.swapaxes(mul2(word[:, None], derivs).reshape(-1, 4, 4), -1, -2)
        m = m + _lstsq(jac, -fvec).reshape(-1, 2, 2)
    return best


def _complete(word: np.ndarray, last: int, sign: int, branches):
    """Root and polish: the last matrices (S, 2, 2) for an (S, 2, 2) stack
    of prefix words, and the mask of rows whose root class is empty."""
    target = sign * (adjugate(word) if last > 0 else word)
    root, counts = branch_roots(target, abs(last), branches)
    return _polish_last(word, root, last, sign), counts == 0


def complete_point(prefix, exponents, sign: int, branch: int):
    """Extend n-1 prefix matrices to a word solution, or None if the
    required root class is empty (the even-power parabolic obstruction).

    The last matrix solves mn^pn = sign * W^-1 for the prefix word W:
    a |pn|-th root of sign * W^-1 when pn > 0, of sign * W when pn < 0.
    branch, an int >= 0, picks among root branches modulo their count.
    """
    exps = validate_exponents(exponents)
    check_sign(sign)
    check_int("branch", branch, 0)
    prefix = np.asarray(prefix, dtype=complex).reshape(-1, 2, 2)
    if len(prefix) != len(exps) - 1:
        raise ValueError(f"need {len(exps) - 1} prefix matrices, got {len(prefix)}")
    last, obstructed = _complete(eval_word(prefix, exps[:-1])[None], exps[-1], sign, [branch])
    return None if obstructed[0] else np.concatenate([prefix, last])


class SamplePlan(FrozenRecord):
    """Where to draw samples so they land on a top-dimensional stratum:
    orbits None for a generic prefix and a solved last letter, else one
    (k, s) of {A : A^k = s*I} per letter, first letter first."""

    def __init__(self, exponents: tuple[int, ...], sign: int,
                 orbits: Optional[tuple[tuple[int, int], ...]]):
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "orbits", orbits)


def build_plan(exponents, sign: int) -> SamplePlan:
    """The sampling strategy at the argmax of dimension_table's top step;
    ties prefer the generic stratum, then the sign-flip stratum.  Both
    degenerate branches stay below the generic floor 3(m-1) at every
    step m >= 3, as D(m-1) <= 3(m-2) + 1, so only two-letter words get
    orbit plans.  A one-letter word has no plan: verify_central_roots
    samples its orbits."""
    exps = validate_exponents(exponents)
    if len(exps) < 2:
        raise ValueError(f"sampling plans cover words of 2 or more letters, got {len(exps)}")
    check_sign(sign)
    return _plan_and_dim(exps, sign)[0]


def _plan_and_dim(exps: tuple[int, ...], sign: int) -> tuple[SamplePlan, int]:
    """build_plan's plan for a validated word of 2 or more letters, and
    the dimension it predicts, from one dimension_table."""
    step = dimension_table(exps)[-1][sign]
    if step.generic_floor == step.dim:
        return SamplePlan(exps, sign, None), step.dim
    first, last = exps
    # the flip branch puts the first letter on -sign and the last on -I
    fiber = -1 if step.flip_sign_branch == step.dim else 1
    return SamplePlan(exps, sign, ((abs(first), sign * fiber), (abs(last), fiber))), step.dim


def _conjugated_diagonal(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """C diag(lam, 1/lam) C^-1 with C = U diag(s, 1/s) V from seven
    uniforms (Shoemake's unit quaternions for U and V): u of shape
    (..., 7) and lam of shape (...) give a (..., 2, 2) stack."""
    # a, b, g, h with U = [[a, b], [-conj b, conj a]] and V likewise from g, h
    quat = np.sqrt(abs(_QUAT_SHIFT - u[..., [0, 0, 3, 3]])) * np.exp(2j * math.pi * u[..., [1, 2, 4, 5]])
    uv = np.concatenate([quat, quat.conj()], axis=-1)[..., _SU2_ENTRIES] * _SU2_SIGNS
    uv = uv.reshape(uv.shape[:-1] + (2, 2, 2))
    s = np.exp(_LOG_SPREAD * (2 * u[..., 6] - 1))
    c = mul2(uv[..., 0, :, :] * (s[..., None] ** _RECIPROCAL)[..., None, :], uv[..., 1, :, :])
    # det C = 1, so C^-1 is the adjugate
    return mul2(c * (lam[..., None] ** _RECIPROCAL)[..., None, :], adjugate(c))


def _letters(exps, u: np.ndarray) -> np.ndarray:
    """Generic prefix letters for the exponents exps from nine uniforms
    each, u of shape (..., len(exps), 9) (see the module docstring)."""
    # 1 / abs(p) divides ints, so exponents past the float range do not overflow
    scale = np.array([1 / abs(p) for p in exps])
    lam = np.exp(_LOG_SPREAD * (2 * u[..., 7] - 1) * scale
                 + 1j * (_ARG_MARGIN + (math.pi - 2 * _ARG_MARGIN) * u[..., 8]))
    return _conjugated_diagonal(u[..., :7], lam)


def _orbit_point(angles, u: np.ndarray) -> np.ndarray:
    """Random conjugates of diag(zeta, 1/zeta), zeta = exp(i pi angle), by
    the same near-unitary C as a prefix letter, from seven uniforms each:
    angles of shape (...) and u of shape (..., 7)."""
    return _conjugated_diagonal(u, np.exp(1j * math.pi * np.asarray(angles, dtype=float)))


def _width(plan: SamplePlan) -> int:
    """Uniforms per sample: nine per generic prefix letter, or eight per
    orbit letter (an orbit index, then seven for C)."""
    n = len(plan.exponents)
    return 9 * (n - 1) if plan.orbits is None else 8 * n


class Sample(Record):
    def __init__(self, mats: Optional[np.ndarray], witness_traces: Optional[list] = None):
        self.mats = mats
        self.witness_traces = [] if witness_traces is None else witness_traces


def _draw_samples(plan: SamplePlan, branches: np.ndarray, u: np.ndarray):
    """The draw, root and polish stages, one sample per row of the
    (S, _width(plan)) uniform block u, on root branch branches[row].

    Returns the (S, n, 2, 2) points, the mask of obstructed samples
    (their last matrix is NaN), and the (S, w) genericity witnesses: for a
    generic plan, the traces of each prefix letter and prefix word.  An
    orbit plan puts each letter on a random eigenvalue-pair orbit of its
    {A : A^k = s*I}, from an orbit index and then seven uniforms for C.
    """
    size = len(u)
    if plan.orbits is not None:
        counts = np.array([orbit_count(k, s) for k, s in plan.orbits])
        if not counts.all():
            raise OracleError(f"no orbit components for some (power, sign) of {plan.orbits}")
        k, s = np.array(plan.orbits).T
        u = u.reshape(size, len(counts), 8)
        index = np.minimum((u[..., 0] * counts).astype(int), counts - 1)
        return (_orbit_point(orbit_numerator(s, index) / k, u[..., 1:]),
                np.zeros(size, dtype=bool), np.empty((size, 0), dtype=complex))
    exps = plan.exponents
    letters = _letters(exps[:-1], u.reshape(size, len(exps) - 1, 9))
    prefix = np.moveaxis(letters, 1, 0)
    word = IDENTITY
    witnesses = []
    for letter, power in zip(prefix, power_stack(prefix, exps[:-1])):
        word = mul2(word, power)
        witnesses += [letter, word]
    last, obstructed = _complete(word, exps[-1], plan.sign, branches)
    traces = np.trace(np.stack(witnesses, axis=1), axis1=-2, axis2=-1)
    return np.concatenate([letters, last[:, None]], axis=1), obstructed, traces


def sample_from_plan(plan: SamplePlan, seed: int, index: int) -> Sample:
    """Sample index of a run of this plan under this seed, alone: a stack
    of one drawn from the run's uniform row index on root branch index.
    A run has at most MAX_SAMPLES samples."""
    check_int("index", index, 0, MAX_SAMPLES - 1)
    mats, obstructed, witnesses = _draw_samples(plan, np.array([index]),
                                                uniforms(seed, [index], _width(plan)))
    return Sample(None if obstructed[0] else mats[0], witnesses[0].tolist())


def _near_central_trace(witnesses: np.ndarray, tol: float) -> np.ndarray:
    return np.any(np.minimum(abs(witnesses - 2), abs(witnesses + 2)) < tol, axis=-1)


def _dimension_verdicts(plan: SamplePlan, system: ConstraintSystem, seed: int,
                        num_samples: int, tol: Tolerances):
    """The stages of a dimension run over samples 0..num_samples-1: each
    sample's verdict, its rejection reason or else its local dimension,
    and the rank gaps of the accepted samples."""
    rows = np.arange(num_samples)
    mats, obstructed, witnesses = _draw_samples(plan, rows, uniforms(seed, rows, _width(plan)))
    verdicts = np.full(num_samples, "genericity", dtype=object)
    generic = ~_near_central_trace(witnesses, tol.genericity)
    verdicts[generic & obstructed] = "obstructed"
    checked = np.flatnonzero(generic & ~obstructed)
    verdicts[checked], _, gap = _checked(mats[checked], system, tol)
    return verdicts.tolist(), gap[gap >= tol.min_rank_gap]


class VerificationReport(Record):
    """Outcome of a sampling run against a predicted dimension or census."""

    def __init__(self, kind: str, inputs: dict, seed: int, tolerances: Tolerances,
                 samples_requested: int, samples_accepted: int, rejections: dict[str, int],
                 local_dim_histogram: dict[int, int], consensus_dim: Optional[int],
                 predicted_dim: int, agreement: float, min_rank_gap: float,
                 trace_class_tallies: dict[str, int], central_checks: dict[str, int | str],
                 passed: bool):
        self.kind = kind  # "dimension" | "central-roots"
        self.inputs = inputs
        self.seed = seed
        self.tolerances = tolerances
        self.samples_requested = samples_requested
        self.samples_accepted = samples_accepted
        self.rejections = rejections
        self.local_dim_histogram = local_dim_histogram
        self.consensus_dim = consensus_dim
        self.predicted_dim = predicted_dim
        self.agreement = agreement
        self.min_rank_gap = min_rank_gap
        self.trace_class_tallies = trace_class_tallies
        self.central_checks = central_checks  # local dimension, or the stage's rejection reason
        self.passed = passed

    def to_dict(self) -> dict:
        gap = self.min_rank_gap
        return {
            "kind": self.kind,
            "inputs": dict(self.inputs),
            "seed": self.seed,
            "tolerances": self.tolerances.to_dict(),
            "samples_requested": self.samples_requested,
            "samples_accepted": self.samples_accepted,
            "rejections": {k: self.rejections[k] for k in sorted(self.rejections)},
            "local_dim_histogram": {
                str(d): self.local_dim_histogram[d] for d in sorted(self.local_dim_histogram)
            },
            "consensus_dim": self.consensus_dim,
            "predicted_dim": self.predicted_dim,
            "agreement": self.agreement,
            "min_rank_gap": gap if math.isfinite(gap) else "inf",
            "trace_class_tallies": {
                k: self.trace_class_tallies[k] for k in sorted(self.trace_class_tallies)
            },
            "central_checks": {k: self.central_checks[k] for k in sorted(self.central_checks)},
            "pass": self.passed,
        }


_REJECTIONS = ("obstructed", "genericity", "residual", "rank_gap")


def _report(kind: str, inputs: dict, seed: int, tol: Tolerances, verdicts: list,
            gaps: np.ndarray, predicted: int) -> VerificationReport:
    """The report of a run from each sample's verdict and the rank gaps of
    the accepted samples.  Passes only when at least one sample is
    accepted, every accepted sample reports the same local dimension, and
    that consensus equals the predicted dimension."""
    histogram = dict(Counter(v for v in verdicts if isinstance(v, int)))
    accepted = sum(histogram.values())
    # the most frequent local dimension, the smallest on ties
    best = max(histogram.values(), default=0)
    consensus = min((d for d, c in histogram.items() if c == best), default=None)
    return VerificationReport(
        kind=kind,
        inputs=inputs,
        seed=seed,
        tolerances=tol,
        samples_requested=len(verdicts),
        samples_accepted=accepted,
        rejections={reason: verdicts.count(reason) for reason in _REJECTIONS},
        local_dim_histogram=histogram,
        consensus_dim=consensus,
        predicted_dim=predicted,
        agreement=(histogram.get(consensus, 0) / accepted) if accepted else 0.0,
        min_rank_gap=float(np.min(gaps)) if len(gaps) else math.inf,
        trace_class_tallies={},
        central_checks={},
        passed=bool(accepted > 0 and len(histogram) == 1 and consensus == predicted),
    )


def verify_dimension(
    exponents,
    sign: int = 1,
    num_samples: int = 100,
    seed: int = 0,
    tol: Tolerances = Tolerances(),
) -> VerificationReport:
    """Sample the variety of m1^p1 ... mn^pn = sign*I and compare local
    Jacobian dimensions against the recursion's prediction.

    Passes only when at least one sample is accepted, every accepted
    sample reports the same local dimension, and that consensus equals
    the predicted dimension.  Root branches are swept round-robin via
    the sample index.  Word lengths are capped at 8 and sample counts
    at MAX_SAMPLES as cost guards, and |exponents| at MAX_VERIFY_EXPONENT,
    beyond which float64 cannot check m^p to the residual gate.
    """
    exps = validate_exponents(exponents)
    if not 2 <= len(exps) <= 8:
        raise ValueError(f"verification covers word lengths 2..8, got {len(exps)}")
    if max(map(abs, exps)) > MAX_VERIFY_EXPONENT:
        raise ValueError(f"verification covers exponents up to |p| = {MAX_VERIFY_EXPONENT}, "
                         f"got {max(exps, key=abs)}")
    check_int("num_samples", num_samples, 1, MAX_SAMPLES)
    system = ConstraintSystem(len(exps), exps, sign)
    plan, predicted = _plan_and_dim(exps, sign)
    verdicts, gaps = _dimension_verdicts(plan, system, seed, num_samples, tol)
    return _report("dimension", {"exponents": list(exps), "sign": sign}, seed, tol,
                   verdicts, gaps, predicted)


def verify_central_roots(
    p: int,
    sign: int = 1,
    num_samples: int = 24,
    seed: int = 0,
    tol: Tolerances = Tolerances(),
) -> VerificationReport:
    """Check the component census of {A : A^p = sign*I} numerically.

    The central members and random conjugates on every eigenvalue-pair
    orbit pass the run's one check stage together.  Central members
    must be isolated (local dimension 0 from a full-rank Jacobian); a
    central member the stage rejects fails the run, and central_checks
    names its rejection reason.  The orbit samples are the run's samples:
    every accepted one must have local dimension 2 and a trace matching
    its admissible class.  Passes when all of that holds and the sampled
    class set matches the expected census.  p is capped at
    MAX_CENTRAL_POWER and num_samples at MAX_SAMPLES.
    """
    check_int("p", p, 2, MAX_CENTRAL_POWER)
    check_int("num_samples", num_samples, 1, MAX_SAMPLES)
    traces = admissible_traces(p, sign)
    # the orbit classes by increasing angle, as central_root_classes lists them
    orbit_rows = np.flatnonzero(traces.numerators % p != 0)
    per_class = max(1, -(-num_samples // len(orbit_rows))) if len(orbit_rows) else 0
    # sample index class_index * per_class + rep draws class class_index
    expected = np.repeat(orbit_rows, per_class)
    orbits = _orbit_point(traces.numerators[expected] / p, uniforms(seed, np.arange(len(expected)), 7))
    central = central_signs(p, sign)
    # the central points pass the check stage ahead of the orbit samples
    points = np.concatenate([np.multiply.outer(central, IDENTITY), orbits])
    verdicts, _, gap = _checked(points[:, None], ConstraintSystem(1, (p,), sign), tol)
    samples = slice(len(central), None)
    accepted = gap[samples] >= tol.min_rank_gap
    report = _report("central-roots", {"power": p, "sign": sign}, seed, tol, verdicts[samples].tolist(),
                     gap[samples][accepted], base_dim(p, sign))
    report.central_checks = {"+2" if eta == 1 else "-2": v for eta, v in zip(central, verdicts)}
    matched = match_traces(np.trace(orbits[accepted], axis1=-2, axis2=-1), traces, tol.trace)
    tallies = Counter(matched[matched >= 0].tolist())
    report.trace_class_tallies = {traces.label(row): count for row, count in tallies.items()}
    central_ok = all(v == 0 for v in report.central_checks.values())
    if len(orbit_rows):
        report.passed = bool(report.passed and central_ok and np.array_equal(matched, expected[accepted])
                             and len(report.trace_class_tallies) == len(orbit_rows))
    else:
        report.consensus_dim, report.passed = 0, central_ok
    return report
