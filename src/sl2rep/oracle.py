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
dimension recursion's argmax and places the prefix on the degenerate
locus where the prefix word is +-I, with the last matrix drawn from a
random eigenvalue-pair orbit.  Every sample stream is derived from
(master seed, sample index), so runs are reproducible.

Generic prefix letters of power p are C diag(lam, 1/lam) C^-1, with
C = U diag(s, 1/s) V, U and V Haar in SU(2), |log s| <= 0.2, |p log|lam||
<= 0.2 and arg lam in [0.05, pi - 0.05]: ||m^p|| <= e^0.6 for every p,
n-letter words stay below e^(0.6 n), traces stay 2(1 - cos 0.05) from
+-2, and nine uniforms per letter always serve.  The draw is generic: its
image contains an open subset of SU(2)^(n-1), Zariski dense in
SL2C^(n-1), so it meets the rank-drop locus with probability 0.

A run verifies all its samples at once, as stages over (S, n, 2, 2)
stacks: draw (each sample from its own stream sample_rng(seed, index),
all letters and orbit points built in one vectorised pass), prefix word
and closed-form root of the last matrix on branch index mod count,
Gauss-Newton polish, one residual check, one Jacobian and one SVD with
per-sample rank cuts.  A sample is rejected at the first stage it fails:
genericity, obstructed, residual, rank_gap.  A census run puts its
central points +-I through the same check stage, stacked with its orbit
samples.  Both kinds of run turn the verdicts into a report in one
place.  The single-sample entry points (sample_from_plan,
complete_point, local_dimension, jacobian_rank) are stacks of one
through the same code, so any sample of a run can be replayed alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dimension import dimension_table, product_power_dim
from .matrices import IDENTITY, adjugate, branch_roots, determinant, eval_word, mat_power, mul2
from .presentations import validate_exponents
from .traces import (
    admissible_traces,
    central_root_spectrum,
    central_signs,
    match_traces,
    orbit_class,
    orbit_count,
)


@dataclass(frozen=True)
class Tolerances:
    residual: float = 1e-8      # max |equation| at an accepted sample
    rank_rel: float = 1e-8      # singular values below rank_rel * s_max count as zero
    trace: float = 1e-6         # numeric trace vs admissible class matching
    genericity: float = 1e-4    # reject generic samples with traces this close to +-2
    min_rank_gap: float = 1e3   # required s_rank / s_rank+1 ratio
    fd_step: float = 1e-6       # central difference step for cross-checks

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {name} must be finite and > 0, got {value!r}")
        if not self.rank_rel < 1:
            raise ValueError(f"tolerance rank_rel must be below 1, got {self.rank_rel!r}")

    def to_dict(self) -> dict:
        return {
            "residual": self.residual,
            "rank_rel": self.rank_rel,
            "trace": self.trace,
            "genericity": self.genericity,
            "min_rank_gap": self.min_rank_gap,
        }


class OracleError(RuntimeError):
    pass


class ResidualError(OracleError):
    """Sample does not satisfy the equations to tolerance."""


class RankGapError(OracleError):
    """Singular value spectrum has no clean rank cut."""


# derivatives of m and of adj(m) in the entries (0,0), (0,1), (1,0), (1,1) of m
_ELEM = np.eye(4, dtype=complex).reshape(4, 2, 2)
_ADJ_ELEM = adjugate(_ELEM)
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
# cost bounds (a few seconds each on a 2-core VM); the CLI exits 2 above them
MAX_SAMPLES = 1000
MAX_CENTRAL_POWER = 10**4
# accuracy bound: float64 checks m^p to the residual gate up to here
MAX_VERIFY_EXPONENT = 10**7


def _jet_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """[xy, dx y + x dy] for (..., 5, 2, 2) jets [x, dx]: a matrix and its
    derivatives in four entries, multiplied by the product rule."""
    out = mul2(left, right[..., :1, :, :])
    out[..., 1:, :, :] += mul2(left[..., :1, :, :], right[..., 1:, :, :])
    return out


def _power_with_derivs(m: np.ndarray, p: int):
    """m^p (adjugate route for p < 0) and its derivatives in the four
    entries of m, for |p| >= 2 as validate_exponents requires: a
    (..., 2, 2) stack gives (..., 2, 2) values and (..., 4, 2, 2)
    derivatives.

    Runs the binary exponentiation of mat_power on the jet [m^j, d m^j],
    so the value is bitwise equal to mat_power(m, p) at finite entries
    and the derivatives follow by the product rule: O(log |p|) products.
    """
    k = abs(p)
    m = np.asarray(m, dtype=complex)
    base, dbase = (m, _ELEM) if p >= 0 else (adjugate(m), _ADJ_ELEM)
    jet = np.empty(base.shape[:-2] + (5, 2, 2), dtype=complex)
    jet[..., 0, :, :], jet[..., 1:, :, :] = base, dbase
    result = None
    while k:
        if k & 1:
            # mat_power's first factor is the result itself, with no product by I
            result = jet if result is None else _jet_product(result, jet)
        k >>= 1
        if k:
            jet = _jet_product(jet, jet)
    return result[..., 0, :, :], result[..., 1:, :, :]


@dataclass(frozen=True)
class ConstraintSystem:
    """Polynomial equations cutting the variety out of C^(4n).

    exponents None means no word equation (free group): only the n
    determinant constraints remain.
    """

    num_matrices: int
    exponents: Optional[tuple[int, ...]] = None
    sign: int = 1

    def __post_init__(self):
        if self.num_matrices < 1:
            raise ValueError("need at least one matrix")
        if self.exponents is not None:
            exps = validate_exponents(self.exponents)
            if len(exps) != self.num_matrices:
                raise ValueError("exponent count must match matrix count")
            object.__setattr__(self, "exponents", exps)
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    @property
    def ambient_dim(self) -> int:
        return 4 * self.num_matrices

    def residuals(self, mats) -> np.ndarray:
        """det(m_i) - 1 for each matrix, then the four entries of the word
        minus sign*I (no word rows for a free system).  A (..., n, 2, 2)
        stack of points gives a (..., n + 4) stack of residual vectors."""
        mats = np.asarray(mats, dtype=complex)
        dets = determinant(mats) - 1.0
        if self.exponents is None:
            return dets
        word = eval_word(mats, self.exponents) - self.sign * IDENTITY
        return np.concatenate([dets, word.reshape(word.shape[:-2] + (4,))], axis=-1)

    def residual_norm(self, mats) -> float:
        return float(np.max(np.abs(self.residuals(mats))))

    def jacobian(self, mats) -> np.ndarray:
        """Complex Jacobian of residuals, by product-rule accumulation.  A
        (..., n, 2, 2) stack of points gives a (..., rows, 4n) stack."""
        mats = np.asarray(mats, dtype=complex)
        n = self.num_matrices
        lead = mats.shape[:-3]
        rows = n + (4 if self.exponents is not None else 0)
        jac = np.zeros(lead + (rows, 4 * n), dtype=complex)
        # row i holds d det(m_i) = (d, -c, -b, a) at columns 4i..4i+3
        det_entries = (np.arange(n)[:, None] * (4 * n + 4) + np.arange(4)).ravel()
        jac.reshape(lead + (-1,))[..., det_entries] = \
            (mats[..., ::-1, ::-1] * _DET_SIGNS).reshape(lead + (4 * n,))
        if self.exponents is not None:
            # row 0 holds the word so far, rows 4i+1..4i+4 its derivatives
            # in the entries of m_i; the word starts at its first factor,
            # as I @ factor is factor
            word = np.empty(lead + (1 + 4 * n, 2, 2), dtype=complex)
            word[..., 0, :, :], word[..., 1:5, :, :] = _power_with_derivs(mats[..., 0, :, :], self.exponents[0])
            for i, p in enumerate(self.exponents[1:], start=1):
                factor, factor_derivs = _power_with_derivs(mats[..., i, :, :], p)
                # the rows of later letters are not filled in yet
                word[..., 4 * i + 1: 4 * i + 5, :, :] = mul2(word[..., :1, :, :], factor_derivs)
                word[..., :4 * i + 1, :, :] = mul2(word[..., :4 * i + 1, :, :], factor[..., None, :, :])
            jac[..., n:, :] = np.swapaxes(word[..., 1:, :, :].reshape(lead + (4 * n, 4)), -1, -2)
        return jac


def jacobian_fd(system: ConstraintSystem, mats,
                step: float = Tolerances().fd_step) -> np.ndarray:
    """Central finite differences of the residual map, for cross-checks.

    The 8n points base +- step * e_j, one per entry j of the 4n matrix
    entries, go through a single stacked residual evaluation.
    """
    base = np.asarray(mats, dtype=complex)
    cols = system.ambient_dim
    offsets = (step * np.eye(cols)).reshape((cols,) + base.shape)
    res = system.residuals(base + np.concatenate([offsets, -offsets]))
    return (res[:cols] - res[cols:]).T / (2 * step)


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


@dataclass(frozen=True)
class LocalDimension:
    dim: int
    rank: int
    gap: float


def _local_dimensions(mats: np.ndarray, system: ConstraintSystem, tol: Tolerances):
    """The check stages on an (S, n, 2, 2) stack: the residual norm of
    every sample, then for those within tol.residual one stacked Jacobian
    and one stacked SVD.  Returns (res, rank, gap); rank is -1 and gap
    NaN where the residual gate fails or the Jacobian is not finite."""
    res = np.max(np.abs(system.residuals(mats)), axis=-1)
    rank = np.full(len(mats), -1)
    gap = np.full(len(mats), np.nan)
    near = np.flatnonzero(res <= tol.residual)
    if near.size:
        jac = system.jacobian(mats[near])
        finite = np.all(np.isfinite(jac), axis=(-2, -1))
        if finite.any():
            rank[near[finite]], gap[near[finite]] = _ranks(jac[finite], tol.rank_rel)
    return res, rank, gap


def _checked(mats: np.ndarray, system: ConstraintSystem, tol: Tolerances):
    """The check stage as verdicts: each sample's rejection reason
    ("residual" or "rank_gap") or else its local dimension, and each
    sample's rank gap, at least tol.min_rank_gap exactly where accepted."""
    res, rank, gap = _local_dimensions(mats, system, tol)
    verdicts = np.where(res <= tol.residual, "rank_gap", "residual").astype(object)
    good = gap >= tol.min_rank_gap
    verdicts[good] = (system.ambient_dim - rank[good]).tolist()
    return verdicts, gap


def local_dimension(mats, system: ConstraintSystem, tol: Tolerances = Tolerances()) -> LocalDimension:
    """Local dimension 4n - rank(Jacobian) at a near-solution sample."""
    (res,), (rank,), (gap,) = _local_dimensions(np.asarray(mats, dtype=complex)[None], system, tol)
    if not res <= tol.residual:
        raise ResidualError(f"residual {res:.3g} above {tol.residual:.3g}")
    if rank < 0:
        raise RankGapError("jacobian has non-finite entries")
    if gap < tol.min_rank_gap:
        raise RankGapError(f"singular value gap {gap:.3g} below {tol.min_rank_gap:.3g}")
    return LocalDimension(system.ambient_dim - int(rank), int(rank), float(gap))


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for one (seed, sample index) pair."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of a stack of systems a x = b,
    by stacked SVD with np.linalg.lstsq's default cutoff."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > np.finfo(float).eps * max(a.shape[-2:]) * s[..., :1]
    coef = (u.conj().swapaxes(-1, -2) @ b[..., None])[..., 0]
    coef = np.divide(coef, s, out=np.zeros_like(coef), where=keep)
    return (vh.conj().swapaxes(-1, -2) @ coef[..., None])[..., 0]


def _polish_last(prefix_word: np.ndarray, root: np.ndarray, power: int, sign: int,
                 steps: int = 4) -> np.ndarray:
    """Gauss-Newton refinement of the solved last matrices, an (S, 2, 2)
    stack with its prefix words.

    Root extraction through an eigenbasis loses accuracy when the target
    matrix has large entries; a few corrector steps on the system
    (det m - 1, W m^power - sign I) pull the residual back to rounding
    level without leaving the chosen branch.  A row stops once its
    residual is below 1e-13 or not finite and keeps its best iterate;
    the others step together through a stacked SVD solve, which, unlike
    normal equations, does not square the magnitude spread of the word
    rows.
    """
    m, word, target = root, prefix_word, sign * IDENTITY
    best, best_res = root.copy(), np.full(len(root), math.inf)
    rows = np.arange(len(root))  # where the stepping rows sit in best
    for step in range(steps + 1):
        fvec = np.empty((len(m), 5), dtype=complex)
        fvec[:, 0] = determinant(m) - 1.0
        fvec[:, 1:] = (mul2(word, mat_power(m, power)) - target).reshape(-1, 4)
        res = np.max(abs(fvec), axis=1)
        better = res < best_res[rows]
        best[rows[better]], best_res[rows[better]] = m[better], res[better]
        go = (res >= 1e-13) & (res < math.inf)
        if step == steps or not go.any():
            break
        if not go.all():
            m, word, fvec, rows = m[go], word[go], fvec[go], rows[go]
        # most rows stop at the first check, so derivatives wait until here
        jac = np.empty((len(m), 5, 4), dtype=complex)
        jac[:, 0] = (m[:, ::-1, ::-1] * _DET_SIGNS).reshape(-1, 4)
        jac[:, 1:] = np.swapaxes(mul2(word[:, None], _power_with_derivs(m, power)[1]).reshape(-1, 4, 4),
                                 -1, -2)
        m = m + _lstsq(jac, -fvec).reshape(-1, 2, 2)
    return best


def _complete(word: np.ndarray, last: int, sign: int, branches):
    """Root and polish: the last matrices (S, 2, 2) for an (S, 2, 2) stack
    of prefix words, and the mask of rows whose root class is empty."""
    target = sign * (adjugate(word) if last > 0 else word)
    root, has_root = branch_roots(target, abs(last), branches)
    return _polish_last(word, root, last, sign), ~has_root


def complete_point(prefix, exponents, sign: int, branch: int):
    """Extend n-1 prefix matrices to a word solution, or None if the
    required root class is empty (the even-power parabolic obstruction).

    The last matrix solves mn^pn = sign * W^-1 for the prefix word W:
    a |pn|-th root of sign * W^-1 when pn > 0, of sign * W when pn < 0.
    branch picks among root branches modulo their count.
    """
    exps = validate_exponents(exponents)
    prefix = np.asarray(prefix, dtype=complex).reshape(-1, 2, 2)
    if len(prefix) != len(exps) - 1:
        raise ValueError(f"need {len(exps) - 1} prefix matrices, got {len(prefix)}")
    last, obstructed = _complete(eval_word(prefix, exps[:-1])[None], exps[-1], sign, [branch])
    return None if obstructed[0] else np.concatenate([prefix, last])


@dataclass(frozen=True)
class SamplePlan:
    """Where to draw samples so they land on a top-dimensional stratum."""

    exponents: tuple[int, ...]
    sign: int
    kind: str  # "generic" | "stratum" | "leaf"
    fiber_sign: Optional[int] = None      # stratum: last matrix solves x^k = fiber_sign*I
    prefix: Optional["SamplePlan"] = None


def build_plan(exponents, sign: int) -> SamplePlan:
    """Follow the dimension recursion's argmax to a sampling strategy,
    down one dimension_table from the top step.

    Ties prefer the generic stratum, then the sign-flip stratum; for
    words of length >= 3 the generic stratum always attains the
    maximum, so strata only appear for two-letter words.
    """
    exps = validate_exponents(exponents)
    table = dimension_table(exps)

    def plan(m: int, sign: int) -> SamplePlan:
        if m == 1:
            return SamplePlan(exps[:1], sign, "leaf")
        step = table[m - 2][sign]
        if step.generic_floor == step.dim:
            return SamplePlan(exps[:m], sign, "generic")
        # the flip branch puts the prefix on -sign and the last letter on -I
        fiber = -1 if step.flip_sign_branch == step.dim else 1
        return SamplePlan(exps[:m], sign, "stratum", fiber_sign=fiber,
                          prefix=plan(m - 1, sign * fiber))

    return plan(len(exps), sign)


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


def _orbit_draws(k: int, target_sign: int, rngs) -> np.ndarray:
    """Random points on random eigenvalue-pair orbits of {A : A^k =
    target_sign*I}, one per generator: an orbit index, then seven uniforms."""
    count = orbit_count(k, target_sign)
    if not count:
        raise OracleError(f"no orbit components for power {k}, sign {target_sign}")
    draws = [(float(orbit_class(k, target_sign, int(rng.integers(count))).angle), rng.random(7))
             for rng in rngs]
    return _orbit_point([angle for angle, _ in draws], np.stack([u for _, u in draws]))


@dataclass
class Sample:
    mats: Optional[np.ndarray]
    witness_traces: list = field(default_factory=list)


def _draw_samples(plan: SamplePlan, branches: np.ndarray, rngs):
    """The draw, root and polish stages, one sample per generator.

    Returns the (S, n, 2, 2) points, the mask of obstructed samples
    (their last matrix is NaN), and the (S, w) genericity witnesses: for a
    generic plan, the traces of each prefix letter and prefix word.
    """
    size = len(rngs)
    if plan.kind == "leaf":
        k = abs(plan.exponents[0])
        no_witness = np.empty((size, 0), dtype=complex)
        if orbit_count(k, plan.sign):
            return _orbit_draws(k, plan.sign, rngs)[:, None], np.zeros(size, dtype=bool), no_witness
        central = central_signs(k, plan.sign)
        eta = np.array([central[branch % len(central)] for branch in branches])
        return eta[:, None, None, None] * IDENTITY, np.zeros(size, dtype=bool), no_witness
    if plan.kind == "stratum":
        inner, obstructed, witnesses = _draw_samples(plan.prefix, branches, rngs)
        fiber = _orbit_draws(abs(plan.exponents[-1]), plan.fiber_sign, rngs)
        return np.concatenate([inner, fiber[:, None]], axis=1), obstructed, witnesses
    exps = plan.exponents
    n = len(exps)
    letters = _letters(exps[:-1], np.stack([rng.random(9 * (n - 1)) for rng in rngs]).reshape(size, n - 1, 9))
    word = IDENTITY
    witnesses = []
    for i, p in enumerate(exps[:-1]):
        word = mul2(word, mat_power(letters[:, i], p))
        witnesses += [letters[:, i], word]
    last, obstructed = _complete(word, exps[-1], plan.sign, branches)
    traces = np.trace(np.stack(witnesses, axis=1), axis1=-2, axis2=-1)
    return np.concatenate([letters, last[:, None]], axis=1), obstructed, traces


def sample_from_plan(plan: SamplePlan, branch: int, rng: np.random.Generator) -> Sample:
    """One sample of a plan: the stack of one that a run with this stream
    and branch (the sample index) draws."""
    mats, obstructed, witnesses = _draw_samples(plan, np.array([branch]), [rng])
    return Sample(None if obstructed[0] else mats[0], witnesses[0].tolist())


def _near_central_trace(witnesses: np.ndarray, tol: float) -> np.ndarray:
    return np.any(np.minimum(abs(witnesses - 2), abs(witnesses + 2)) < tol, axis=-1)


def _dimension_verdicts(plan: SamplePlan, system: ConstraintSystem, seed: int,
                        num_samples: int, tol: Tolerances):
    """The stages of a dimension run over samples 0..num_samples-1: each
    sample's verdict, its rejection reason or else its local dimension,
    and the rank gaps of the accepted samples."""
    mats, obstructed, witnesses = _draw_samples(
        plan, np.arange(num_samples), [sample_rng(seed, index) for index in range(num_samples)])
    verdicts = np.full(num_samples, "genericity", dtype=object)
    generic = ~_near_central_trace(witnesses, tol.genericity)
    verdicts[generic & obstructed] = "obstructed"
    checked = np.flatnonzero(generic & ~obstructed)
    verdicts[checked], gap = _checked(mats[checked], system, tol)
    return verdicts.tolist(), gap[gap >= tol.min_rank_gap]


@dataclass
class VerificationReport:
    """Outcome of a sampling run against a predicted dimension or census."""

    kind: str  # "dimension" | "central-roots"
    inputs: dict
    seed: int
    tolerances: Tolerances
    samples_requested: int
    samples_accepted: int
    rejections: dict[str, int]
    local_dim_histogram: dict[int, int]
    consensus_dim: Optional[int]
    predicted_dim: int
    agreement: float
    min_rank_gap: float
    trace_class_tallies: dict[str, int]
    central_checks: dict[str, int | str]  # local dimension, or the stage's rejection reason
    passed: bool

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
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if not 1 <= num_samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in 1..{MAX_SAMPLES}, got {num_samples}")
    system = ConstraintSystem(len(exps), exps, sign)
    verdicts, gaps = _dimension_verdicts(build_plan(exps, sign), system, seed, num_samples, tol)
    return _report("dimension", {"exponents": list(exps), "sign": sign}, seed, tol,
                   verdicts, gaps, product_power_dim(exps, sign).dim)


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
    if p > MAX_CENTRAL_POWER or not 1 <= num_samples <= MAX_SAMPLES:
        raise ValueError(f"need p <= {MAX_CENTRAL_POWER} and samples in 1..{MAX_SAMPLES}, "
                         f"got p = {p}, samples = {num_samples}")
    traces = admissible_traces(p, sign)
    # the orbit classes by increasing angle, as central_root_classes lists them
    orbit_rows = [row for row, cls in enumerate(traces) if not cls.central]
    per_class = max(1, -(-num_samples // len(orbit_rows))) if orbit_rows else 0
    # sample index class_index * per_class + rep draws class class_index
    expected = np.repeat(np.array(orbit_rows, dtype=int), per_class)
    uniforms = np.array([sample_rng(seed, index).random(7) for index in range(len(expected))])
    orbits = _orbit_point(np.repeat([float(traces[row].angle) for row in orbit_rows], per_class),
                          uniforms.reshape(-1, 7))
    central = central_signs(p, sign)
    # the central points pass the check stage ahead of the orbit samples
    points = np.concatenate([np.multiply.outer(central, IDENTITY), orbits])
    verdicts, gap = _checked(points[:, None], ConstraintSystem(1, (p,), sign), tol)
    samples = slice(len(central), None)
    accepted = gap[samples] >= tol.min_rank_gap
    report = _report("central-roots", {"power": p, "sign": sign}, seed, tol, verdicts[samples].tolist(),
                     gap[samples][accepted], central_root_spectrum(p, sign).dimension())
    report.central_checks = {"+2" if eta == 1 else "-2": v for eta, v in zip(central, verdicts)}
    matched = match_traces(np.trace(orbits[accepted], axis1=-2, axis2=-1), traces, tol.trace)
    report.trace_class_tallies = dict(Counter(traces[row].label() for row in matched[matched >= 0]))
    central_ok = all(v == 0 for v in report.central_checks.values())
    if orbit_rows:
        report.passed = bool(report.passed and central_ok and np.array_equal(matched, expected[accepted])
                             and len(report.trace_class_tallies) == len(orbit_rows))
    else:
        report.consensus_dim, report.passed = 0, central_ok
    return report
