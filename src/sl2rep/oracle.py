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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dimension import dimension_table, not_two, product_power_dim
from .matrices import (
    IDENTITY,
    adjugate,
    determinant,
    eval_word,
    mat2,
    mat_power,
    matrix_root,
)
from .presentations import validate_exponents
from .traces import (
    TraceClass,
    admissible_traces,
    central_root_classes,
    central_root_spectrum,
    central_signs,
    classify_trace,
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

# the generic draw: |log s| and |p log|lam|| stay below _LOG_SPREAD, and
# arg lam keeps _ARG_MARGIN away from 0 and pi
_LOG_SPREAD = 0.2
_ARG_MARGIN = 0.05
# cost bounds (a few seconds each on a 2-core VM); the CLI exits 2 above them
MAX_SAMPLES = 1000
MAX_CENTRAL_POWER = 10**4


def _power_with_derivs(m: np.ndarray, p: int):
    """m^p (adjugate route for p < 0) and its derivatives in the four
    entries of m, as a (4, 2, 2) array.

    Runs the binary exponentiation of mat_power, so the value is
    bitwise equal to mat_power(m, p), and carries the derivatives of
    the running result and of the repeated square through it by the
    product rule: O(log |p|) matrix products.
    """
    k = abs(p)
    if p >= 0:
        base = np.asarray(m, dtype=complex)
        dbase = _ELEM
    else:
        base = adjugate(m)
        dbase = _ADJ_ELEM
    value = IDENTITY.copy()
    derivs = np.zeros((4, 2, 2), dtype=complex)
    while k:
        if k & 1:
            derivs = derivs @ base + value @ dbase
            value = value @ base
        k >>= 1
        if k:
            dbase = dbase @ base + base @ dbase
            base = base @ base
    return value, derivs


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
        """Complex Jacobian of residuals, by product-rule accumulation."""
        mats = np.asarray(mats, dtype=complex)
        n = self.num_matrices
        rows = n + (4 if self.exponents is not None else 0)
        jac = np.zeros((rows, 4 * n), dtype=complex)
        for i in range(n):
            a, b, c, d = mats[i].ravel()
            jac[i, 4 * i: 4 * i + 4] = (d, -c, -b, a)
        if self.exponents is not None:
            value = IDENTITY.copy()
            word_derivs = np.zeros((4 * n, 2, 2), dtype=complex)
            for i, p in enumerate(self.exponents):
                factor, factor_derivs = _power_with_derivs(mats[i], p)
                word_derivs = word_derivs @ factor
                word_derivs[4 * i: 4 * i + 4] += value @ factor_derivs
                value = value @ factor
            jac[n:] = word_derivs.reshape(4 * n, 4).T
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
    out = jac.copy()
    row_scale = np.max(np.abs(out), axis=1)
    row_scale[row_scale == 0] = 1.0
    out /= row_scale[:, None]
    col_scale = np.max(np.abs(out), axis=0)
    col_scale[col_scale == 0] = 1.0
    out /= col_scale[None, :]
    return out


def jacobian_rank(jac: np.ndarray, rank_rel: float, min_gap: float) -> tuple[int, float]:
    """(rank, gap ratio); raises RankGapError when the cut is ambiguous."""
    if not np.all(np.isfinite(jac)):
        raise RankGapError("jacobian has non-finite entries")
    singular = np.linalg.svd(_equilibrated(jac), compute_uv=False)
    if singular[0] == 0:
        return 0, math.inf
    rank = int(np.sum(singular > rank_rel * singular[0]))
    if rank >= len(singular) or singular[rank] == 0:
        gap = math.inf
    else:
        gap = float(singular[rank - 1] / singular[rank])
    if gap < min_gap:
        raise RankGapError(f"singular value gap {gap:.3g} below {min_gap:.3g}")
    return rank, gap


@dataclass(frozen=True)
class LocalDimension:
    dim: int
    rank: int
    gap: float


def local_dimension(mats, system: ConstraintSystem, tol: Tolerances = Tolerances()) -> LocalDimension:
    """Local dimension 4n - rank(Jacobian) at a near-solution sample."""
    res = system.residual_norm(mats)
    if not math.isfinite(res) or res > tol.residual:
        raise ResidualError(f"residual {res:.3g} above {tol.residual:.3g}")
    rank, gap = jacobian_rank(system.jacobian(mats), tol.rank_rel, tol.min_rank_gap)
    return LocalDimension(system.ambient_dim - rank, rank, gap)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for one (seed, sample index) pair."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _polish_last(prefix_word: np.ndarray, root: np.ndarray, power: int, sign: int,
                 steps: int = 4) -> np.ndarray:
    """Gauss-Newton refinement of the solved last matrix.

    Root extraction through an eigenbasis loses accuracy when the target
    matrix has large entries; a few corrector steps on the system
    (det m - 1, W m^power - sign I) pull the residual back to rounding
    level without leaving the chosen branch.
    """
    m = np.asarray(root, dtype=complex)
    best, best_res = m, math.inf
    for _ in range(steps + 1):
        value, derivs = _power_with_derivs(m, power)
        fvec = np.concatenate((
            [determinant(m) - 1.0],
            (prefix_word @ value - sign * IDENTITY).ravel(),
        ))
        res = float(np.max(np.abs(fvec)))
        if not math.isfinite(res):
            break
        if res < best_res:
            best, best_res = m, res
        if res < 1e-13:
            break
        a, b, c, d = m.ravel()
        jac = np.zeros((5, 4), dtype=complex)
        jac[0] = (d, -c, -b, a)
        jac[1:] = (prefix_word @ derivs).reshape(4, 4).T
        delta = np.linalg.lstsq(jac, -fvec, rcond=None)[0]
        m = m + delta.reshape(2, 2)
    return best


def _complete(prefix: list, word: np.ndarray, last: int, sign: int, branch: int):
    """complete_point for a prefix whose word is already known."""
    target = sign * (adjugate(word) if last > 0 else word)
    root = matrix_root(target, abs(last), branch)
    if root is None:
        return None
    return np.stack(prefix + [_polish_last(word, root, last, sign)])


def complete_point(prefix, exponents, sign: int, branch: int):
    """Extend n-1 prefix matrices to a word solution, or None if the
    required root class is empty (the even-power parabolic obstruction).

    The last matrix solves mn^pn = sign * W^-1 for the prefix word W:
    a |pn|-th root of sign * W^-1 when pn > 0, of sign * W when pn < 0.
    branch picks among root branches modulo their count.
    """
    exps = validate_exponents(exponents)
    prefix = [np.asarray(m, dtype=complex) for m in prefix]
    if len(prefix) != len(exps) - 1:
        raise ValueError(f"need {len(exps) - 1} prefix matrices, got {len(prefix)}")
    return _complete(prefix, eval_word(prefix, exps[:-1]), exps[-1], sign, branch)


@dataclass(frozen=True)
class SamplePlan:
    """Where to draw samples so they land on a top-dimensional stratum."""

    exponents: tuple[int, ...]
    sign: int
    kind: str  # "generic" | "stratum" | "leaf"
    fiber_sign: Optional[int] = None      # stratum: last matrix solves x^k = fiber_sign*I
    prefix: Optional["SamplePlan"] = None


def build_plan(exponents, sign: int) -> SamplePlan:
    """Follow the dimension recursion's argmax to a sampling strategy.

    Ties prefer the generic stratum, then the sign-flip stratum; for
    words of length >= 3 the generic stratum always attains the
    maximum, so strata only appear for two-letter words.
    """
    exps = validate_exponents(exponents)
    n = len(exps)
    if n == 1:
        return SamplePlan(exps, sign, "leaf")
    table = dimension_table(exps)
    k = abs(exps[-1])
    same = table[n - 2][sign] + 2 * not_two(k)
    flip = table[n - 2][-sign] + 2
    floor = 3 * (n - 1)
    top = max(same, flip, floor)
    if floor == top:
        return SamplePlan(exps, sign, "generic")
    if flip == top:
        return SamplePlan(exps, sign, "stratum", fiber_sign=-1,
                          prefix=build_plan(exps[:-1], -sign))
    return SamplePlan(exps, sign, "stratum", fiber_sign=1,
                      prefix=build_plan(exps[:-1], sign))


def _conjugated_diagonal(u: list, lam: complex) -> np.ndarray:
    """C diag(lam, 1/lam) C^-1 in scalar arithmetic, C = U diag(s, 1/s) V
    from seven uniforms u (Shoemake's unit quaternions for U and V)."""
    (a, b), (g, h) = ((cmath.rect(math.sqrt(1 - x), 2 * math.pi * y),
                       cmath.rect(math.sqrt(x), 2 * math.pi * z)) for x, y, z in (u[0:3], u[3:6]))
    s = math.exp(_LOG_SPREAD * (2 * u[6] - 1))
    # rows of U diag(s, 1/s), U = [[a, b], [-conj b, conj a]], times V likewise from g, h
    rows = ((a * s, b / s), (-b.conjugate() * s, a.conjugate() / s))
    (c00, c01), (c10, c11) = ((x * g - y * h.conjugate(), x * h + y * g.conjugate()) for x, y in rows)
    mu = 1 / lam
    return mat2(lam * c00 * c11 - mu * c01 * c10, (mu - lam) * c00 * c01,
                (lam - mu) * c10 * c11, mu * c00 * c11 - lam * c01 * c10)


def _letter(p: int, rng: np.random.Generator) -> np.ndarray:
    """A generic prefix letter for the exponent p from nine uniforms (see
    the module docstring)."""
    u = rng.random(9).tolist()
    # 1 / abs(p) divides ints, so exponents past the float range do not overflow
    lam = cmath.exp(complex(_LOG_SPREAD * (2 * u[7] - 1) * (1 / abs(p)),
                            _ARG_MARGIN + (math.pi - 2 * _ARG_MARGIN) * u[8]))
    return _conjugated_diagonal(u, lam)


def _orbit_point(cls: TraceClass, rng: np.random.Generator) -> np.ndarray:
    """Random conjugate of diag(zeta, 1/zeta), zeta = exp(i pi angle), by
    the same near-unitary C as a prefix letter."""
    return _conjugated_diagonal(rng.random(7).tolist(), cmath.exp(1j * math.pi * float(cls.angle)))


def _sample_orbit_point(k: int, target_sign: int, rng: np.random.Generator) -> np.ndarray:
    """Random point on a random eigenvalue-pair orbit of {A : A^k = target_sign*I}."""
    count = orbit_count(k, target_sign)
    if not count:
        raise OracleError(f"no orbit components for power {k}, sign {target_sign}")
    return _orbit_point(orbit_class(k, target_sign, int(rng.integers(count))), rng)


@dataclass
class Sample:
    mats: Optional[np.ndarray]
    witness_traces: list = field(default_factory=list)


def sample_from_plan(plan: SamplePlan, branch: int, rng: np.random.Generator) -> Sample:
    if plan.kind == "leaf":
        k = abs(plan.exponents[0])
        if orbit_count(k, plan.sign):
            return Sample(np.stack([_sample_orbit_point(k, plan.sign, rng)]))
        central = central_signs(k, plan.sign)
        eta = central[branch % len(central)]
        return Sample(np.stack([eta * IDENTITY]))
    if plan.kind == "stratum":
        inner = sample_from_plan(plan.prefix, branch, rng)
        if inner.mats is None:
            return inner
        k = abs(plan.exponents[-1])
        fiber = _sample_orbit_point(k, plan.fiber_sign, rng)
        return Sample(np.concatenate([inner.mats, fiber[None, :, :]]),
                      inner.witness_traces)
    # generic: the traces of each letter and prefix word are genericity witnesses
    exps = plan.exponents
    prefix, witnesses = [], []
    word = IDENTITY
    for p in exps[:-1]:
        m = _letter(p, rng)
        word = word @ mat_power(m, p)
        prefix.append(m)
        witnesses += [complex(np.trace(m)), complex(np.trace(word))]
    mats = _complete(prefix, word, exps[-1], plan.sign, branch)
    return Sample(mats, witnesses)


def _near_central_trace(witnesses, tol: float) -> bool:
    return any(min(abs(w - 2), abs(w + 2)) < tol for w in witnesses)


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
    central_checks: dict[str, int]
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


def _consensus(histogram: dict[int, int]) -> Optional[int]:
    if not histogram:
        return None
    best_count = max(histogram.values())
    return min(d for d, c in histogram.items() if c == best_count)


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
    at MAX_SAMPLES as cost guards.
    """
    exps = validate_exponents(exponents)
    if not 2 <= len(exps) <= 8:
        raise ValueError(f"verification covers word lengths 2..8, got {len(exps)}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if not 1 <= num_samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in 1..{MAX_SAMPLES}, got {num_samples}")
    predicted = product_power_dim(exps, sign).dim
    plan = build_plan(exps, sign)
    system = ConstraintSystem(len(exps), exps, sign)
    histogram: dict[int, int] = {}
    rejections = {"obstructed": 0, "genericity": 0, "residual": 0, "rank_gap": 0}
    min_gap = math.inf
    for index in range(num_samples):
        sample = sample_from_plan(plan, index, sample_rng(seed, index))
        if _near_central_trace(sample.witness_traces, tol.genericity):
            rejections["genericity"] += 1
            continue
        if sample.mats is None:
            rejections["obstructed"] += 1
            continue
        try:
            local = local_dimension(sample.mats, system, tol)
        except ResidualError:
            rejections["residual"] += 1
            continue
        except RankGapError:
            rejections["rank_gap"] += 1
            continue
        histogram[local.dim] = histogram.get(local.dim, 0) + 1
        min_gap = min(min_gap, local.gap)
    accepted = sum(histogram.values())
    consensus = _consensus(histogram)
    passed = bool(accepted > 0 and len(histogram) == 1 and consensus == predicted)
    return VerificationReport(
        kind="dimension",
        inputs={"exponents": list(exps), "sign": sign},
        seed=seed,
        tolerances=tol,
        samples_requested=num_samples,
        samples_accepted=accepted,
        rejections=rejections,
        local_dim_histogram=histogram,
        consensus_dim=consensus,
        predicted_dim=predicted,
        agreement=(histogram.get(consensus, 0) / accepted) if accepted else 0.0,
        min_rank_gap=min_gap,
        trace_class_tallies={},
        central_checks={},
        passed=passed,
    )


def verify_central_roots(
    p: int,
    sign: int = 1,
    num_samples: int = 24,
    seed: int = 0,
    tol: Tolerances = Tolerances(),
) -> VerificationReport:
    """Check the component census of {A : A^p = sign*I} numerically.

    Central members must be isolated (local dimension 0 from a
    full-rank Jacobian).  Each eigenvalue-pair orbit is sampled at
    random conjugates; every accepted sample must have local dimension
    2 and a trace matching its admissible class.  Passes when all of
    that holds and the sampled class set matches the expected census.
    p is capped at MAX_CENTRAL_POWER and num_samples at MAX_SAMPLES.
    """
    if p > MAX_CENTRAL_POWER or not 1 <= num_samples <= MAX_SAMPLES:
        raise ValueError(f"need p <= {MAX_CENTRAL_POWER} and samples in 1..{MAX_SAMPLES}, "
                         f"got p = {p}, samples = {num_samples}")
    classes = central_root_classes(p, sign)
    spectrum = central_root_spectrum(p, sign)
    predicted = spectrum.dimension()
    system = ConstraintSystem(1, (p,), sign)
    traces = admissible_traces(p, sign)
    ok = True
    central_checks: dict[str, int] = {}
    for eta in classes.central:
        label = "+2" if eta == 1 else "-2"
        local = local_dimension(np.stack([eta * IDENTITY]), system, tol)
        central_checks[label] = local.dim
        if local.dim != 0:
            ok = False
    histogram: dict[int, int] = {}
    tallies: dict[str, int] = {}
    rejections = {"obstructed": 0, "genericity": 0, "residual": 0, "rank_gap": 0}
    min_gap = math.inf
    per_class = 0
    if classes.orbits:
        per_class = max(1, -(-num_samples // len(classes.orbits)))
    for class_index, cls in enumerate(classes.orbits):
        for rep in range(per_class):
            index = class_index * per_class + rep
            mat = _orbit_point(cls, sample_rng(seed, index))
            try:
                local = local_dimension(np.stack([mat]), system, tol)
            except ResidualError:
                rejections["residual"] += 1
                continue
            except RankGapError:
                rejections["rank_gap"] += 1
                continue
            histogram[local.dim] = histogram.get(local.dim, 0) + 1
            min_gap = min(min_gap, local.gap)
            matched = classify_trace(np.trace(mat), traces, tol.trace)
            if matched != cls or local.dim != 2:
                ok = False
            if matched is not None:
                tallies[matched.label()] = tallies.get(matched.label(), 0) + 1
    accepted = sum(histogram.values())
    sampled_classes = len(tallies)
    if classes.orbits:
        consensus = _consensus(histogram)
        if consensus != 2 or sampled_classes != spectrum.count(2):
            ok = False
    else:
        consensus = 0 if classes.central else None
    passed = bool(ok and consensus == predicted)
    return VerificationReport(
        kind="central-roots",
        inputs={"power": p, "sign": sign},
        seed=seed,
        tolerances=tol,
        samples_requested=per_class * len(classes.orbits),
        samples_accepted=accepted,
        rejections=rejections,
        local_dim_histogram=histogram,
        consensus_dim=consensus,
        predicted_dim=predicted,
        agreement=(histogram.get(consensus, 0) / accepted) if accepted else 0.0,
        min_rank_gap=min_gap,
        trace_class_tallies=tallies,
        central_checks=central_checks,
        passed=passed,
    )
