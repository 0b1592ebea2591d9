"""Output checker with references that never call sl2rep.

Each reference is a closed form or a direct computation written here:

* verify dim: dimension 3(n-1) for n >= 3 letters; for two letters,
  3 exactly when the relator sign is -1 and both |p| are 2, else 4.
* verify omega: for {A : A^p = sign I}, central points 1 + [p even]
  and (p-1)//2 orbits at sign +1; [p odd] and p//2 at sign -1.
* census of cyclic free products: the factor spectra {0: central,
  2: orbits} multiplied as polynomials, so the top count is the product
  of the orbit counts ((p-1)(q-1)(t-1)/8 for odd triples).
* census lower bounds: the same top count for the quotient
  Z|p| * Z|q| * Z|t| (times the free factor).
* sequence: consecutive odd-prime triples from a sieve, with strictly
  increasing bounds; witness: the first triple meeting the target.
* jacobian: the returned analytic Jacobian against central
  differences of a residual map written here, within the acceptance
  tolerance 1e-5.

`check(cmd, out)` returns a list of failure messages, empty when the
output is right; `corrupt(cmd, out)` returns a copy with one checked
value changed, for the checker's self-test.
"""

from __future__ import annotations

import copy
import json
import re

FD_REL_TOL = 1e-5
FD_STEP = 1e-6


def _central_orbits(p: int, sign: int) -> tuple[int, int]:
    if sign == 1:
        return 1 + (p % 2 == 0), (p - 1) // 2
    return p % 2, p // 2


def expected_word_dim(exps: list[int], sign: int) -> int:
    if len(exps) >= 3:
        return 3 * (len(exps) - 1)
    return 3 if sign == -1 and [abs(p) for p in exps] == [2, 2] else 4


def _odd_prime_triples():
    n, chunk = 3, []
    while True:
        if all(n % d for d in range(3, int(n ** 0.5) + 1, 2)):
            chunk.append(n)
            if len(chunk) == 3:
                yield tuple(chunk)
                chunk = []
        n += 2


def _top_count(orders) -> int:
    out = 1
    for q in orders:
        out *= (abs(q) - 1) // 2
    return out


def _claims(report: dict) -> dict:
    return {item.get("name"): item.get("value") for item in report["results"] if isinstance(item, dict)}


def _expect(failures: list, label: str, got, want):
    if got != want:
        failures.append(f"{label}: got {got!r}, expected {want!r}")


def _check_verify_dim(params, claims, failures):
    want = expected_word_dim(params["exponents"], params["sign"])
    _expect(failures, "predicted_dimension", claims.get("predicted_dimension"), want)
    _expect(failures, "consensus_dimension", claims.get("consensus_dimension"), want)


def _check_verify_omega(params, claims, failures):
    central, orbits = _central_orbits(params["p"], params["sign"])
    want_dim = 2 if orbits else 0
    _expect(failures, "predicted_dimension", claims.get("predicted_dimension"), want_dim)
    _expect(failures, "consensus_dimension", claims.get("consensus_dimension"), want_dim)
    detail = claims.get("report", {})
    _expect(failures, "orbit classes sampled", len(detail.get("trace_class_tallies", {})), orbits)
    _expect(failures, "central points checked", len(detail.get("central_checks", {})), central)
    if detail.get("samples_requested", 0) < orbits:
        failures.append("fewer samples than orbit classes")


def _spectrum(orders) -> dict:
    poly = {0: 1}
    for q in orders:
        central, orbits = _central_orbits(q, 1)
        nxt: dict[int, int] = {}
        for d, c in poly.items():
            nxt[d] = nxt.get(d, 0) + c * central
            nxt[d + 2] = nxt.get(d + 2, 0) + c * orbits
        poly = nxt
    return {str(d): c for d, c in sorted(poly.items()) if c}


def _check_census(params, claims, failures):
    if "cyclic" in params:
        spectrum = _spectrum(params["cyclic"])
        _expect(failures, "dimension", claims.get("dimension"), 2 * len(params["cyclic"]))
        _expect(failures, "spectrum", claims.get("spectrum"), spectrum)
        _expect(failures, "total_components", claims.get("total_components"), sum(spectrum.values()))
        return
    rank, exps = params["free_rank"], params["exponents"]
    dim = 3 * rank + 6
    _expect(failures, "dimension", claims.get("dimension"), dim)
    _expect(failures, f"components_at_{dim}_at_least",
            claims.get(f"components_at_{dim}_at_least"), _top_count(exps))
    factors = ([f"F{rank}"] if rank else []) + [f"Z{abs(p)}" for p in exps]
    _expect(failures, "quotient", claims.get("quotient"), " * ".join(factors))


_TRIPLE = re.compile(r"(?:F(\d+) \* )?<a,b,c; a\^(\d+) b\^(\d+) c\^(\d+)>")


def _parse_member(text: str):
    m = _TRIPLE.fullmatch(text or "")
    if m is None:
        return None
    return int(m.group(1) or 0), tuple(int(g) for g in m.groups()[1:])


def _check_sequence(params, claims, failures):
    dim, groups = params["dim"], claims.get("groups", [])
    _expect(failures, "sequence length", len(groups), params["count"])
    previous = 0
    for entry, triple in zip(groups, _odd_prime_triples()):
        _expect(failures, "group", _parse_member(entry.get("group")), (dim // 3 - 2, triple))
        _expect(failures, "dimension", entry.get("dimension"), dim)
        _expect(failures, "lower_bound", entry.get("lower_bound"), _top_count(triple))
        if entry.get("lower_bound", 0) <= previous:
            failures.append("sequence bounds do not strictly increase")
        previous = entry.get("lower_bound", 0)


def _check_witness(params, claims, failures):
    rank = params["rank"]
    triple = next(t for t in _odd_prime_triples() if _top_count(t) >= params["mirc"])
    dim = 3 * rank
    _expect(failures, "group", _parse_member(claims.get("group")), (rank - 2, triple))
    _expect(failures, "dimension", claims.get("dimension"), dim)
    _expect(failures, f"components_at_{dim}_at_least",
            claims.get(f"components_at_{dim}_at_least"), _top_count(triple))


_CLI_CHECKS = {
    "verify-dim": _check_verify_dim,
    "verify-omega": _check_verify_omega,
    "census": _check_census,
    "sequence": _check_sequence,
    "witness": _check_witness,
}


def _word_residuals(np, mats, exps, sign):
    """det - 1 per matrix, then the entries of the word minus sign*I, for
    a stack of points of shape (..., n, 2, 2); negative powers go
    through the adjugate, as in the oracle."""
    a, b, c, d = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]
    word = np.broadcast_to(np.eye(2, dtype=complex), mats.shape[:-3] + (2, 2))
    for i, p in enumerate(exps):
        base = mats[..., i, :, :]
        if p < 0:
            base = np.stack([np.stack([d[..., i], -b[..., i]], -1),
                             np.stack([-c[..., i], a[..., i]], -1)], -2)
        word = word @ np.linalg.matrix_power(base, abs(p))
    entries = (word - sign * np.eye(2)).reshape(word.shape[:-2] + (4,))
    return np.concatenate([a * d - b * c - 1.0, entries], axis=-1)


def _check_jacobian(call, out, failures):
    import numpy as np

    if not out.get("rel", float("inf")) <= FD_REL_TOL:
        failures.append(f"analytic vs difference Jacobian {out.get('rel')} above {FD_REL_TOL}")
    point = out.get("point") or {}
    exps, sign = call["exponents"], call["sign"]
    n = len(exps)
    try:
        mats = np.array([complex(*z) for z in point["mats"]]).reshape(n, 2, 2)
        analytic = np.array([complex(*z) for z in point["jacobian"]]).reshape(point["shape"])
    except (KeyError, TypeError, ValueError):
        failures.append("missing or malformed Jacobian point")
        return
    # one central difference per matrix entry, all columns at once
    steps = FD_STEP * np.eye(4 * n).reshape(4 * n, n, 2, 2)
    reference = ((_word_residuals(np, mats + steps, exps, sign)
                  - _word_residuals(np, mats - steps, exps, sign)) / (2 * FD_STEP)).T
    if analytic.shape != reference.shape:
        failures.append(f"Jacobian shape {analytic.shape}, expected {reference.shape}")
        return
    rel = float(np.linalg.norm(analytic - reference) / max(np.linalg.norm(analytic), 1.0))
    if not rel <= FD_REL_TOL:
        failures.append(f"Jacobian differs from the reference differences by {rel:.3g}")


def parse_report(out: dict):
    """The command's JSON report, or None when the output is not JSON."""
    try:
        return json.loads(out.get("stdout", ""))
    except ValueError:
        return None


def check(cmd: dict, out: dict) -> list[str]:
    failures: list[str] = []
    if out.get("code") != 0:
        failures.append(f"exit code {out.get('code')}")
    if cmd["kind"] == "jacobian":
        _check_jacobian(cmd["call"], out, failures)
        return failures
    report = out.get("report")
    if not isinstance(report, dict) or not isinstance(report.get("results"), list):
        return failures + ["no JSON report"]
    if report.get("pass") is not True:
        failures.append("report pass is not true")
    _CLI_CHECKS[cmd["kind"]](cmd["params"], _claims(report), failures)
    return failures


def _bump_first_int(value):
    """Add 1 to the first integer (not bool) found depth-first; True if one was."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        if isinstance(item, int) and not isinstance(item, bool):
            value[key] = item + 1
            return True
        if isinstance(item, (dict, list)) and _bump_first_int(item):
            return True
    return False


def corrupt(cmd: dict, out: dict) -> dict:
    bad = copy.deepcopy(out)
    if cmd["kind"] == "jacobian":
        bad["point"]["jacobian"] = [[x * 1.001, y * 1.001] for x, y in bad["point"]["jacobian"]]
    else:
        _bump_first_int(bad["report"]["results"])
    return bad
