"""One benchmark pass in a fresh interpreter.

Run from the checkout root with `src` on PYTHONPATH.  The pass imports
sl2rep, makes one warm-up call, stamps the moment it is ready, then
reads a JSON job from stdin and runs its commands one after another
(a closed loop with a single caller).  It writes timings and raw
outputs as one JSON object to stdout.

With tracing on, the public functions named in TARGETS are wrapped
where callers look them up: every module of the package that bound
the function by `from .x import y`, and the class for methods.  Spans
(name, start, end, parent span, command id) stay in memory and are
written to a file when the pass ends.

A shared machine may change speed by a factor of two from one second
to the next (other tenants on the same cores).  A short fixed
probe of small complex matrix products, the kind of work sl2rep does,
runs before the first command and after every command.  Each command
gets the factor REF_PROBE_S / (mean of the probes around it), which
turns its time into seconds at a fixed reference speed; spans and the
set-up time are scaled the same way.  Raw times are kept alongside.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import sys
import time
import traceback

# (module, qualified name) of every traced function; the per-layer
# metrics are named "<module>.<qualname>.calls" and ".self_ms"
TARGETS = (
    ("cli", "main"),
    ("presentations", "parse_spec"),
    ("dimension", "product_power_dim"),
    ("dimension", "dimension_table"),
    ("dimension", "representation_dim"),
    ("traces", "central_root_classes"),
    ("traces", "classify_trace"),
    ("census", "product_spectrum"),
    ("census", "lower_bound_census"),
    ("census", "prime_triple"),
    ("families", "witness_group"),
    ("matrices", "random_sl2"),
    ("matrices", "mat_power"),
    ("matrices", "matrix_roots"),
    ("matrices", "eval_word"),
    ("oracle", "build_plan"),
    ("oracle", "sample_from_plan"),
    ("oracle", "ConstraintSystem.residuals"),
    ("oracle", "ConstraintSystem.jacobian"),
    ("oracle", "jacobian_rank"),
    ("oracle", "local_dimension"),
    ("oracle", "jacobian_fd"),
    ("oracle", "verify_dimension"),
    ("oracle", "verify_central_roots"),
)

# the probe's median time on the reference box (2-core x86, Python
# 3.11, numpy 2.4); only sets the scale of the reported times
PROBE_STEPS = 1500
REF_PROBE_S = 0.0075

LAYER_NAMES = tuple(f"{module}.{qualname}" for module, qualname in TARGETS)


class Tracer:
    """In-memory spans around the TARGETS functions."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.command = -1

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command)

        return traced

    def install(self):
        package = {name[len("sl2rep."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("sl2rep.")}
        package[""] = sys.modules["sl2rep"]
        for module, qualname in TARGETS:
            owner = package[module]
            *classes, attr = qualname.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            traced = self._wrap(f"{module}.{qualname}", original)
            setattr(owner, attr, traced)
            if classes:
                continue
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def layers(self, factors: list[float]) -> dict:
        """calls and self time (span minus its child spans) per
        function, each span scaled by its command's speed factor."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {name: {"calls": 0, "self_ms": 0.0} for name in LAYER_NAMES}
        for index, (name, start, end, _, command) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_ms"] += (end - start - child_s[index]) * 1e3 * factors[command]
        return out

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\tcommand\n")
            for index, (name, start, end, parent, command) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start * 1e6:.1f}\t{end * 1e6:.1f}\t{parent}\t{command}\n")


def _run_cli(cli, argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"code": code, "stdout": buf.getvalue()}


def _run_jacobian(np, matrices, oracle, call: dict) -> dict:
    """Analytic Jacobian against central differences at seeded points,
    as acceptance criterion 10 does; keeps the first point and its
    Jacobian for the checker's own finite differences."""
    exps = tuple(call["exponents"])
    system = oracle.ConstraintSystem(len(exps), exps, call["sign"])
    rng = np.random.default_rng(call["seed"])
    worst = 0.0
    first = None
    for _ in range(call["points"]):
        mats = np.stack([matrices.random_sl2(rng) for _ in exps])
        analytic = system.jacobian(mats)
        numeric = oracle.jacobian_fd(system, mats)
        rel = float(np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1.0))
        worst = max(worst, rel)
        if first is None:
            first = (mats, analytic)
    return {"code": 0, "rel": worst, "points": call["points"], "point": first}


def _probe(np) -> float:
    step = np.array([[1.0, 0.1], [0.2, 1.0]], dtype=complex)
    start = time.perf_counter()
    m = np.eye(2, dtype=complex)
    for _ in range(PROBE_STEPS):
        m = m @ step
        m /= abs(m[0, 0])
    return time.perf_counter() - start


def _complex_lists(array) -> list:
    return [[z.real, z.imag] for z in array.ravel().tolist()]


def main():
    import numpy as np

    import sl2rep
    from sl2rep import cli, matrices, oracle

    _run_cli(cli, ["parse", "Z2", "--output", "json"])
    ready = time.time()
    setup_factor = REF_PROBE_S / _probe(np)

    job = json.load(sys.stdin)
    source = os.path.realpath(sl2rep.__file__)
    if not source.startswith(os.path.realpath("src") + os.sep):
        raise SystemExit(f"sl2rep imported from {source}, not from ./src")
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()

    results = []
    probes = [_probe(np)]
    for index, cmd in enumerate(job["commands"]):
        if tracer:
            tracer.command = index
        start = time.perf_counter()
        try:
            if cmd["kind"] == "jacobian":
                out = _run_jacobian(np, matrices, oracle, cmd["call"])
            else:
                # looked up per call so a traced cli.main is the one used
                out = _run_cli(sys.modules["sl2rep.cli"], cmd["argv"])
        except Exception:
            # an uncaught error fails this command, not the whole pass
            out = {"code": None, "error": traceback.format_exc()}
        out["ms"] = (time.perf_counter() - start) * 1e3
        probes.append(_probe(np))
        out["factor"] = 2 * REF_PROBE_S / (probes[-2] + probes[-1])
        results.append(out)

    for out in results:
        if out.get("point") is not None:
            mats, analytic = out["point"]
            out["point"] = {"mats": _complex_lists(mats), "jacobian": _complex_lists(analytic),
                            "shape": list(analytic.shape)}
    report = {
        "ready": ready,
        "setup_factor": setup_factor,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
        "results": results,
    }
    if tracer:
        report["layers"] = tracer.layers([out["factor"] for out in results])
        tracer.write(job["spans_path"])
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
