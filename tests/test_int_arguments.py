"""One integer rule for every public argument: each public function,
method and input class whose parameter is annotated int, found here by
inspect, rejects a bool, a float, a string, None, NaN and an int outside
its range for that parameter with a ValueError naming it
(presentations.check_int, or check_sign for a sign).

The exact half needs no numpy, and also runs in a process where
importing numpy fails.  The numeric half's runs use fixed seeds.
"""

import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import types

from sl2rep.census import MAX_SEQUENCE_COUNT, ComponentSpectrum
from sl2rep.families import MAX_FAMILY_INDEX, MAX_WITNESS_TARGET
from sl2rep.presentations import MAX_CENTRAL_POWER, MAX_SAMPLES

EXACT_MODULES = ("presentations", "dimension", "census", "families", "records", "cli")
NUMERIC_MODULES = ("matrices", "traces", "oracle")

# records that only the package builds, never an argument a caller passes
OUTPUT_RECORDS = {"DimResult", "RecursionStep", "QuotientLowerBound", "ParafreeProfile", "SamplePlan",
                  "VerificationReport"}

BAD_VALUES = (True, False, 2.0, 2.5, "2", None, math.nan)


def int_parameters(modules) -> dict[str, list[str]]:
    """Qualified name -> its int-annotated parameters, for every public
    function, method and class (by its own __init__) of the modules."""
    found = {}
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__ \
                    or name in OUTPUT_RECORDS:
                continue
            targets = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                targets += [(name, vars(obj).get("__init__"))]
                targets += [(f"{name}.{key}", item) for key, item in vars(obj).items() if not key.startswith("_")]
            for qualified, function in targets:
                if inspect.isfunction(function):
                    params = [p.name for p in inspect.signature(function).parameters.values()
                              if p.annotation in (int, "int")]
                    if params:
                        found[qualified] = params
    return found


def package_modules(names):
    return [importlib.import_module(f"sl2rep.{name}") for name in names]


def exact_cases() -> dict:
    """Qualified name -> (callable, valid keyword arguments, an out-of-range
    int per parameter that has a range)."""
    from sl2rep import census, dimension, families, presentations

    return {
        "FreeGroup": (presentations.FreeGroup, {"rank": 2}, {"rank": -1}),
        "CyclicFinite": (presentations.CyclicFinite, {"order": 3}, {"order": 1}),
        "check_sign": (dimension.check_sign, {"sign": -1, "p": 3}, {"sign": 0, "p": 1}),
        "orbit_count": (dimension.orbit_count, {"p": 5, "sign": 1}, {"p": 1, "sign": 2}),
        "central_signs": (dimension.central_signs, {"p": 5, "sign": 1}, {"p": 0, "sign": 2}),
        "base_dim": (dimension.base_dim, {"p": -5, "sign": 1}, {"p": 1, "sign": -2}),
        "product_power_dim": (dimension.product_power_dim, {"exponents": (3, 5, 7), "sign": 1}, {"sign": 0}),
        "freeness_test": (dimension.freeness_test, {"num_generators": 2, "dim": 6},
                          {"num_generators": -1, "dim": -1}),
        "ComponentSpectrum.count": (ComponentSpectrum({6: 2}).count, {"dim": 6}, {"dim": -1}),
        "central_root_spectrum": (census.central_root_spectrum, {"p": 5, "sign": 1}, {"p": 1, "sign": 3}),
        "prime_triple": (census.prime_triple, {"index": 2}, {"index": -1}),
        "triple_group": (census.triple_group, {"rank": 3, "triple": (3, 5, 7)}, {"rank": 1}),
        "distinguishing_sequence": (census.distinguishing_sequence, {"c": 9, "count": 3},
                                    {"c": 3, "count": MAX_SEQUENCE_COUNT + 1}),
        "family_member": (families.family_member, {"rank": 2, "index": 1},
                          {"rank": 1, "index": MAX_FAMILY_INDEX + 1}),
        "witness_group": (families.witness_group, {"rank": 2, "min_components": 7},
                          {"rank": 1, "min_components": MAX_WITNESS_TARGET + 1}),
    }


def numeric_cases() -> dict:
    import numpy as np

    from sl2rep import matrices, oracle, traces

    eye = np.eye(2, dtype=complex)
    return {
        "mat_power": (matrices.mat_power, {"m": eye, "k": 3}, {}),
        "branch_roots": (matrices.branch_roots, {"m": eye[None], "k": 3, "branches": [0]}, {"k": 0}),
        "matrix_roots": (matrices.matrix_roots, {"m": eye, "k": 3}, {"k": 0}),
        "central_root_classes": (traces.central_root_classes, {"p": 5, "sign": 1}, {"p": 1, "sign": 0}),
        "TraceTable": (traces.TraceTable, {"numerators": [2, 4], "power": 5}, {"power": 0}),
        "admissible_traces": (traces.admissible_traces, {"p": 5, "sign": -1}, {"p": 1, "sign": 0}),
        "ConstraintSystem": (oracle.ConstraintSystem, {"num_matrices": 2, "exponents": (3, 5), "sign": 1},
                             {"num_matrices": 1, "sign": 0}),
        "uniforms": (oracle.uniforms, {"seed": 1, "rows": [0, 1], "width": 3}, {"seed": -1, "width": -1}),
        "complete_point": (oracle.complete_point, {"prefix": [eye], "exponents": (3, 5), "sign": 1, "branch": 1},
                           {"sign": 0, "branch": -1}),
        "build_plan": (oracle.build_plan, {"exponents": (3, 5), "sign": 1}, {"sign": 2}),
        "sample_from_plan": (oracle.sample_from_plan, {"plan": oracle.build_plan((3, 5, 7), -1), "seed": 1,
                                                       "index": 2}, {"seed": -1, "index": MAX_SAMPLES}),
        "verify_dimension": (oracle.verify_dimension, {"exponents": (3, 5), "sign": 1, "num_samples": 2, "seed": 1},
                             {"sign": 0, "num_samples": MAX_SAMPLES + 1, "seed": -1}),
        "verify_central_roots": (oracle.verify_central_roots, {"p": 5, "sign": 1, "num_samples": 2, "seed": 1},
                                 {"p": MAX_CENTRAL_POWER + 1, "sign": 0, "num_samples": 0, "seed": -1}),
    }


def sweep(modules, cases) -> list[str]:
    """Every way the modules' int parameters break the rule, as messages:
    empty when the cases cover exactly the parameters found and each bad
    value of each parameter raises a ValueError that names it."""
    found = int_parameters(modules)
    if set(found) != set(cases):
        return [f"int parameters found for {sorted(found)}, cases for {sorted(cases)}"]
    failures = []
    for qualified, params in found.items():
        call, valid, out_of_range = cases[qualified]
        if set(params) - set(valid) or set(out_of_range) - set(params):
            failures.append(f"{qualified}: parameters {params}, case {sorted(valid)}")
            continue
        call(**valid)  # a valid call raises nothing
        for param in params:
            for bad in BAD_VALUES + ((out_of_range[param],) if param in out_of_range else ()):
                try:
                    call(**{**valid, param: bad})
                except ValueError as exc:
                    if not re.search(rf"\b{param} must be\b", str(exc)):
                        failures.append(f"{qualified}({param}={bad!r}): {exc}")
                except Exception as exc:
                    failures.append(f"{qualified}({param}={bad!r}): {type(exc).__name__}: {exc}")
                else:
                    failures.append(f"{qualified}({param}={bad!r}) raised nothing")
    return failures


def test_the_sweep_reports_each_way_to_break_the_rule():
    def takes_anything(rank: int):
        return rank

    def names_another(rank: int):
        if type(rank) is not int:
            raise ValueError(f"count must be an integer, got {rank!r}")

    def untested(rank: int):
        return rank

    planted = types.ModuleType("planted")
    for function in (takes_anything, names_another, untested):
        function.__module__ = "planted"
        setattr(planted, function.__name__, function)
    cases = {"takes_anything": (takes_anything, {"rank": 2}, {"rank": -1}),
             "names_another": (names_another, {"rank": 2}, {}), "untested": (untested, {}, {})}
    failures = sweep([planted], cases)
    assert failures.count("untested: parameters ['rank'], case []") == 1
    assert sum("raised nothing" in f for f in failures) == len(BAD_VALUES) + 1
    assert sum("count must be" in f for f in failures) == len(BAD_VALUES)
    del cases["untested"]
    assert sweep([planted], cases) == [
        "int parameters found for ['names_another', 'takes_anything', 'untested'], "
        "cases for ['names_another', 'takes_anything']"]


def test_every_int_argument_is_checked():
    assert sweep(package_modules(NUMERIC_MODULES), numeric_cases()) == []
    assert sweep(package_modules(EXACT_MODULES), exact_cases()) == []


def test_the_exact_half_holds_with_numpy_blocked():
    # as test_exact_commands_run_with_numpy_blocked: in a process where
    # importing numpy fails, the exact half comes to the same verdict
    script = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "import test_int_arguments as t\n"
        "print(json.dumps(t.sweep(t.package_modules(t.EXACT_MODULES), t.exact_cases())))\n"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == []
