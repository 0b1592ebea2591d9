"""Command line behavior: output shapes, exit codes, determinism."""

import ast
import collections
import enum
import json
import math
import os
import pathlib
import random
import shlex
import subprocess
import sys
import time

import pytest

from sl2rep import census, cli, oracle
from sl2rep.census import MAX_SEQUENCE_COUNT
from sl2rep.dimension import representation_dim
from sl2rep.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, indented_json, main
from sl2rep.oracle import MAX_CENTRAL_POWER, MAX_SAMPLES, MAX_VERIFY_EXPONENT
from sl2rep.presentations import MAX_FACTORS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--output", "json")
    return code, json.loads(out), err


def test_parse_text(capsys):
    code, out, _ = run(capsys, "parse", "<a,b,c; a^-3 b^-5 = c^7>")
    assert code == EXIT_OK
    assert "normal_form: <a,b,c; a^-3 b^-5 c^-7>" in out
    assert "pass: true" in out


def test_parse_json_shape(capsys):
    code, payload, _ = run_json(capsys, "parse", "F2 * Z5")
    assert code == EXIT_OK
    assert set(payload) == {"command", "inputs", "config", "results", "provenance", "pass"}
    names = {r["name"]: r["value"] for r in payload["results"]}
    assert names["normal_form"] == "F2 * Z5"
    assert names["variant"] == "FreeProduct"
    assert names["generators"] == 3
    assert payload["pass"] is True


def test_dim_reports_exact_spectrum_for_census_groups(capsys):
    code, payload, _ = run_json(capsys, "dim", "Z6")
    assert code == EXIT_OK
    names = {r["name"]: r["value"] for r in payload["results"]}
    assert names["dimension"] == 2
    assert names["reducibility"] == "certified-reducible"
    assert names["free_of_rank_n"] is False
    assert names["spectrum"] == {"0": 2, "2": 2}
    bases = {p["name"]: p["basis"] for p in payload["provenance"]}
    assert bases["spectrum"] == "exact"


def test_dim_reports_lower_bound_for_relator_groups(capsys):
    code, payload, _ = run_json(capsys, "dim", "<a,b,c; a^3 b^5 c^7>")
    assert code == EXIT_OK
    names = {r["name"]: r["value"] for r in payload["results"]}
    assert names["dimension"] == 6
    assert names["reducibility"] == "certified-reducible"
    assert names["components_at_6_at_least"] == 6
    bases = {p["name"]: p["basis"] for p in payload["provenance"]}
    assert bases["components_at_6_at_least"] == "quotient-lower-bound"


def test_dim_skips_the_bound_when_it_does_not_apply(capsys):
    # an exponent of 2 collapses the quotient dimension
    code, payload, _ = run_json(capsys, "dim", "<a,b,c; a^2 b^3 c^5>")
    assert code == EXIT_OK
    names = [r["name"] for r in payload["results"]]
    assert "dimension" in names
    assert not any(name.startswith("components_at") for name in names)


def test_census_exact_and_lower_bound(capsys):
    code, payload, _ = run_json(capsys, "census", "Z3 * Z5 * Z7")
    assert code == EXIT_OK
    names = {r["name"]: r["value"] for r in payload["results"]}
    assert names["spectrum"] == {"0": 1, "2": 6, "4": 11, "6": 6}
    assert names["total_components"] == 24

    code, payload, _ = run_json(capsys, "census", "<a,b,c; a^11 b^13 c^17>")
    assert code == EXIT_OK
    names = {r["name"]: r["value"] for r in payload["results"]}
    assert names["components_at_6_at_least"] == 240
    assert names["quotient"] == "Z11 * Z13 * Z17"


def test_family_and_witness(capsys):
    code, payload, _ = run_json(capsys, "family", "--rank", "2", "--index", "1")
    assert code == EXIT_OK
    names = {r["name"]: r["value"] for r in payload["results"]}
    assert names["group"] == "<a,b,c; a^11 b^13 c^17>"
    assert names["rank"] == 2
    assert names["deviation"] == 1

    code, payload, _ = run_json(capsys, "witness", "--rank", "2", "--mirc", "7")
    assert code == EXIT_OK
    names = {r["name"]: r["value"] for r in payload["results"]}
    assert names["group"] == "<a,b,c; a^11 b^13 c^17>"
    assert names["dimension"] == 6
    assert names["components_at_6_at_least"] == 240


def test_isom_accepts_leading_minus_tuples(capsys):
    code, payload, _ = run_json(capsys, "isom", "-3,-5,-7", "7,5,3")
    assert code == EXIT_OK
    names = {r["name"]: r["value"] for r in payload["results"]}
    assert names["isomorphic"] is True

    code, payload, _ = run_json(capsys, "isom", "3,5,7", "3,5,11")
    assert code == EXIT_OK
    assert {r["name"]: r["value"] for r in payload["results"]}["isomorphic"] is False


def test_sequence(capsys):
    code, payload, _ = run_json(capsys, "sequence", "--count", "3", "--dim", "6")
    assert code == EXIT_OK
    groups = {r["name"]: r["value"] for r in payload["results"]}["groups"]
    assert [g["lower_bound"] for g in groups] == [6, 240, 1386]


def test_text_output_renders_lists_as_json(capsys):
    code, out, _ = run(capsys, "sequence", "--count", "2")
    assert code == EXIT_OK
    value, basis = out.splitlines()[0][len("groups: "):].rsplit("   ", 1)
    assert basis == "[quotient-lower-bound]"
    groups = json.loads(value)
    assert [g["group"] for g in groups] == ["<a,b,c; a^3 b^5 c^7>", "<a,b,c; a^11 b^13 c^17>"]
    assert [g["lower_bound"] for g in groups] == [6, 240]

    code, out, _ = run(capsys, "parse", "<a,b,c; a^2 b^3 c^5>")
    assert "exponents: [2, 3, 5]   [exact]" in out


def test_witness_target_bound(capsys):
    code, payload, _ = run_json(capsys, "witness", "--rank", "2", "--mirc", str(10**15))
    assert code == EXIT_OK
    names = {r["name"]: r["value"] for r in payload["results"]}
    assert names["group"] == "<a,b,c; a^199999 b^200003 c^200009>"
    assert names["components_at_6_at_least"] >= 10**15

    code, out, err = run(capsys, "witness", "--rank", "2", "--mirc", str(10**16))
    assert code == EXIT_USAGE
    assert out == ""
    assert f"min_components must be an integer in 1..{10**15}, got {10**16}" in err


def test_family_index_bound(capsys):
    code, out, err = run(capsys, "family", "--rank", "2", "--index", "10001")
    assert code == EXIT_USAGE
    assert out == ""
    assert "family index must be an integer in 0..10000, got 10001" in err


def test_verify_dim_passes_and_reports(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "dim", "2,2", "--sign", "-", "--samples", "10"
    )
    assert code == EXIT_OK
    names = {r["name"]: r["value"] for r in payload["results"]}
    assert names["predicted_dimension"] == 3
    assert names["consensus_dimension"] == 3
    assert names["report"]["pass"] is True
    assert payload["pass"] is True
    assert list(payload["config"]) == _SAMPLING_CONFIG


@pytest.mark.parametrize("command", [("verify", "dim", "2,3"), ("verify", "omega", "--p", "5")])
@pytest.mark.parametrize("output", ["text", "json"])
def test_every_sign_spelling_runs_as_its_symbol(capsys, command, output):
    # "-1" reaches the sign parser as " -1", past the negative-tuple shield
    for symbol, spellings in (("-", ("-1",)), ("+", ("+1", "1"))):
        expected = run(capsys, *command, "--sign", symbol, "--samples", "4", "--output", output)
        assert expected[0] == EXIT_OK
        for spelling in spellings:
            assert run(capsys, *command, "--sign", spelling, "--samples", "4", "--output", output) == expected
    code, out, err = run(capsys, *command, "--sign", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert "sign must be +, +1, 1, - or -1, got '2'" in err


def test_verify_dim_big_exponent_in_the_prefix(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "dim", "-1000,3,5", "--samples", "3", "--seed", "2"
    )
    assert code == EXIT_OK
    report = {r["name"]: r["value"] for r in payload["results"]}["report"]
    assert report["samples_accepted"] == 3


class _Reached(Exception):
    """Raised by a stand-in for the costly part of a command."""


def _reached(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize(
    "module,costly,argv,cap",
    [
        (oracle, "_draw_samples", ("verify", "dim", "2,2", "--samples"), MAX_SAMPLES),
        (oracle, "_orbit_point", ("verify", "omega", "--p", "5", "--samples"), MAX_SAMPLES),
        (oracle, "_orbit_point", ("verify", "omega", "--p"), MAX_CENTRAL_POWER),
        (census, "consecutive_prime_triples", ("sequence", "--count"), MAX_SEQUENCE_COUNT),
    ],
)
def test_input_caps(capsys, monkeypatch, module, costly, argv, cap):
    # the cap is checked before any work: at the cap the command reaches
    # its costly part, one above it exits 2 without touching it
    monkeypatch.setattr(module, costly, _reached)
    with pytest.raises(_Reached):
        main([*argv, str(cap)])
    code, out, err = run(capsys, *argv, str(cap + 1))
    assert code == EXIT_USAGE
    assert out == ""
    assert str(cap) in err


@pytest.mark.parametrize("output", ["text", "json"])
def test_factor_cap(capsys, output):
    # at the cap the census convolves 1,000 spectra and prints 2^1000 in full
    spec = " * ".join(["Z3"] * MAX_FACTORS)
    code, out, _ = run(capsys, "census", spec, "--output", output)
    assert code == EXIT_OK
    if output == "json":
        results = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        assert results["dimension"] == 2 * MAX_FACTORS
        assert results["total_components"] == 2 ** MAX_FACTORS
    else:
        assert f"dimension: {2 * MAX_FACTORS}   [exact]" in out.splitlines()
    code, out, err = run(capsys, "census", spec + " * Z3", "--output", output)
    assert code == EXIT_USAGE
    assert out == ""
    assert str(MAX_FACTORS) in err


@pytest.mark.parametrize("word", ["{},3,5", "3,5,{}", "{},3"])
@pytest.mark.parametrize("sign", [1, -1])
def test_exponent_cap(capsys, monkeypatch, word, sign):
    # as test_input_caps: at the cap the run reaches its first stage, one
    # above it exits 2 without drawing a sample
    monkeypatch.setattr(oracle, "_draw_samples", _reached)
    with pytest.raises(_Reached):
        main(["verify", "dim", word.format(sign * MAX_VERIFY_EXPONENT), "--samples", "2"])
    code, out, err = run(capsys, "verify", "dim", word.format(sign * (MAX_VERIFY_EXPONENT + 1)))
    assert code == EXIT_USAGE
    assert out == ""
    assert str(MAX_VERIFY_EXPONENT) in err


def test_verify_dim_fails_when_nothing_is_accepted(capsys):
    # an impossible residual tolerance rejects every sample
    code, payload, _ = run_json(
        capsys, "verify", "dim", "2,2", "--samples", "5", "--tol-res", "1e-300"
    )
    assert code == EXIT_VERIFY_FAIL
    assert payload["pass"] is False


def test_verify_omega(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "omega", "--p", "5", "--samples", "8"
    )
    assert code == EXIT_OK
    names = {r["name"]: r["value"] for r in payload["results"]}
    assert names["predicted_dimension"] == 2
    assert payload["pass"] is True
    assert list(payload["config"]) == _SAMPLING_CONFIG

    code, _, _ = run(capsys, "verify", "omega", "--p", "6", "--sign", "-", "--samples", "6")
    assert code == EXIT_OK


@pytest.mark.parametrize("output", ["text", "json"])
def test_verify_omega_failed_central_check_is_a_report(capsys, output):
    # at this cutoff the Jacobians of +-I have no clean rank cut
    code, out, err = run(capsys, "verify", "omega", "--p", "4", "--tol-rank", "0.9",
                         "--output", output)
    assert (code, err) == (EXIT_VERIFY_FAIL, "")
    if output == "json":
        report = {r["name"]: r["value"] for r in json.loads(out)["results"]}["report"]
        assert report["central_checks"] == {"+2": "rank_gap", "-2": "rank_gap"}
        assert report["pass"] is False
    else:
        assert out.endswith("pass: false\n")


@pytest.mark.parametrize("value", ["1e-300", "0.5", "0.9", "1", "2", "0", "-1", "nan", "inf"])
@pytest.mark.parametrize("option", ["--tol-res", "--tol-rank", "--tol-trace"])
@pytest.mark.parametrize("command", [("verify", "dim", "3,5,7"), ("verify", "omega", "--p", "5")])
def test_tolerance_values_finish_or_exit_two(capsys, command, option, value):
    code, _, err = run(capsys, *command, "--samples", "4", option, value)
    assert "Traceback" not in err
    # every tolerance is finite and > 0, and the rank cutoff below 1
    tol = float(value)
    valid = math.isfinite(tol) and tol > 0 and (option != "--tol-rank" or tol < 1)
    if valid:
        assert code in (EXIT_OK, EXIT_VERIFY_FAIL) and err == ""
    else:
        # the message names the option, not the Tolerances field
        assert code == EXIT_USAGE and err.startswith(f"error: {option} ")


@pytest.mark.parametrize("seed", ["0", "7", str(2**64 + 7), str(10**30), "-1", str(-2**64)])
@pytest.mark.parametrize("command", [("verify", "dim", "3,5,7"), ("verify", "omega", "--p", "5")])
def test_seed_values_finish_or_exit_two(capsys, command, seed):
    code, out, err = run(capsys, *command, "--samples", "4", "--seed", seed, "--output", "json")
    assert "Traceback" not in err
    if int(seed) >= 0:
        assert (code, err) == (EXIT_OK, "")
        report = {r["name"]: r["value"] for r in json.loads(out)["results"]}["report"]
        assert report["seed"] == int(seed)
    else:
        assert code == EXIT_USAGE and err.startswith("error: --seed ")


@pytest.mark.parametrize("argv,option", [
    (("verify", "omega", "--p", str(MAX_CENTRAL_POWER + 1)), "--p"),
    (("verify", "omega", "--p", "1"), "--p"),
    (("verify", "omega", "--p", "-4"), "--p"),
    (("verify", "omega", "--p", "5", "--samples", "0"), "--samples"),
    (("verify", "omega", "--p", "5", "--samples", str(MAX_SAMPLES + 1)), "--samples"),
    (("verify", "dim", "3,5,7", "--samples", "0"), "--samples"),
    (("verify", "dim", "3,5,7", "--samples", "-2"), "--samples"),
    (("verify", "dim", "3,5,7", "--samples", str(MAX_SAMPLES + 1)), "--samples"),
])
def test_verify_range_errors_name_their_option(capsys, argv, option):
    # each input is checked on its own, and the message names its option
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: {option} must be in ")


# one valid call of each exact subcommand
_EXACT_COMMANDS = [
    ("parse", "F2 * Z5"),
    ("dim", "<a,b,c; a^3 b^5 c^7>"),
    ("census", "Z3 * Z5"),
    ("family", "--rank", "2", "--index", "0"),
    ("witness", "--rank", "2", "--mirc", "2"),
    ("isom", "3,5,7", "7,5,3"),
    ("sequence", "--count", "1"),
]
_SAMPLING_CONFIG = ["seed", "samples", "tol_res", "tol_rank", "tol_trace", "output"]


@pytest.mark.parametrize("argv", _EXACT_COMMANDS)
def test_exact_commands_echo_only_their_output_option(capsys, argv):
    code, payload, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert payload["config"] == {"output": "json"}


_USAGE_ERRORS = [
    ("parse", "<a,b; a^2>"),
    ("dim", "Q7"),
    ("census", "<a,b,c; a^2 b^3 c^5>", "--dim", "7"),
    ("family", "--rank", "1", "--index", "0"),
    ("witness", "--rank", "2", "--mirc", "0"),
    ("isom", "3,x", "3,5"),
    ("isom", "3,1", "3,5"),
    ("sequence", "--count", "2", "--dim", "7"),
    ("verify", "dim", "5"),
    ("nonsense",),
    (),
    # the sampling options belong to the verify subcommands only
    *[(*argv, "--seed", "1") for argv in _EXACT_COMMANDS],
]


@pytest.mark.parametrize("argv", _USAGE_ERRORS)
def test_usage_errors_exit_two(capsys, argv):
    code = main(list(argv))
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_help_exits_clean(capsys):
    code = main(["--help"])
    capsys.readouterr()
    assert code == EXIT_OK


def test_import_sl2rep_loads_neither_the_oracle_nor_numpy():
    code = "import sys, sl2rep; print(sorted({'sl2rep.oracle', 'numpy'} & set(sys.modules)))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


_NUMPY_FREE_COMMANDS = (
    ("parse", "<a,b,c; a^-3 b^-5 = c^7>"),
    ("dim", "<a,b,c; a^3 b^5 c^7>"),
    ("dim", "Z4 * F2"),
    ("census", "Z3 * Z5 * Z7"),
    ("census", "<a,b,c; a^11 b^13 c^17> * F1"),
    ("family", "--rank", "3", "--index", "2"),
    ("witness", "--rank", "2", "--mirc", "100"),
    ("isom", "-3,-5,-7", "7,5,3"),
    ("sequence", "--dim", "9", "--count", "4"),
)


def test_exact_commands_run_with_numpy_blocked(capsys, monkeypatch):
    # every exact subcommand, in text and in JSON, and the verify help
    # that states the oracle's caps, in a process where importing numpy
    # fails: the same exit codes and stdout as here, where numpy loads
    argvs = [[*argv, "--output", output] for argv in _NUMPY_FREE_COMMANDS for output in ("text", "json")]
    argvs += [["verify", "dim", "--help"], ["verify", "omega", "--help"]]
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from sl2rep.cli import main\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        runs.append([main(argv), out.getvalue()])\n"
        "print(json.dumps(runs))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "100"}
    blocked = json.loads(subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                                        capture_output=True, text=True, check=True).stdout)
    monkeypatch.setenv("COLUMNS", "100")
    assert blocked == [list(run(capsys, *argv)[:2]) for argv in argvs]
    assert [code for code, _ in blocked] == [EXIT_OK] * len(argvs)


def test_json_output_is_byte_identical_between_runs(capsys):
    argv = ("verify", "dim", "2,3", "--samples", "8", "--seed", "3", "--output", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


@pytest.mark.parametrize(
    "argv,code",
    [
        (("parse", "<a,b,c; a^-3 b^-5 = c^7>"), EXIT_OK),
        (("dim", "<a,b,c; a^3 b^5 c^7>"), EXIT_OK),
        (("census", "Z3 * Z5 * Z7"), EXIT_OK),
        (("census", "<a,b,c; a^11 b^13 c^17>"), EXIT_OK),
        (("family", "--rank", "2", "--index", "3"), EXIT_OK),
        (("witness", "--rank", "2", "--mirc", "100"), EXIT_OK),
        (("isom", "-3,-5,-7", "7,5,3"), EXIT_OK),
        (("sequence", "--dim", "9", "--count", "4"), EXIT_OK),
        (("verify", "dim", "2,3,5", "--samples", "12", "--seed", "7"), EXIT_OK),
        # nothing accepted: a null consensus, an "inf" gap and empty mappings
        (("verify", "dim", "2,2", "--samples", "5", "--tol-res", "1e-300"), EXIT_VERIFY_FAIL),
        (("verify", "omega", "--p", "6", "--sign", "-", "--samples", "6"), EXIT_OK),
    ],
)
def test_json_reports_are_the_bytes_of_json_dumps_indent_two(capsys, argv, code):
    got, out, err = run(capsys, *argv, "--output", "json")
    assert (got, err) == (code, "")
    # parsing back keeps the key order, so this is the report's own layout
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class _Level(enum.IntEnum):
    LOW = 3


class _Text(str):
    pass


_STRINGS = ("", "a", "\"", "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "caf\u00e9", "\u2211\U0001d11e",
            "\ud800", "</script>", "1e9", "null")
_FLOATS = (0.0, -0.0, 1e-08, 1e300, -2.5, 5e-324, math.pi, math.inf, -math.inf, math.nan)
_INTS = (0, -1, 7, 2**63, -(10**40), 10**300)


def _random_leaf(rng: random.Random):
    kind = rng.randrange(9)
    if kind == 0:
        return rng.choice(_STRINGS) + "".join(chr(rng.randrange(0x3000)) for _ in range(rng.randrange(4)))
    if kind == 1:
        return rng.choice(_INTS) + rng.randrange(-3, 4)
    if kind == 2:
        return rng.choice(_FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    if kind == 3:
        return rng.choice((True, False, None))
    if kind == 4:
        return rng.choice((_Level.LOW, _Text("sub"), collections.OrderedDict(b=1, a=[])))
    return rng.choice(_STRINGS)


def _random_key(rng: random.Random) -> str:
    # every report key is a str: _spectrum_json and to_dict convert the rest
    return rng.choice(_STRINGS) + str(rng.randrange(100))


def _random_payload(rng: random.Random, depth: int = 0):
    kind = rng.randrange(6) if depth < 4 else 0
    if kind <= 2:
        return _random_leaf(rng)
    size = rng.randrange(5)
    items = [_random_payload(rng, depth + 1) for _ in range(size)]
    if kind == 3:
        return {_random_key(rng): item for item in items}
    return items if kind == 4 else tuple(items)


def test_the_printer_is_json_dumps_indent_two_on_random_payloads():
    rng = random.Random(20261018)
    for _ in range(10_000):
        value = _random_payload(rng)
        assert indented_json(value) == json.dumps(value, indent=2), value


@pytest.mark.parametrize("value", [{"a": object()}, [1, {2j}], {"k": [b"v"]}, {"a": {"b": 1 + 2j}}])
def test_the_printer_raises_jsons_type_errors(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        indented_json(value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("key", [-3, 0.5, math.nan, True, None, _Level.LOW, (1, 2), b"k"])
def test_the_printer_rejects_keys_that_are_not_str(key):
    # json.dumps would coerce the scalars to strings; no report has such a key
    for value in ({key: 1}, [{"a": {key: 1}}]):
        with pytest.raises(TypeError):
            indented_json(value)


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="needs the interpreter's default int-to-str digit limit")
@pytest.mark.parametrize("output", ["text", "json"])
def test_a_count_past_the_digit_limit_exits_two(capsys, output):
    # 800 factors Z1000001 have (500000 + 1)^800 top components, ~4560 digits
    spec = " * ".join(["Z1000001"] * 800)
    code, out, err = run(capsys, "census", spec, "--output", output)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "4300 digits" in err
    # Python's own advice names an interpreter call, not a CLI option
    assert "set_int_max_str_digits" not in err


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="needs the interpreter's default int-to-str digit limit")
@pytest.mark.parametrize("command,output", [("census", "text"), ("census", "json"), ("dim", "text")])
def test_huge_cyclic_orders_exit_two_before_the_convolution(capsys, command, output):
    # 100 factors of a 4,000-digit order: the product of the totals passes
    # the limit at the second factor, so nothing of ~400,000 digits is built
    spec = " * ".join([f"Z{10**3999 + 7}"] * 100)
    start = time.perf_counter()
    code, out, err = run(capsys, command, spec, "--output", output)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    assert err == "error: a result exceeds the limit (4300 digits) for printing an integer\n"


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="needs the interpreter's default int-to-str digit limit")
def test_a_product_just_under_the_digit_limit_still_prints(capsys):
    # Z(2a + 1) has one central point and a orbits, so its square has
    # (a + 1)^2 components: 4,300 digits at a = 10^2150 - 2, 4,301 at
    # the next a
    a = 10**2150 - 2
    code, out, err = run(capsys, "census", f"Z{2 * a + 1} * Z{2 * a + 1}")
    assert (code, err) == (EXIT_OK, "")
    assert f"total_components: {(a + 1) ** 2}   [exact]" in out.splitlines()
    assert f'"4": {a * a}' in out
    a += 1
    code, out, err = run(capsys, "census", f"Z{2 * a + 1} * Z{2 * a + 1}")
    assert code == EXIT_USAGE and out == "" and "4300 digits" in err


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="needs the interpreter's default int-to-str digit limit")
@pytest.mark.parametrize("command", ["census", "dim"])
@pytest.mark.parametrize("output", ["text", "json"])
def test_many_relator_factors_exit_two_at_the_digit_limit(capsys, command, output):
    # the quotient bound multiplies 3,000 orbit counts of ~5 * 10^6 into a
    # count of ~20,000 digits: census, whose one count it is, exits 2; dim
    # leaves that claim out and exits 0 (the test below checks its lines)
    spec = " * ".join(["<a,b,c; a^9999991 b^9999973 c^9999971>"] * MAX_FACTORS)
    start = time.perf_counter()
    code, out, err = run(capsys, command, spec, "--output", output)
    assert time.perf_counter() - start < 1.0
    if command == "dim":
        assert (code, err) == (EXIT_OK, "") and "components_at" not in out
        return
    assert code == EXIT_USAGE and out == ""
    assert err == "error: a result exceeds the limit (4300 digits) for printing an integer\n"


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="needs the interpreter's default int-to-str digit limit")
@pytest.mark.parametrize("copies", [250, MAX_FACTORS])
def test_dim_leaves_out_a_bound_past_the_digit_limit(capsys, copies):
    # as where the bound does not apply: the claims that print stay, exit 0
    spec = " * ".join(["<a,b,c; a^9999991 b^9999973 c^9999971>"] * copies)
    code, out, err = run(capsys, "dim", spec)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == [f"dimension: {6 * copies}   [exact]",
                                "reducibility: certified-reducible   [exact]",
                                "free_of_rank_n: False   [exact]", "pass: true"]
    code, payload, _ = run_json(capsys, "dim", spec)
    assert code == EXIT_OK and [r["name"] for r in payload["results"]] == [
        "dimension", "reducibility", "free_of_rank_n"]
    assert run(capsys, "census", spec)[0] == EXIT_USAGE


def test_dim_measures_a_relator_variety_once(capsys, monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return representation_dim(spec)

    monkeypatch.setattr(cli, "representation_dim", counted)
    monkeypatch.setattr(census, "representation_dim", counted)
    code, out, _ = run(capsys, "dim", "<a,b,c; a^3 b^5 c^7> * F1")
    assert code == EXIT_OK and "components_at_9_at_least: 6   [quotient-lower-bound]" in out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("<a,b,c; a^3 b^5 c^7> * Z4", ["dimension: 8   [exact]",
                                       "components_at_8_at_least: 6   [quotient-lower-bound]",
                                       "quotient: Z3 * Z5 * Z7 * Z4   [quotient-lower-bound]"]),
        ("<a,b,c; a^3 b^5 c^7> * <d,e,f; d^11 e^13 f^17>", [
            "dimension: 12   [exact]",
            "components_at_12_at_least: 1440   [quotient-lower-bound]",
            "quotient: Z3 * Z5 * Z7 * Z11 * Z13 * Z17   [quotient-lower-bound]"]),
        ("<a,b; a^3 b^5>", ["dimension: 4   [exact]",
                            "components_at_4_at_least: 2   [quotient-lower-bound]",
                            "quotient: Z3 * Z5   [quotient-lower-bound]"]),
    ],
)
def test_census_bounds_every_relator_shape_whose_quotient_dimension_matches(capsys, spec, expected):
    code, out, err = run(capsys, "census", spec)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == expected + ["pass: true"]


@pytest.mark.parametrize("spec,dims", [("<a,b,c,d; a^3 b^5 c^7 d^9>", (8, 9)),
                                       ("<a,b,c; a^2 b^3 c^5>", (4, 6))])
def test_census_names_the_quotient_dimension_where_the_bound_does_not_apply(capsys, spec, dims):
    code, out, err = run(capsys, "census", spec)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: quotient variety has dimension {dims[0]} != {dims[1]}; "
                   "the lower bound does not apply\n")


def test_a_one_generator_relator_is_its_cyclic_group(capsys):
    # <a; a^p> and <a; a^-p> present Z_p: the same text bytes and exit code
    for p in range(2, 51):
        for command in ("dim", "census", "parse"):
            expected = run(capsys, command, f"Z{p}")
            assert expected[0] == EXIT_OK
            for exponent in (p, -p):
                assert run(capsys, command, f"<a; a^{exponent}>") == expected, (command, exponent)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
_EXACT_EXAMPLES = ("parse", "dim", "census", "census", "witness", "family", "sequence", "isom")


def _readme_transcripts():
    """(argv, output) for each "$ sl2rep ..." example of the README: the
    output is the lines up to the next blank line or code fence."""
    examples, lines = [], README.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("$ sl2rep "):
            out = []
            for follow in lines[i + 1:]:
                if not follow or follow.startswith("```"):
                    break
                out.append(follow)
            examples.append((shlex.split(line)[2:], "\n".join(out) + "\n"))
    return examples


def test_readme_transcripts_match_the_cli(capsys):
    exact = [(argv, out) for argv, out in _readme_transcripts() if argv[0] in _EXACT_EXAMPLES]
    assert sorted(argv[0] for argv, _ in exact) == sorted(_EXACT_EXAMPLES)
    for argv, expected in exact:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out == expected, argv


def _parsed(capsys, parse, argv):
    """(namespace or exit code, stdout, stderr) of one argparse call."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


def test_the_leaf_lookup_parses_as_the_full_tree(capsys):
    # the one-pass lookup against the nested parse of the full tree: the same
    # namespace, or the same exit, help and usage error; only "unrecognized
    # arguments" comes from the leaf, under its own usage line
    full = cli._build_parser()[()]
    argvs = [*_EXACT_COMMANDS, *_NUMPY_FREE_COMMANDS, *_USAGE_ERRORS,
             *[argv for argv, _ in _readme_transcripts()],
             ("verify", "dim", "-3,5,7", "--sign", "-1", "--samples", "7", "--tol-rank", "1e-9"),
             ("verify", "omega", "--p", "7", "--seed", "3", "--output", "json"),
             ("verify", "omega"), ("verify",), ("verify", "nonsense"), ("census",),
             ("--help",), ("-h", "census"), ("census", "-h"), ("verify", "--help"),
             ("verify", "dim", "--help"), ("census", "--", "Z3"), ("census", "Z3", "Z5"),
             ("isom", "-3,-5", "-5,-3", "--output", "json")]
    unrecognized = 0
    for argv in argvs:
        leaf = _parsed(capsys, cli._parse_args, argv)
        nested = _parsed(capsys, full.parse_args, cli._shield_negative_tuples(list(argv)))
        assert leaf[:2] == nested[:2], argv
        if "error: unrecognized arguments: " in nested[2]:
            unrecognized += 1
            assert leaf[2].startswith(f"usage: sl2rep {argv[0]} ")
            assert leaf[2].split(": error: ")[1] == nested[2].split(": error: ")[1]
        else:
            assert leaf[2] == nested[2], argv
    assert unrecognized == 1 + len(_EXACT_COMMANDS) + 1


def test_every_command_is_parsed_by_its_leaf_alone(monkeypatch):
    full = cli._build_parser()[()]
    monkeypatch.setattr(full, "parse_known_args", None)  # the full tree is not used
    for argv in [*_EXACT_COMMANDS, ("verify", "dim", "3,5,7"), ("verify", "omega", "--p", "5")]:
        args = cli._parse_args(list(argv))
        verify_what = argv[1] if argv[0] == "verify" else None
        assert (args.command, getattr(args, "verify_what", None)) == (argv[0], verify_what)


def test_readme_python_api_values():
    # each line with a "# value" comment evaluates to that value, of its type
    block = README.read_text().split("## Python API\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        value, expected = eval(code, namespace), ast.literal_eval(comment.strip())
        assert (type(value), value) == (type(expected), expected), line
        checked.append(expected)
    assert checked == [6, "certified-reducible", 6, True]
