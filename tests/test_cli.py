"""Command line behavior: output shapes, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from sl2rep import census, oracle
from sl2rep.census import MAX_SEQUENCE_COUNT
from sl2rep.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main
from sl2rep.oracle import MAX_CENTRAL_POWER, MAX_SAMPLES, MAX_VERIFY_EXPONENT


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
    assert "component target" in err


def test_family_index_bound(capsys):
    code, out, err = run(capsys, "family", "--rank", "2", "--index", "10001")
    assert code == EXIT_USAGE
    assert out == ""
    assert "family index must be in 0..10000" in err


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
        assert code == EXIT_USAGE and err.startswith("error: ")


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


@pytest.mark.parametrize(
    "argv",
    [
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
    ],
)
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


def test_json_output_is_byte_identical_between_runs(capsys):
    argv = ("verify", "dim", "2,3", "--samples", "8", "--seed", "3", "--output", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
