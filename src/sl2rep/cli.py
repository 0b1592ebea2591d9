"""Command line front end.

Subcommands: parse, dim, census, family, witness, isom, sequence,
verify dim, verify omega.  Output is plain text or JSON; JSON reports
carry {command, inputs, config, results, provenance, pass} with one
provenance basis per numeric claim ("exact", "quotient-lower-bound",
or "numeric-consensus").  Exit codes: 0 success / verification pass,
1 verification failure, 2 usage or domain errors.

Every subcommand takes --output; only verify dim and verify omega take
the sampling options (--seed, --samples, --tol-res, --tol-rank,
--tol-trace), and the JSON config echoes the options the command has.
Each subparser carries its handler, a handler returns its report, and
the exit code follows from the report's pass flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .census import MAX_SEQUENCE_COUNT, distinguishing_sequence, exact_census, lower_bound_census
from .dimension import freeness_test, product_power_dim, representation_dim
from .families import (
    MAX_FAMILY_INDEX,
    MAX_WITNESS_TARGET,
    family_member,
    meskin_isomorphic,
    parafree_profile,
    witness_group,
)
from .oracle import (
    MAX_CENTRAL_POWER,
    MAX_SAMPLES,
    MAX_VERIFY_EXPONENT,
    Tolerances,
    verify_central_roots,
    verify_dimension,
)
from .presentations import (
    ProductPower,
    contains_product_power,
    format_spec,
    generator_count,
    parse_spec,
    validate_exponents,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

EXACT = "exact"
QUOTIENT = "quotient-lower-bound"
NUMERIC = "numeric-consensus"


def _parse_sign(text: str) -> int:
    if text in ("+", "+1", "1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise argparse.ArgumentTypeError(f"sign must be + or -, got {text!r}")


def _parse_tuple(text: str) -> tuple[int, ...]:
    try:
        exps = tuple(int(part) for part in text.strip().split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer tuple, got {text!r}")
    try:
        return validate_exponents(exps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


_TUPLE_TOKEN = re.compile(r"-\d+(,-?\d+)*")


def _shield_negative_tuples(argv: list[str]) -> list[str]:
    # "-3,-5,-7" looks like an option to argparse; a leading space keeps it
    # positional and int() ignores the whitespace later
    return [" " + a if _TUPLE_TOKEN.fullmatch(a) else a for a in argv]


def _add_sampling(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
    parser.add_argument("--samples", type=int, default=100,
                        help=f"verify sample count, 1 to {MAX_SAMPLES:,} (default 100; "
                             "larger counts exit 2)")
    parser.add_argument("--tol-res", type=float, default=1e-8, dest="tol_res",
                        help="residual tolerance, finite and > 0 (default 1e-8; other "
                             "values exit 2)")
    parser.add_argument("--tol-rank", type=float, default=1e-8, dest="tol_rank",
                        help="relative singular value cutoff, strictly between 0 and 1 "
                             "(default 1e-8; other values exit 2)")
    parser.add_argument("--tol-trace", type=float, default=1e-6, dest="tol_trace",
                        help="trace matching tolerance, finite and > 0 (default 1e-6; other "
                             "values exit 2)")


def _command(sub, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    p = sub.add_parser(name, **kwargs)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(handler=handler)
    return p


# built once per process: constructing the tree costs ~20 times a parse
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2rep",
        description="Dimensions and component counts of SL(2,C) representation varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "parse", _cmd_parse,
                 help="parse a group description and echo its normal form")
    p.add_argument("spec")

    p = _command(sub, "dim", _cmd_dim, help="variety dimension, reducibility, freeness")
    p.add_argument("spec")

    p = _command(sub, "census", _cmd_census,
                 help="component census (exact or certified lower bound)")
    p.add_argument("spec")

    p = _command(sub, "family", _cmd_family, help="canonical parafree family member")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--index", type=int, required=True,
                   help=f"position in the family, 0 to {MAX_FAMILY_INDEX:,} "
                        "(larger indices exit 2)")

    p = _command(sub, "witness", _cmd_witness,
                 help="family member with many top-dimension components")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--mirc", type=int, required=True,
                   help="required number of maximal top-dimension components, "
                        f"1 to {MAX_WITNESS_TARGET:,} (larger targets exit 2)")

    p = _command(sub, "isom", _cmd_isom, help="isomorphism test for product-power relators")
    p.add_argument("tuple_a", type=_parse_tuple)
    p.add_argument("tuple_b", type=_parse_tuple)

    p = _command(sub, "sequence", _cmd_sequence,
                 help="groups distinguished by component lower bounds")
    p.add_argument("--count", type=int, required=True,
                   help=f"number of groups, 0 to {MAX_SEQUENCE_COUNT:,} (larger counts exit 2)")
    p.add_argument("--dim", type=int, default=6)

    p = sub.add_parser("verify", help="numeric verification")
    vsub = p.add_subparsers(dest="verify_what", required=True)

    v = _command(vsub, "dim", _cmd_verify,
                 help="sample a word variety and check its dimension")
    v.add_argument("exponents", type=_parse_tuple,
                   help=f"2 to 8 exponents, each |p| at most {MAX_VERIFY_EXPONENT:,} "
                        "(larger ones exit 2)")
    v.add_argument("--sign", type=_parse_sign, default=1)
    _add_sampling(v)

    v = _command(
        vsub, "omega", _cmd_verify,
        help="check the census of {A : A^p = sign*I}; every orbit class is sampled at "
             "least once, so samples_requested is ceil(samples/classes)*classes "
             "(999 at p = 2000)",
    )
    v.add_argument("--p", type=int, required=True,
                   help=f"the power, 2 to {MAX_CENTRAL_POWER:,} (larger powers exit 2)")
    v.add_argument("--sign", type=_parse_sign, default=1)
    _add_sampling(v)

    return parser


def _tolerances(args) -> Tolerances:
    return Tolerances(residual=args.tol_res, rank_rel=args.tol_rank, trace=args.tol_trace)


_CONFIG_KEYS = ("seed", "samples", "tol_res", "tol_rank", "tol_trace", "output")


def _config_dict(args) -> dict:
    """The options the command has, in a fixed order."""
    return {key: getattr(args, key) for key in _CONFIG_KEYS if hasattr(args, key)}


def _spectrum_json(spectrum) -> dict:
    return {str(d): c for d, c in spectrum.entries.items()}


class _Report:
    """Accumulates claims with provenance and renders text or JSON."""

    def __init__(self, command: str, inputs: dict, args):
        self.command = command
        self.inputs = inputs
        self.args = args
        self.results: list[dict] = []
        self.provenance: list[dict] = []
        self.passed = True

    def claim(self, name: str, value, basis: str):
        self.results.append({"name": name, "value": value})
        self.provenance.append({"name": name, "basis": basis})

    def render(self) -> str:
        if self.args.output == "json":
            payload = {
                "command": self.command,
                "inputs": self.inputs,
                "config": _config_dict(self.args),
                "results": self.results,
                "provenance": self.provenance,
                "pass": self.passed,
            }
            return json.dumps(payload, indent=2)
        lines = []
        basis_by_name = {p["name"]: p["basis"] for p in self.provenance}
        for item in self.results:
            value = item["value"]
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            lines.append(f"{item['name']}: {value}   [{basis_by_name[item['name']]}]")
        lines.append(f"pass: {str(self.passed).lower()}")
        return "\n".join(lines)


def _cmd_parse(args) -> _Report:
    spec = parse_spec(args.spec)
    report = _Report("parse", {"spec": args.spec}, args)
    report.claim("normal_form", format_spec(spec), EXACT)
    report.claim("variant", type(spec).__name__, EXACT)
    report.claim("generators", generator_count(spec), EXACT)
    if isinstance(spec, ProductPower):
        report.claim("exponents", list(spec.exponents), EXACT)
    return report


def _cmd_dim(args) -> _Report:
    spec = parse_spec(args.spec)
    result = representation_dim(spec)
    report = _Report("dim", {"spec": args.spec, "group": format_spec(spec)}, args)
    report.claim("dimension", result.dim, EXACT)
    report.claim("reducibility", result.reducibility, EXACT)
    n = generator_count(spec)
    report.claim("free_of_rank_n", freeness_test(n, result.dim), EXACT)
    if not contains_product_power(spec):
        census = exact_census(spec)
        report.claim("spectrum", _spectrum_json(census.spectrum), EXACT)
    else:
        try:
            bound = lower_bound_census(spec)
            report.claim(
                f"components_at_{result.dim}_at_least",
                bound.spectrum.count(result.dim),
                QUOTIENT,
            )
        except ValueError:
            pass
    return report


def _cmd_census(args) -> _Report:
    spec = parse_spec(args.spec)
    report = _Report("census", {"spec": args.spec, "group": format_spec(spec)}, args)
    if contains_product_power(spec):
        result = lower_bound_census(spec)
        c = result.basis.dim_check
        report.claim("dimension", c, EXACT)
        report.claim(f"components_at_{c}_at_least", result.spectrum.count(c), QUOTIENT)
        report.claim("quotient", format_spec(result.basis.quotient), QUOTIENT)
    else:
        result = exact_census(spec)
        report.claim("dimension", result.spectrum.dimension(), EXACT)
        report.claim("spectrum", _spectrum_json(result.spectrum), EXACT)
        report.claim("total_components", result.spectrum.total(), EXACT)
    return report


def _cmd_family(args) -> _Report:
    group = family_member(args.rank, args.index)
    profile = parafree_profile(group)
    report = _Report("family", {"rank": args.rank, "index": args.index}, args)
    report.claim("group", format_spec(group), EXACT)
    report.claim("rank", profile.rank, EXACT)
    report.claim("min_generators", profile.min_generators, EXACT)
    report.claim("deviation", profile.deviation, EXACT)
    report.claim("freely_indecomposable", profile.freely_indecomposable, EXACT)
    return report


def _cmd_witness(args) -> _Report:
    group, census = witness_group(args.rank, args.mirc)
    dim = census.basis.dim_check
    report = _Report("witness", {"rank": args.rank, "mirc": args.mirc}, args)
    report.claim("group", format_spec(group), EXACT)
    report.claim("dimension", dim, EXACT)
    report.claim(f"components_at_{dim}_at_least", census.spectrum.count(dim), QUOTIENT)
    return report


def _cmd_isom(args) -> _Report:
    same = meskin_isomorphic(args.tuple_a, args.tuple_b)
    report = _Report(
        "isom", {"tuple_a": list(args.tuple_a), "tuple_b": list(args.tuple_b)}, args
    )
    report.claim("isomorphic", same, EXACT)
    return report


def _cmd_sequence(args) -> _Report:
    entries = distinguishing_sequence(args.dim, args.count)
    report = _Report("sequence", {"dim": args.dim, "count": args.count}, args)
    listing = []
    for group, census in entries:
        listing.append({
            "group": format_spec(group),
            "dimension": args.dim,
            "lower_bound": census.spectrum.count(args.dim),
        })
    report.claim("groups", listing, QUOTIENT)
    return report


def _cmd_verify(args) -> _Report:
    # verify dim and verify omega differ only in the subject they sample
    if args.verify_what == "dim":
        verify, subject = verify_dimension, args.exponents
        inputs = {"exponents": list(subject)}
    else:
        verify, subject = verify_central_roots, args.p
        inputs = {"p": subject}
    result = verify(subject, args.sign, args.samples, args.seed, _tolerances(args))
    report = _Report(f"verify {args.verify_what}", {**inputs, "sign": args.sign}, args)
    report.claim("predicted_dimension", result.predicted_dim, EXACT)
    report.claim("consensus_dimension", result.consensus_dim, NUMERIC)
    report.claim("report", result.to_dict(), NUMERIC)
    report.passed = result.passed
    return report


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_shield_negative_tuples(list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        report = args.handler(args)
    except ValueError as exc:  # ParseError and EligibilityError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(report.render())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
