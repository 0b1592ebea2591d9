"""Command line front end.

Subcommands: parse, dim, census, family, witness, isom, sequence,
verify dim, verify omega.  Output is plain text or JSON; JSON reports
carry {command, inputs, config, results, provenance, pass} with one
provenance basis per numeric claim ("exact", "quotient-lower-bound",
or "numeric-consensus").  indented_json prints a report, whose keys are
all str: the bytes of json.dumps(report, indent=2), without the
pure-Python encoder that json takes whenever indent is set.  Exit
codes: 0 success / verification pass, 1 verification failure, 2 usage
or domain errors.

Every subcommand takes --output; only verify dim and verify omega take
the sampling options (--seed, --samples, --tol-res, --tol-rank,
--tol-trace), and the JSON config echoes the options the command has.
Each subparser carries its handler, a handler returns its report, and
the exit code follows from the report's pass flag.  Only the verify
handler loads the oracle, and with it numpy.

argv is parsed in one argparse pass: the leaf parser that its leading
words name ("census", "verify dim") parses the rest, and its defaults
set command and verify_what as the subparser actions would.  No
command, -h or an unknown first word goes to the full parser, so help,
usage errors and exit codes are the full tree's; only "unrecognized
arguments" prints the leaf's usage line instead of the top one.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii

from .census import (
    MAX_SEQUENCE_COUNT,
    _lower_bound_at,
    digit_limit_error,
    distinguishing_sequence,
    exact_census,
    lower_bound_census,
)
from .dimension import freeness_test, representation_dim
from .families import (
    MAX_FAMILY_INDEX,
    MAX_WITNESS_TARGET,
    family_member,
    meskin_isomorphic,
    parafree_profile,
    witness_group,
)
from .presentations import (
    MAX_CENTRAL_POWER,
    MAX_FACTORS,
    MAX_SAMPLES,
    MAX_VERIFY_EXPONENT,
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

_SPEC_HELP = f"group description, at most {MAX_FACTORS:,} free-product factors (more exit 2)"


def _parse_sign(text: str) -> int:
    text = text.strip()  # _shield_negative_tuples turns "-1" into " -1"
    if text in ("+", "+1", "1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise argparse.ArgumentTypeError(f"sign must be +, +1, 1, - or -1, got {text!r}")


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
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed, a non-negative integer of any size (default 0; "
                             "negative seeds exit 2)")
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


def _command(sub, parsers: dict, path: str, handler, **kwargs) -> argparse.ArgumentParser:
    """The leaf parser of path ("census", "verify dim"), entered in parsers."""
    words = tuple(path.split())
    p = parsers[words] = sub.add_parser(words[-1], **kwargs)
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.set_defaults(handler=handler, **dict(zip(("command", "verify_what"), words)))
    return p


# built once per process, the whole tree at once: constructing it costs
# ~20 times a parse; the full parser under (), each leaf under its words
@functools.cache
def _build_parser() -> dict[tuple[str, ...], argparse.ArgumentParser]:
    parser = argparse.ArgumentParser(
        prog="sl2rep",
        description="Dimensions and component counts of SL(2,C) representation varieties",
    )
    parsers = {(): parser}
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, parsers, "parse", _cmd_parse,
                 help="parse a group description and echo its normal form")
    p.add_argument("spec", help=_SPEC_HELP)

    p = _command(sub, parsers, "dim", _cmd_dim, help="variety dimension, reducibility, freeness")
    p.add_argument("spec", help=_SPEC_HELP)

    p = _command(sub, parsers, "census", _cmd_census,
                 help="component census (exact or certified lower bound)")
    p.add_argument("spec", help=_SPEC_HELP)

    p = _command(sub, parsers, "family", _cmd_family, help="canonical parafree family member")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--index", type=int, required=True,
                   help=f"position in the family, 0 to {MAX_FAMILY_INDEX:,} "
                        "(larger indices exit 2)")

    p = _command(sub, parsers, "witness", _cmd_witness,
                 help="family member with many top-dimension components")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--mirc", type=int, required=True,
                   help="required number of maximal top-dimension components, "
                        f"1 to {MAX_WITNESS_TARGET:,} (larger targets exit 2)")

    p = _command(sub, parsers, "isom", _cmd_isom,
                 help="isomorphism test for product-power relators")
    p.add_argument("tuple_a", type=_parse_tuple)
    p.add_argument("tuple_b", type=_parse_tuple)

    p = _command(sub, parsers, "sequence", _cmd_sequence,
                 help="groups distinguished by component lower bounds")
    p.add_argument("--count", type=int, required=True,
                   help=f"number of groups, 0 to {MAX_SEQUENCE_COUNT:,} (larger counts exit 2)")
    p.add_argument("--dim", type=int, default=6)

    p = sub.add_parser("verify", help="numeric verification")
    vsub = p.add_subparsers(dest="verify_what", required=True)

    v = _command(vsub, parsers, "verify dim", _cmd_verify,
                 help="sample a word variety and check its dimension")
    v.add_argument("exponents", type=_parse_tuple,
                   help=f"2 to 8 exponents, each |p| at most {MAX_VERIFY_EXPONENT:,} "
                        "(larger ones exit 2)")
    v.add_argument("--sign", type=_parse_sign, default=1)
    _add_sampling(v)

    v = _command(
        vsub, parsers, "verify omega", _cmd_verify,
        help="check the census of {A : A^p = sign*I}; every orbit class is sampled at "
             "least once, so samples_requested is ceil(samples/classes)*classes "
             "(999 at p = 2000)",
    )
    v.add_argument("--p", type=int, required=True,
                   help=f"the power, 2 to {MAX_CENTRAL_POWER:,} (larger powers exit 2)")
    v.add_argument("--sign", type=_parse_sign, default=1)
    _add_sampling(v)

    return parsers


_CONFIG_KEYS = ("seed", "samples", "tol_res", "tol_rank", "tol_trace", "output")


def _config_dict(args) -> dict:
    """The options the command has, in a fixed order."""
    return {key: getattr(args, key) for key in _CONFIG_KEYS if hasattr(args, key)}


def _spectrum_json(spectrum) -> dict:
    return {str(d): c for d, c in spectrum.entries.items()}


def _put_json(value, out: list, newline: str):
    """Append the pieces of json.dumps(value, indent=2) to out, value
    indented at newline.  Containers are laid out here; leaves of the
    exact builtin types go through the C primitives json itself uses,
    and the rest (non-finite floats, subclasses, unsupported objects)
    through json.dumps, so the bytes and the errors are json's.  Dict
    keys must be str, as every report key is; any other raises
    TypeError where json would coerce it."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))  # ValueError past the digit limit, as json
    elif kind is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif kind is float and value - value == 0:
        out.append(float.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _put_json(item, out, inner)
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _put_json(item, out, inner)
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def indented_json(value) -> str:
    """json.dumps(value, indent=2), byte for byte, for a report value
    (every dict key a str), without the pure-Python encoder that json
    falls back to whenever indent is set."""
    out = []
    _put_json(value, out, "\n")
    return "".join(out)


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
        try:
            if self.args.output == "json":
                payload = {
                    "command": self.command,
                    "inputs": self.inputs,
                    "config": _config_dict(self.args),
                    "results": self.results,
                    "provenance": self.provenance,
                    "pass": self.passed,
                }
                return indented_json(payload)
            lines = []
            basis_by_name = {p["name"]: p["basis"] for p in self.provenance}
            for item in self.results:
                value = item["value"]
                if isinstance(value, (dict, list)):
                    value = json.dumps(value)
                lines.append(f"{item['name']}: {value}   [{basis_by_name[item['name']]}]")
            lines.append(f"pass: {str(self.passed).lower()}")
            return "\n".join(lines)
        except ValueError:  # an integer past the interpreter's int-to-str digit limit
            raise digit_limit_error() from None


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
        report.claim("spectrum", _spectrum_json(exact_census(spec).spectrum), EXACT)
    else:
        try:
            bound = _lower_bound_at(spec, result.dim).spectrum.count(result.dim)
            str(bound)  # ValueError past the int-to-str digit limit
        except ValueError:  # the bound does not apply, or it cannot be printed
            pass
        else:
            report.claim(f"components_at_{result.dim}_at_least", bound, QUOTIENT)
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
    listing = [{"group": format_spec(group), "dimension": args.dim, "lower_bound": bound}
               for group, bound in entries]
    report.claim("groups", listing, QUOTIENT)
    return report


def _cmd_verify(args) -> _Report:
    # the one handler that needs numpy, so the only one that loads the oracle
    from .oracle import Tolerances, verify_central_roots, verify_dimension

    # verify dim and verify omega differ only in the subject they sample
    if args.verify_what == "dim":
        verify, subject = verify_dimension, args.exponents
        inputs = {"exponents": list(subject)}
    else:
        if not 2 <= args.p <= MAX_CENTRAL_POWER:
            raise ValueError(f"--p must be in 2..{MAX_CENTRAL_POWER}, got {args.p}")
        verify, subject = verify_central_roots, args.p
        inputs = {"p": subject}
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise ValueError(f"--samples must be in 1..{MAX_SAMPLES}, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    # a tolerance outside its domain is a usage error that names its option
    values = {"residual": args.tol_res, "rank_rel": args.tol_rank, "trace": args.tol_trace}
    for (field, value), option in zip(values.items(), ("--tol-res", "--tol-rank", "--tol-trace")):
        if problem := Tolerances.domain_error(field, value):
            raise ValueError(f"{option} {problem}")
    result = verify(subject, args.sign, args.samples, args.seed, Tolerances(**values))
    report = _Report(f"verify {args.verify_what}", {**inputs, "sign": args.sign}, args)
    report.claim("predicted_dimension", result.predicted_dim, EXACT)
    report.claim("consensus_dimension", result.consensus_dim, NUMERIC)
    report.claim("report", result.to_dict(), NUMERIC)
    report.passed = result.passed
    return report


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """One argparse pass, by the deepest parser argv's leading words name."""
    parsers = _build_parser()
    argv = _shield_negative_tuples(argv)
    depth = max(k for k in (0, 1, 2) if tuple(argv[:k]) in parsers)
    return parsers[tuple(argv[:depth])].parse_args(argv[depth:])


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        report = args.handler(args)
        # an integer past the int-to-str digit limit fails in render
        text = report.render()
    except ValueError as exc:  # ParseError and EligibilityError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(text)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
