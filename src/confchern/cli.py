"""Command-line driver: compute classes at fixed points and run the
verification suites with deterministic, machine-readable output.

Exit codes: 0 on success, 1 when a check fails, 2 on usage errors, 3 when
the library raises on admitted input (a fault, reported without a
traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import product

from .classes import (ProjFixedPoint, TorusData, mc_conf_affine,
                      mc_conf_proj_at, mc_conf_proj_recursion,
                      mc_conf_proj_refinement_sum, mc_orbit_conf,
                      mc_orbit_full)
from .partitions import (GRAPH_ORACLE_CAP, coefficient_a,
                         coefficient_a_graph_oracle, enumerate_partitions)
from .series import (MAX_POLE_ORDER, check_orbit_full_series,
                     check_orbit_series, check_partition_exp_identity,
                     check_point_series, check_point_series_ambient,
                     check_residue_form)
from .limits import (check_bb_stability, lambda_quotient_sweep,
                     run_limit_property_suite)

# the exception types the library raises; on admitted input one of them is a
# fault of the library, not of the command line
LIBRARY_ERRORS = (ArithmeticError, LookupError, MemoryError, TypeError,
                  ValueError)


class UsageError(Exception):
    """A command line that the CLI refuses before anything is built or run."""


def _parse_list(option: str, text: str, convert) -> list:
    try:
        # an exponent, as in 1e99999999, can name a number too large to build
        if "e" in text.lower():
            raise ValueError(text)
        return [convert(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError("%s expects comma-separated values, got %r"
                         % (option, text)) from None


# Every command, class or check, lists its parameters as {key: (default,
# lowest, highest)}: no default means the option is required, and no bounds
# that it is not a size.
# _admit holds each size to its range before anything is built or run; the
# library checks only its domain.  A list parameter (LISTS) has its length
# as its size.  A highest value is a number or a table by n, read at --n, so
# n comes first in a row that has one.  The affine, projective, orbit and s2
# tables by n and the residue poles are capped so that a run stays within
# 30 s and 1 GB (README gives the runs); RECURSION_K_MAX[n] is the largest k
# with n^k <= 256 fixed points, and MAX_POLE_ORDER the pole order of the
# N-th residue term.
AFFINE_K_MAX = {1: 7, 2: 7, 3: 7, 4: 7, 5: 7, 6: 5}
PROJ_POINT_MAX = {1: 7, 2: 7, 3: 7, 4: 7, 5: 7, 6: 6}
ORBIT_K_MAX = {1: 7, 2: 7, 3: 5, 4: 4, 5: 3, 6: 3}
S2_N_MAX = {1: 18, 2: 18, 3: 10, 4: 6, 5: 4, 6: 2}
RECURSION_K_MAX = {1: 7, 2: 7, 3: 5, 4: 4, 5: 3, 6: 3}
ALPHAS_MAX = 32
ALPHA_DIGITS_MAX = 20


def _range_text(lo, hi) -> str:
    """`lo..hi`, followed by the lower highest values of a table by n."""
    if not isinstance(hi, dict):
        return "%d..%d" % (lo, hi)
    top = max(hi.values())
    return "%d..%d; at most %s" % (lo, top, ", ".join(
        "%d at n = %d" % (v, n) for n, v in hi.items() if v < top))


# list parameter -> (element type, help)
LISTS = dict(point=(int, "comma-separated axis indices, e.g. 1,1,2"),
             alphas=(Fraction, "comma-separated rationals, e.g. 2,1/2 or "
                     "-2,3, with numerators and denominators of at most "
                     "%d digits" % ALPHA_DIGITS_MAX))

# class command -> (help, parameters, runner); a runner maps the parsed
# arguments to the class.  The lambdas here and in CHECKS read the library
# names when they run.
CLASSES = {
    "conf-affine": ("affine configuration class",
                    dict(n=(None, 1, 6), k=(None, 1, AFFINE_K_MAX)),
                    lambda args: mc_conf_affine(TorusData.standard(args.n),
                                                args.k)),
    "orbit": ("pairwise independent vectors class",
              dict(n=(None, 1, 6), k=(None, 1, ORBIT_K_MAX)),
              lambda args: mc_orbit_conf(
                  TorusData.standard(args.n, k=args.k), args.k)),
    "orbit-full": ("vanishing-allowed orbit class",
                   dict(n=(None, 1, 6), k=(None, 1, ORBIT_K_MAX)),
                   lambda args: mc_orbit_full(
                       TorusData.standard(args.n, k=args.k), args.k)),
    "conf-proj": ("projective class at a fixed point",
                  dict(n=(None, 1, 6), point=(None, 1, PROJ_POINT_MAX)),
                  lambda args: mc_conf_proj_at(TorusData.standard(args.n),
                                               ProjFixedPoint(args.point))),
}


def _check_a_oracle(args) -> bool:
    parts = enumerate_partitions(args.k)
    good = sum(1 for p in parts
               if coefficient_a(p) == coefficient_a_graph_oracle(p))
    print("%s %d/%d" % ("PASS" if good == len(parts) else "FAIL",
                        good, len(parts)))
    return good == len(parts)


def _check_recursion(args) -> bool:
    total = args.n ** args.k
    t = TorusData.standard(args.n)
    bad = 0
    for tup in product(range(1, args.n + 1), repeat=args.k):
        e = ProjFixedPoint(tup)
        if mc_conf_proj_recursion(t, e) != mc_conf_proj_refinement_sum(t, e):
            bad += 1
    print("recursion: %d/%d fixed points agree" % (total - bad, total))
    return bad == 0


def _check_limits_props(args) -> bool:
    failures, count = run_limit_property_suite(args.seed, args.count)
    print("limit properties: %d/%d cases passed" % (count - failures, count))
    sweep_bad = sum(1 for _, lim, want in lambda_quotient_sweep() if lim != want)
    print("lambda-quotient sweep: %s" % ("ok" if sweep_bad == 0 else
                                         "%d mismatches" % sweep_bad))
    return failures == 0 and sweep_bad == 0


# check name -> (parameters, runner); a runner returns whether the check
# passed.  A check reads exactly the parameters it lists.
CHECKS = {
    "a-oracle": (dict(k=(5, 1, GRAPH_ORACLE_CAP)), _check_a_oracle),
    "szeregi": (dict(N=(5, 1, 18)),
                lambda args: check_partition_exp_identity(args.N)),
    "s1": (dict(N=(5, 1, 18)), lambda args: check_point_series(args.N)),
    "s2": (dict(n=(2, 1, max(S2_N_MAX)), N=(3, 1, S2_N_MAX)),
           lambda args: check_orbit_series(args.n, args.N)),
    "s2-full": (dict(n=(2, 1, max(S2_N_MAX)), N=(3, 1, S2_N_MAX)),
                lambda args: check_orbit_full_series(args.n, args.N)),
    "s3-point": (dict(N=(5, 1, 18)),
                 lambda args: check_point_series_ambient(args.N)),
    "residue": (dict(alphas=("2,3", 1, ALPHAS_MAX),
                     N=(3, 1, MAX_POLE_ORDER)),
                lambda args: check_residue_form(args.alphas, args.N)),
    "bb-stability": (dict(n=(3, 2, 4), k=(2, 1, 3)),
                     lambda args: check_bb_stability(args.n, args.k)),
    "recursion": (dict(n=(3, 1, 6), k=(3, 1, RECURSION_K_MAX)),
                  _check_recursion),
    "limits-props": (dict(seed=(0, None, None), count=(200, 1, 10000)),
                     _check_limits_props),
}
CHECK_PARAMS = ("n", "k", "N", "alphas", "seed", "count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confchern",
        description="exact localized classes of configuration spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, params, _) in CLASSES.items():
        p = sub.add_parser(name, help=text)
        for key, (default, lo, hi) in params.items():
            p.add_argument("--" + key, type=str if key in LISTS else int,
                           required=default is None, default=default,
                           help=_range_text(lo, hi)
                           + (" " + LISTS[key][1] if key in LISTS else ""))

    ranges = "".join("\n  %-13s " % name + "; ".join(
        "--%s %s" % (key, default)
        + ("" if lo is None else " (%s)" % _range_text(lo, hi))
        for key, (default, lo, hi) in params.items())
        for name, (params, _) in CHECKS.items())
    p = sub.add_parser("check", help="run a verification suite",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog="parameters of each check, default (range; of "
                       "a list, its length):%s" % ranges)
    p.add_argument("--name", choices=tuple(CHECKS), required=True)
    for key in CHECK_PARAMS:
        p.add_argument("--" + key, type=str if key in LISTS else int,
                       help=LISTS[key][1] if key in LISTS else None)

    for name, p in sub.choices.items():
        p.add_argument("--output", choices=("text", "json"), default="text",
                       help="accepted; a check prints text whatever it says"
                       if name == "check" else None)
    return parser


def _admit(args):
    """Fill in the defaults of a check and refuse a parameter that it does
    not read; then refuse any size outside its range and a malformed list,
    fixed point or residue pole, before anything is built or run.  Parses
    each list parameter in place and returns the command's runner.  Raises
    UsageError."""
    if args.command == "check":
        command, (params, runner) = "check " + args.name, CHECKS[args.name]
        for key in CHECK_PARAMS:
            if getattr(args, key) is None:
                setattr(args, key, params[key][0] if key in params else None)
            elif key not in params:
                raise UsageError("%s does not take --%s" % (command, key))
    else:
        command, (_, params, runner) = args.command, CLASSES[args.command]
    for key, (_, lo, hi) in params.items():
        option, size = "--" + key, getattr(args, key)
        if key in LISTS:
            setattr(args, key, _parse_list(option, size, LISTS[key][0]))
            option, size = option + " length", len(getattr(args, key))
        if lo is None:
            continue
        where = ""
        if isinstance(hi, dict):  # read at --n, which comes first
            if hi[args.n] < max(hi.values()):
                where = " at --n %d" % args.n
            hi = hi[args.n]
        if not lo <= size <= hi:
            raise UsageError("%s takes %s in %d..%d%s, got %d"
                             % (command, option, lo, hi, where, size))
    if command == "conf-proj":
        try:
            if max(ProjFixedPoint(args.point).iota) > args.n:
                raise ValueError("fixed point index out of range")
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if command == "check residue":
        if (len(set(args.alphas)) != len(args.alphas)
                or any(a in (0, 1) for a in args.alphas)):
            raise UsageError("alphas must be distinct and differ from 0 and 1")
        if max(max(abs(a.numerator), a.denominator)
               for a in args.alphas) >= 10 ** ALPHA_DIGITS_MAX:
            raise UsageError("%s takes --alphas numerators and denominators "
                             "of at most %d digits"
                             % (command, ALPHA_DIGITS_MAX))
    return runner


def run(args, runner) -> int:
    """Run an admitted command: print its class, or the verdict of its
    check, with exit code 1 when the check fails."""
    result = runner(args)
    if args.command != "check":
        print(json.dumps(result.to_json(), sort_keys=True)
              if args.output == "json" else result)
        return 0
    if args.name != "a-oracle":  # its count line is its verdict
        print("PASS" if result else "FAIL")
    return 0 if result else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value with a leading minus, such as -2,3, as an
    # option; bound to the option with `=` it is read as its value
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--alphas" and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = ["--alphas=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    try:
        runner = _admit(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return run(args, runner)
    except LIBRARY_ERRORS as exc:
        # an exception may carry no text, as a MemoryError does
        text = " ".join(str(exc).split()) or (
            "out of memory" if isinstance(exc, MemoryError) else "no message")
        print("error: library fault, %s: %s" % (type(exc).__name__, text),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
