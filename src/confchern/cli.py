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
        return [convert(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError("%s expects comma-separated values, got %r"
                         % (option, text)) from None


# The size ranges of all commands live in CLASS_RANGES, ORBIT_K_MAX,
# S2_N_MAX, RECURSION_K_MAX and CHECKS, and main holds each parameter to
# its range before anything is built or run; the library checks only its
# domain.  The class commands share one range.  The orbit classes take at
# most ORBIT_K_MAX[n] points, and `check s2` and `check s2-full` at most the
# order S2_N_MAX[n]: the largest value at each n that runs within 30 s and
# 1 GB (README), where the next one ran out of time or memory, and no order
# above the 18 of the other series checks.  `check recursion` visits all n^k
# fixed points, and takes at most RECURSION_K_MAX[n] points, the largest k
# with n^k <= 256.  A range whose highest value is such a table names it in
# place of a number.  `check residue` takes the order N up to
# MAX_POLE_ORDER, the order of the pole at z = 1 of its N-th term.
CLASS_RANGES = dict(n=(1, 6), k=(1, 7))
ORBIT_K_MAX = {1: 7, 2: 7, 3: 5, 4: 4, 5: 3, 6: 2}
S2_N_MAX = {1: 18, 2: 18, 3: 10, 4: 6, 5: 4, 6: 2}
RECURSION_K_MAX = {1: 7, 2: 7, 3: 5, 4: 4, 5: 3, 6: 3}


def _highest(hi, n):
    """The highest value of a range at n, and the text that names n when
    n lowers it: `hi` is a number or a table of highest values by n."""
    if not isinstance(hi, dict):
        return hi, ""
    top = max(hi.values())
    return hi[n], "" if hi[n] == top else " at --n %d" % n


def _range_text(lo, hi) -> str:
    """`lo..hi`, followed by the lower highest values of a table by n."""
    if not isinstance(hi, dict):
        return "%d..%d" % (lo, hi)
    top = max(hi.values())
    return "%d..%d; at most %s" % (lo, top, ", ".join(
        "%d at n = %d" % (v, n) for n, v in hi.items() if v < top))

# class command -> (help, builder); a builder maps (n, k) to the class, where
# the k of conf-proj is the fixed point that main parses from --point, so
# its length is held to the range of k.  The lambdas here and in CHECKS read
# the library names when they run.
CLASSES = {
    "conf-affine": ("affine configuration class",
                    lambda n, k: mc_conf_affine(TorusData.standard(n), k)),
    "orbit": ("pairwise independent vectors class",
              lambda n, k: mc_orbit_conf(TorusData.standard(n, k=k), k)),
    "orbit-full": ("vanishing-allowed orbit class",
                   lambda n, k: mc_orbit_full(TorusData.standard(n, k=k), k)),
    "conf-proj": ("projective class at a fixed point",
                  lambda n, e: mc_conf_proj_at(TorusData.standard(n), e)),
}


def cmd_class(args) -> int:
    rf = CLASSES[args.command][1](args.n, args.k)
    print(json.dumps(rf.to_json(), sort_keys=True)
          if args.output == "json" else rf)
    return 0


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
# passed.  A check reads exactly the parameters it lists, each as
# (default, lowest, highest), with no bounds for one that is not a size.
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
    "residue": (dict(alphas=("2,3", None, None), N=(3, 1, MAX_POLE_ORDER)),
                lambda args: check_residue_form(args.alphas, args.N)),
    "bb-stability": (dict(n=(3, 2, 4), k=(2, 1, 3)),
                     lambda args: check_bb_stability(args.n, args.k)),
    "recursion": (dict(n=(3, *CLASS_RANGES["n"]), k=(3, 1, RECURSION_K_MAX)),
                  _check_recursion),
    "limits-props": (dict(seed=(0, None, None), count=(200, 1, 10000)),
                     _check_limits_props),
}
CHECK_PARAMS = ("n", "k", "N", "alphas", "seed", "count")


def cmd_check(args) -> int:
    ok = CHECKS[args.name][1](args)
    # the a-oracle count line is its verdict
    if args.name != "a-oracle":
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confchern",
        description="exact localized classes of configuration spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    k_range = "%d..%d" % CLASS_RANGES["k"]

    def common(p, text=None):
        p.add_argument("--output", choices=("text", "json"), default="text",
                       help=text)

    for name, (text, _) in CLASSES.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--n", type=int, required=True,
                       help="%d..%d" % CLASS_RANGES["n"])
        if name == "conf-proj":
            p.add_argument("--point", type=str, required=True, help=k_range
                           + " comma-separated axis indices, e.g. 1,1,2")
        elif name.startswith("orbit"):
            p.add_argument("--k", type=int, required=True,
                           help=_range_text(CLASS_RANGES["k"][0], ORBIT_K_MAX))
        else:
            p.add_argument("--k", type=int, required=True, help=k_range)
        common(p)

    ranges = "".join("\n  %-13s " % name + "; ".join(
        "--%s %s" % (key, default)
        + ("" if lo is None else " (%s)" % _range_text(lo, hi))
        for key, (default, lo, hi) in params.items())
        for name, (params, _) in CHECKS.items())
    p = sub.add_parser("check", help="run a verification suite",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog="parameters of each check, default (range):%s"
                       % ranges)
    p.add_argument("--name", choices=tuple(CHECKS), required=True)
    for key in CHECK_PARAMS:
        if key == "alphas":
            p.add_argument("--alphas",
                           help="comma-separated rationals, e.g. 2,1/2 or -2,3")
        else:
            p.add_argument("--" + key, type=int)
    common(p, "accepted; a check prints text whatever it says")

    return parser


def _admit(args):
    """Fill in the defaults of a check, then refuse a parameter that the
    check does not read, any size outside its range and a malformed
    fixed point or residue pole list, before anything is built or run.
    Parses --point into args.k and --alphas in place.  Raises UsageError."""
    if args.command == "check":
        command, params = "check " + args.name, CHECKS[args.name][0]
        for key in CHECK_PARAMS:
            if getattr(args, key) is None:
                setattr(args, key, params[key][0] if key in params else None)
            elif key not in params:
                raise UsageError("%s does not take --%s" % (command, key))
        sizes = [("--" + key, getattr(args, key), lo, hi)
                 for key, (_, lo, hi) in params.items() if lo is not None]
    else:
        command = args.command
        if command == "conf-proj":
            point = tuple(_parse_list("--point", args.point, int))
            try:
                args.k = ProjFixedPoint(point)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            k = ("--point length", args.k.k)
        else:
            k = ("--k", args.k)
        lo, hi = CLASS_RANGES["k"]
        sizes = [("--n", args.n) + CLASS_RANGES["n"],
                 k + (lo, ORBIT_K_MAX if command.startswith("orbit") else hi)]
    # n comes first, so a table of highest values by n is read in range
    for option, value, lo, hi in sizes:
        hi, where = _highest(hi, args.n)
        if not lo <= value <= hi:
            raise UsageError("%s takes %s in %d..%d%s, got %d"
                             % (command, option, lo, hi, where, value))
    if command == "conf-proj" and max(args.k.iota) > args.n:
        raise UsageError("fixed point index out of range")
    if command == "check residue":
        args.alphas = _parse_list("--alphas", args.alphas, Fraction)
        if (len(set(args.alphas)) != len(args.alphas)
                or any(a in (0, 1) for a in args.alphas)):
            raise UsageError("alphas must be distinct and differ from 0 and 1")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value with a leading minus, such as -2,3, as an
    # option; bound to the option with `=` it is read as its value
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--alphas" and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = ["--alphas=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    try:
        _admit(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return (cmd_check if args.command == "check" else cmd_class)(args)
    except LIBRARY_ERRORS as exc:
        # an exception may carry no text, as a MemoryError does
        text = " ".join(str(exc).split()) or (
            "out of memory" if isinstance(exc, MemoryError) else "no message")
        print("error: library fault, %s: %s" % (type(exc).__name__, text),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
