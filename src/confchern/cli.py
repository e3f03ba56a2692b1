"""Command-line driver: compute classes at fixed points and run the
verification suites with deterministic, machine-readable output.

Exit codes: 0 on success, 1 when a check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import product

from .classes import (K_CAP, ProjFixedPoint, TorusData, mc_conf_affine,
                      mc_conf_proj_at, mc_conf_proj_recursion,
                      mc_conf_proj_refinement_sum, mc_orbit_conf,
                      mc_orbit_full)
from .laurent import RatFunc
from .partitions import (GRAPH_ORACLE_CAP, coefficient_a,
                         coefficient_a_graph_oracle, enumerate_partitions)
from .series import (check_orbit_series, check_partition_exp_identity,
                     check_point_series, check_point_series_ambient,
                     check_residue_form)
from .limits import (COUNT_CAP, check_bb_stability, lambda_quotient_sweep,
                     run_limit_property_suite)

RECURSION_CAP = 256  # the recursion check visits n^k fixed points


def _emit(rf: RatFunc, output: str):
    if output == "json":
        print(json.dumps(rf.to_json(), sort_keys=True))
    else:
        print(rf)


def _parse_list(option: str, text: str, convert) -> list:
    try:
        return [convert(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ValueError("%s expects comma-separated values, got %r"
                         % (option, text)) from None


# class command -> (help, builder); a builder maps (n, k) to the class.
# The lambdas read the library names when they run.
CLASSES = {
    "conf-affine": ("affine configuration class",
                    lambda n, k: mc_conf_affine(TorusData.standard(n), k)),
    "orbit": ("pairwise independent vectors class",
              lambda n, k: mc_orbit_conf(TorusData.standard(n, k=k), k)),
    "orbit-full": ("vanishing-allowed orbit class",
                   lambda n, k: mc_orbit_full(TorusData.standard(n, k=k), k)),
}


def cmd_class(args) -> int:
    _emit(CLASSES[args.command][1](args.n, args.k), args.output)
    return 0


def cmd_conf_proj(args) -> int:
    t = TorusData.standard(args.n)
    e = ProjFixedPoint(tuple(_parse_list("--point", args.point, int)))
    _emit(mc_conf_proj_at(t, e), args.output)
    return 0


def _check_a_oracle(args) -> bool:
    # refused before the Bell(k) partitions are built
    if args.k > GRAPH_ORACLE_CAP:
        raise ValueError("graph oracle capped at k <= %d" % GRAPH_ORACLE_CAP)
    parts = enumerate_partitions(args.k)
    good = sum(1 for p in parts
               if coefficient_a(p) == coefficient_a_graph_oracle(p))
    print("%s %d/%d" % ("PASS" if good == len(parts) else "FAIL",
                        good, len(parts)))
    return good == len(parts)


def _check_recursion(args) -> bool:
    t = TorusData.standard(args.n)
    if not 1 <= args.k <= K_CAP or args.n ** args.k > RECURSION_CAP:
        raise ValueError("recursion check capped at 1 <= k <= %d and "
                         "n^k <= %d, got %d^%d"
                         % (K_CAP, RECURSION_CAP, args.n, args.k))
    bad = 0
    total = 0
    for tup in product(range(1, args.n + 1), repeat=args.k):
        total += 1
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


# check name -> (default parameters, runner); a runner returns whether the
# check passed.  A check reads exactly the parameters it has defaults for.
# The lambdas read the library names when they run.
CHECKS = {
    "a-oracle": (dict(k=5), _check_a_oracle),
    "szeregi": (dict(N=5), lambda args: check_partition_exp_identity(args.N)),
    "s1": (dict(N=5), lambda args: check_point_series(args.N)),
    "s2": (dict(n=2, N=3), lambda args: check_orbit_series(args.n, args.N)),
    "s3-point": (dict(N=5), lambda args: check_point_series_ambient(args.N)),
    "residue": (dict(alphas="2,3", N=3), lambda args: check_residue_form(
        _parse_list("--alphas", args.alphas, Fraction), args.N)),
    "bb-stability": (dict(n=3, k=2),
                     lambda args: check_bb_stability(args.n, args.k)),
    "recursion": (dict(n=3, k=3), _check_recursion),
    "limits-props": (dict(seed=0, count=200), _check_limits_props),
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

    def common(p):
        p.add_argument("--output", choices=("text", "json"), default="text")

    for name, (text, _) in CLASSES.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        common(p)
        p.set_defaults(func=cmd_class)

    p = sub.add_parser("conf-proj", help="projective class at a fixed point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--point", type=str, required=True,
                   help="comma-separated axis indices, e.g. 1,1,2")
    common(p)
    p.set_defaults(func=cmd_conf_proj)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("--name", choices=tuple(CHECKS), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--alphas", type=str,
                   help="comma-separated rationals, e.g. 2,1/2 or -2,3")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int,
                   help="random cases of limits-props, 1..%d" % COUNT_CAP)
    common(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value with a leading minus, such as -2,3, as an
    # option; bound to the option with `=` it is read as its value
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--alphas" and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = ["--alphas=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    if args.command == "check":
        defaults = CHECKS[args.name][0]
        for key in CHECK_PARAMS:
            if getattr(args, key) is None:
                setattr(args, key, defaults.get(key))
            elif key not in defaults:
                print("error: check %s does not take --%s" % (args.name, key),
                      file=sys.stderr)
                return 2
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
