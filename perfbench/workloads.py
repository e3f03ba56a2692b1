"""Seeded inputs, timed operations and oracle checks of the four workloads.

A workload is a *pass*: a fixed-length list of cases drawn from the seed.
Each case has a `run` callable (the timed operation), a `check` callable
(the oracle, run outside the timed region) and a `terms` callable (its
out_terms, counted on the first execution).

Library functions are looked up on their modules at call time, so that the
traced run, which rebinds them, sees every call.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

from confchern import classes as C
from confchern import laurent as L
from confchern import limits as LIM
from confchern import series as S

import oracles as O

PROBE_TAG = "PERFBENCH_CLI "  # must match cli_probe.TAG


class Case:
    """One timed operation plus its oracle.

    `check(result)` says whether a result is right; it runs no library
    arithmetic, so it may run while the library is traced.  `terms(result)`
    is the result's out_terms; it expands denominators with the library,
    so it runs on a case's first, untraced execution only.  A case with
    `known_fault` exercises a documented defect: its failures are reported
    in the metrics but do not make the run incorrect.
    """

    __slots__ = ("kind", "key", "run", "check", "terms", "known_fault")

    def __init__(self, kind, key, run, check, terms, known_fault=False):
        self.kind = kind
        self.key = key
        self.run = run
        self.check = check
        self.terms = terms
        self.known_fault = known_fault

    @staticmethod
    def fingerprint(result):
        """An exact, hashable image of a result, read from its objects'
        attributes with no library arithmetic: numerator terms and
        denominator factors of each RatFunc, every coefficient of a
        series, verdicts and CLI replies as they are."""
        if isinstance(result, L.RatFunc):
            return (frozenset(result.num.terms.items()),
                    frozenset((frozenset(f.terms.items()), power)
                              for f, power in result._factors.items()))
        if isinstance(result, S.TruncSeries):
            return tuple(Case.fingerprint(c) for c in result.coeffs)
        if isinstance(result, tuple):
            return tuple(Case.fingerprint(r) for r in result)
        return result


def build(workload: str, seed: int, cli_runner=None):
    """The seeded pass of `workload`, in execution order; cli cases run
    their commands through `cli_runner`."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "classes":
        cases = _classes_cases(rng)
    elif workload == "series":
        cases = _series_cases(rng)
    elif workload == "limits":
        cases = _limits_cases(rng)
    elif workload == "cli":
        cases = _cli_cases(rng, cli_runner)
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(cases)
    return cases


def _oracle_rng(key):
    return random.Random("oracle:%r" % (key,))


# ---------------------------------------------------------------------------
# classes: the class constructors at sizes up to about half a second
# ---------------------------------------------------------------------------

# Fixed (kind, n, size) slots that span each constructor up to about half a
# second per case; a projective slot's size is its coincidence pattern (the
# block sizes of the fixed point).  The seed draws the axes and positions of
# each fixed point and the order of the pass.  It leaves n and k alone:
# drawing them too moved out_terms by half and throughput by a quarter from
# seed to seed, so every seed now does about the same amount of work.  The
# six patterns listed twice cost about as much as the median case: with
# about sixteen slots near it, the median latency does not rest on one
# case's noise (with ten, its spread over ten seeds reached 0.11).
CLASS_SLOTS = (
    [("affine", n, k) for n, k in ((1, 3), (2, 2), (3, 2), (1, 4), (2, 3),
                                   (1, 5), (2, 4), (3, 3), (1, 6), (2, 5),
                                   (3, 4))]
    + [("proj", n, blocks) for n, blocks in (
        (2, (2, 1)), (3, (1, 1)), (2, (2, 2)), (3, (2, 1)), (4, (1, 1)),
        (2, (3, 2)), (3, (2, 1, 1)), (3, (2, 2)), (3, (3, 1)), (4, (2, 1)),
        (4, (1, 1, 1)), (3, (2, 2, 1)),
        (4, (2, 1, 1)), (4, (3, 1)), (4, (4,)),
        (2, (3, 2)), (3, (2, 1, 1)), (3, (2, 2)), (3, (3, 1)), (4, (2, 1)),
        (4, (1, 1, 1)))]
    + [("orbit", n, k) for n, k in ((1, 1), (2, 1), (2, 2), (3, 1), (2, 3),
                                    (3, 2))]
    + [("orbit_full", n, k) for n, k in ((1, 1), (2, 1), (1, 2), (2, 2),
                                         (3, 1), (2, 3), (3, 2))]
)


def _random_point(rng, n, blocks):
    """A fixed point with the given coincidence block sizes on distinct
    random axes, in random positions."""
    axes = rng.sample(range(1, n + 1), len(blocks))
    iota = [axis for axis, size in zip(axes, blocks) for _ in range(size)]
    rng.shuffle(iota)
    return tuple(iota)


def _class_case(kind, n, k, iota=None):
    """A class constructor call and its oracle.  Orbit classes are checked
    at two points with unit scaling weights against the exp-log side and
    at one point with random scaling weights against their partition sum."""
    key = (kind, n, k, iota)
    scaled = None
    if kind == "affine":
        t = C.TorusData.standard(n)
        run = lambda: C.mc_conf_affine(t, k)
        value = lambda p: O.affine_value(p, n, k)
    elif kind == "proj":
        t = C.TorusData.standard(n)
        e = C.ProjFixedPoint(iota)
        run = lambda: C.mc_conf_proj_at(t, e)
        value = lambda p: O.proj_value(p, n, iota)
    elif kind == "orbit":
        t = C.TorusData.standard(n, k=k)
        run = lambda: C.mc_orbit_conf(t, k)
        value = lambda p: O.orbit_value(p, n, k)
        scaled = lambda p: O.orbit_sum_value(p, n, k)
    else:
        t = C.TorusData.standard(n, k=k)
        run = lambda: C.mc_orbit_full(t, k)
        value = lambda p: O.orbit_full_value(p, n, k)
        scaled = lambda p: O.orbit_full_sum_value(p, n, k)

    def check(rf):
        return (_agrees_at_points(rf, t, key, value)
                and (scaled is None or _agrees_at_points(
                    rf, t, key + ("scaled",), scaled, points=1, unit=False)))

    return Case(kind, key, run, check, O.out_terms)


def _agrees_at_points(rf, t, key, value, points=2, unit=True):
    """rf equals the oracle formula at `points` random points; with `unit`
    the scaling weights b_a are 1 there."""
    rng = _oracle_rng(key)
    fixed = {b: 1 for b in t.beta} if unit else None
    for _ in range(points):
        p = O.random_point(rng, t.universe.names, fixed)
        if O.eval_ratfunc(rf, p) != value(p):
            return False
    return True


def _classes_cases(rng):
    cases = []
    points = set()
    for kind, n, size in CLASS_SLOTS:
        if kind == "proj":
            iota = _random_point(rng, n, size)
            while (n, iota) in points:  # a pattern listed twice
                iota = _random_point(rng, n, size)
            points.add((n, iota))
            cases.append(_class_case(kind, n, len(iota), iota))
        else:
            cases.append(_class_case(kind, n, size))
    return cases


# ---------------------------------------------------------------------------
# series: the verification suites
# ---------------------------------------------------------------------------

# Fixed (kind, size) slots; the seed draws the residue poles, the fixed
# points of the recursion slots and the order of the pass.
SERIES_SLOTS = (
    [("orbit", p) for p in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3))]
    + [("orbit_full", p) for p in ((1, 2), (1, 3), (2, 2), (2, 3))]
    + [("point", N) for N in (4, 6, 7)]
    + [("ambient", N) for N in (4, 6, 7)]
    + [("partition_exp", N) for N in (4, 6)]
    # (number of poles alpha, N)
    + [("residue", p) for p in ((1, 3), (2, 2), (2, 3), (3, 2), (3, 3))]
    + [("bb", p) for p in ((2, 3), (3, 2), (3, 3), (4, 2))]
    + [("recursion", p) for p in ((2, 3), (3, 3), (3, 4), (4, 3))]
    # known-false identity: a verdict that always says true fails here
    + [("derivative", p) for p in ((1, 3), (2, 2))]
)


def _random_alphas(rng, size):
    """`size` distinct random rationals other than 0 and 1."""
    alphas = set()
    while len(alphas) < size:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if a not in (0, 1):
            alphas.add(a)
    return tuple(sorted(alphas))


def _verdict_case(kind, key, run, expected=True):
    return Case(kind, key, run, lambda ok: ok is expected, lambda ok: 0)


def _series_case(kind, params, rng):
    if kind == "orbit":
        n, N = params
        return _verdict_case(kind, (kind, n, N),
                             lambda: S.check_orbit_series(n, N))
    if kind == "orbit_full":
        n, N = params
        return _verdict_case(kind, (kind, n, N),
                             lambda: S.check_orbit_full_series(n, N))
    if kind == "point":
        return _verdict_case(kind, (kind, params),
                             lambda: S.check_point_series(params))
    if kind == "ambient":
        return _verdict_case(kind, (kind, params),
                             lambda: S.check_point_series_ambient(params))
    if kind == "partition_exp":
        return _verdict_case(kind, (kind, params),
                             lambda: S.check_partition_exp_identity(params))
    if kind == "residue":
        size, N = params
        alphas = _random_alphas(rng, size)
        return _verdict_case(kind, (kind, alphas, N),
                             lambda: S.check_residue_form(alphas, N))
    if kind == "bb":
        n, k = params
        return _verdict_case(kind, (kind, n, k),
                             lambda: LIM.check_bb_stability(n, k))
    if kind == "recursion":
        n, k = params
        iota = tuple(rng.randint(1, n) for _ in range(k))
        return _recursion_case(n, iota)
    if kind == "derivative":
        n, N = params
        return _derivative_case(n, N)
    raise ValueError(kind)


def _recursion_case(n, iota):
    key = ("recursion", n, iota)
    t = C.TorusData.standard(n)
    e = C.ProjFixedPoint(iota)

    def run():
        rf = C.mc_conf_proj_recursion(t, e)
        return rf, rf == C.mc_conf_proj_at(t, e)

    def check(result):
        rf, verdict = result
        return verdict is True and _agrees_at_points(
            rf, t, key, lambda p: O.proj_value(p, n, iota))

    return Case("recursion", key, run, check, lambda r: O.out_terms(r[0]))


def _derivative_case(n, N):
    """The full orbit series against f + t f' (false; the true form is
    (1 + t) f)."""
    key = ("derivative", n, N)
    t = C.TorusData.standard(n, k=N)

    def run():
        f, _ = S.orbit_series_sides(n, N)
        full = S.orbit_full_series(n, N)
        t_df = S.TruncSeries(f.universe, N,
                             [d * c for d, c in enumerate(f.coeffs)])
        return full, full == f + t_df

    def check(result):
        full, verdict = result
        ok = verdict is False
        for d in range(1, N + 1):
            fact = Fraction(1, math.factorial(d))
            ok = ok and _agrees_at_points(
                full.coeffs[d], t, key + (d,),
                lambda p: fact * O.orbit_full_value(p, n, d))
        return ok

    return Case("derivative", key, run, check,
                lambda r: sum(O.out_terms(c) for c in r[0].coeffs))


def _series_cases(rng):
    return [_series_case(kind, params, rng) for kind, params in SERIES_SLOTS]


# ---------------------------------------------------------------------------
# limits: thousands of tiny cases on three-variable fractions
# ---------------------------------------------------------------------------

LIMITS_LAMBDA_CASES = 1000
LIMITS_PROPERTY_CASES = 500
_LIMIT_UNIVERSE = L.VarUniverse(("a1", "y", "s"))
_LIMIT_SPEC = LIM.LimitSpec("s", "to_zero")


def _random_poly(rng, require_s0):
    """Random polynomial in s (at most 4 terms) over a1^+-2 and y^0..2."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = (rng.randint(-2, 2), rng.randint(0, 2), rng.randint(0, 3))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            terms[exps] = terms.get(exps, 0) + c
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            continue
        if require_s0 and not any(e[2] == 0 for e in terms):
            continue
        return terms


def _poly(terms):
    return L.LaurentPoly(_LIMIT_UNIVERSE, terms)


def _eval_terms_s0(terms, point):
    """Value at s = 0 of a polynomial in s given as a term dict."""
    a, y = point["a1"], point["y"]
    return sum((c * a ** e[0] * y ** e[1] for e, c in terms.items()
                if e[2] == 0), Fraction(0))


def _lambda_case(rng):
    summands = []
    for _ in range(rng.randint(1, 4)):
        base_exp = rng.choice((-2, -1, 1, 2))
        summands.append((rng.choice((-2, -1, 1, 2)), base_exp,
                         rng.choice((1, 2))))
    summands = tuple(summands)
    count = sum(m for w, _, m in summands if w < 0)
    objs = [LIM.WeightedBundleSummand(
        w, L.RatFunc.var(_LIMIT_UNIVERSE, "a1", b), m)
        for w, b, m in summands]
    key = ("lambda", summands)

    def check(rf):
        rng_o = _oracle_rng(key)
        p = O.random_point(rng_o, _LIMIT_UNIVERSE.names)
        return O.eval_ratfunc(rf, p) == (-p["y"]) ** count

    return Case("lambda", key, lambda: LIM.limit_lambda_quotient(objs),
                check, O.out_terms)


def _property_case(rng):
    """Representation independence, additivity and multiplicativity of
    the limit map on random admissible fractions f, g."""
    f_num, f_den = _random_poly(rng, False), _random_poly(rng, True)
    g_num, g_den = _random_poly(rng, False), _random_poly(rng, True)
    m = _poly(_random_poly(rng, True))
    f = L.RatFunc(_poly(f_num), _poly(f_den))
    g = L.RatFunc(_poly(g_num), _poly(g_den))
    key = ("props", tuple(sorted(f_num.items())), tuple(sorted(f_den.items())),
           tuple(sorted(g_num.items())), tuple(sorted(g_den.items())))

    def run():
        lim = LIM.limit_map
        lf, lg = lim(f, _LIMIT_SPEC), lim(g, _LIMIT_SPEC)
        lr = lim(L.RatFunc(f.num * m, f.den * m), _LIMIT_SPEC)
        lsum = lim(f + g, _LIMIT_SPEC)
        lprod = lim(f * g, _LIMIT_SPEC)
        ok = lf == lr and lsum == lf + lg and lprod == lf * lg
        return (lf, lg, lsum, lprod), ok

    def check(result):
        (lf, lg, lsum, lprod), ok = result
        rng_o = _oracle_rng(key)
        for _ in range(3):
            p = O.random_point(rng_o, _LIMIT_UNIVERSE.names)
            fd, gd = _eval_terms_s0(f_den, p), _eval_terms_s0(g_den, p)
            if fd and gd:
                break
        else:
            return False
        f0 = _eval_terms_s0(f_num, p) / fd
        g0 = _eval_terms_s0(g_num, p) / gd
        return (ok is True and O.eval_ratfunc(lf, p) == f0
                and O.eval_ratfunc(lg, p) == g0
                and O.eval_ratfunc(lsum, p) == f0 + g0
                and O.eval_ratfunc(lprod, p) == f0 * g0)

    return Case("props", key, run, check,
                lambda r: sum(O.out_terms(x) for x in r[0]))


def _limits_cases(rng):
    return ([_lambda_case(rng) for _ in range(LIMITS_LAMBDA_CASES)]
            + [_property_case(rng) for _ in range(LIMITS_PROPERTY_CASES)])


# ---------------------------------------------------------------------------
# cli: one `python -m confchern.cli` subprocess per case
# ---------------------------------------------------------------------------

# Commands that must fail fast as usage errors: exit 2 with a message and no
# traceback.  Each violates that contract at the commit that defined this
# benchmark, so they are known faults.
MALFORMED = [
    ["check", "--name", "residue", "--alphas", "1/0"],
    ["conf-affine", "--n", "-1", "--k", "2"],
    ["conf-proj", "--n", "2", "--point", ""],
    ["orbit", "--n", "2", "--k", "0"],
]

# (subcommand or check name, sizes): one case per size and pass.  The seed
# draws text or json output, the fixed points, the residue poles and the
# order of the pass.
CLI_SLOTS = [
    ("conf-affine", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]),
    ("conf-proj", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]),
    ("orbit", [(1, 1), (1, 2), (2, 1), (2, 2)]),
    ("orbit-full", [(1, 1), (1, 2), (2, 1), (2, 2)]),
    ("a-oracle", [4, 5]), ("szeregi", [4, 5]), ("s1", [4, 5]),
    ("s3-point", [4, 5]), ("s2", [(1, 3), (2, 2)]),
    ("residue", [(2, 2), (3, 1)]), ("bb-stability", [(2, 2), (3, 2)]),
    ("recursion", [(2, 1), (2, 2)]),
]


def _cli_argv(name, size, rng):
    """argv of one command, and for a class command the in-process class
    case whose value it prints (None for a check)."""
    output = ["--output", rng.choice(("text", "json"))]
    if name == "conf-affine":
        n, k = size
        return ["conf-affine", "--n", str(n), "--k", str(k)] + output, \
            _class_case("affine", n, k)
    if name == "conf-proj":
        n, k = size
        iota = tuple(rng.randint(1, n) for _ in range(k))
        point = ",".join(map(str, iota))
        return ["conf-proj", "--n", str(n), "--point", point] + output, \
            _class_case("proj", n, k, iota)
    if name in ("orbit", "orbit-full"):
        n, k = size
        return [name, "--n", str(n), "--k", str(k)] + output, \
            _class_case(name.replace("-", "_"), n, k)
    check = ["check", "--name", name]
    if name == "a-oracle":
        check += ["--k", str(size)]
    elif name in ("szeregi", "s1", "s3-point"):
        check += ["--N", str(size)]
    elif name in ("s2", "bb-stability", "recursion"):
        check += ["--n", str(size[0]),
                  "--N" if name == "s2" else "--k", str(size[1])]
    elif name == "residue":
        alphas = ",".join(str(a) for a in _random_alphas(rng, size[0]))
        # one token, so that a leading minus is not read as an option
        check += ["--alphas=" + alphas, "--N", str(size[1])]
    return check + output, None


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class CliRunner:
    """Runs CLI argv lists as subprocesses, one at a time, and keeps the
    largest peak RSS of any of them in `peak_rss_kb`.  With `probe` set to
    the path of cli_probe.py, commands go through that phase-timing wrapper
    instead of ``-m confchern.cli`` and each one's phase times, interpreter
    start included, are appended to `phases`.

    A command has no timeout of its own: the run's per-case alarm
    interrupts the wait, and the child is then killed and reaped."""

    def __init__(self, root):
        self.env = cli_env(root)
        self.root = root
        self.probe = None
        self.phases = []
        self.peak_rss_kb = 0

    def __call__(self, argv):
        if self.probe:
            cmd = [sys.executable, self.probe] + argv
        else:
            cmd = [sys.executable, "-m", "confchern.cli"] + argv
        # output goes to unnamed files so that the child can be reaped with
        # wait4, which reports its own peak RSS
        with tempfile.TemporaryFile(dir=self.root) as out_f, \
                tempfile.TemporaryFile(dir=self.root) as err_f:
            spawn = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out_f, stderr=err_f,
                                    env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out_f.seek(0)
            err_f.seek(0)
            stdout, stderr = out_f.read(), err_f.read()
        out = stdout.decode("utf-8", "replace")
        err = stderr.decode("utf-8", "replace")
        if self.probe:
            kept = []
            for line in err.splitlines(keepends=True):
                if line.startswith(PROBE_TAG):
                    rec = json.loads(line[len(PROBE_TAG):])
                    rec["interpreter_s"] = rec.pop("start") - spawn
                    rec["stdout_bytes"] = len(stdout)
                    self.phases.append(rec)
                else:
                    kept.append(line)
            err = "".join(kept)
        return proc.returncode, out, err


def _cli_case(argv, expected, runner, known_fault=False):
    """A CLI command.  A class command's stdout must be byte-identical to
    the value of `expected`, its in-process class case, printed the same
    way; that value must also pass the class case's oracle.  Both are
    computed on the first check, outside the timed region and untraced,
    and kept for later ones."""
    key = ("cli",) + tuple(argv)
    want = {}

    def expect():
        if not want:
            rf = expected.run()
            if argv[-1] == "json":
                want["out"] = json.dumps(rf.to_json(), sort_keys=True) + "\n"
            else:
                want["out"] = "%s\n" % rf
            want["ok"] = expected.check(rf)
            want["terms"] = O.out_terms(rf)
        return want

    def check(result):
        code, out, err = result
        if known_fault:
            return code == 2 and err.strip() != "" and "Traceback" not in err
        if expected is None:  # a check: the last line is the verdict
            lines = out.strip().splitlines()
            return code == 0 and bool(lines) and (
                lines[-1] == "PASS" or lines[-1].startswith("PASS "))
        return code == 0 and expect()["ok"] and out == expect()["out"]

    def terms(result):
        return 0 if expected is None else expect()["terms"]

    return Case("cli", key, lambda: runner(argv), check, terms, known_fault)


def _cli_cases(rng, runner):
    cases = []
    for name, sizes in CLI_SLOTS:
        for size in sizes:
            argv, expected = _cli_argv(name, size, rng)
            cases.append(_cli_case(argv, expected, runner))
    for argv in MALFORMED:
        cases.append(_cli_case(argv, None, runner, known_fault=True))
    return cases

