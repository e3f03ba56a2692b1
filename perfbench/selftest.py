"""Checks of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

Every workload is checked with seed 1.

1. Oracle self-test: every case kind of every workload is run once, its
   result is corrupted (a dropped term, a flipped verdict, a wrong exit
   code) and fed through the same pass machinery the benchmark uses; each
   corrupted case must count as failed, and each untouched one must pass.
   So ``failed_frac = 0`` cannot be vacuous.  Then each case runs twice,
   right and then wrong in a way that keeps its term count and exit code
   (a changed coefficient, a flipped verdict, a changed stdout byte): the
   repeated execution must fail too.  A repeated class in another form
   with the same value must still pass.
2. Determinism: the traced run and a short untraced run are made twice
   with the same seed; every exact count (span calls, coeff_ops,
   exact_div attempts and hits, partition items, out_terms, ok_frac,
   attempted and failed) must match.
3. Held-out seed: a run on a seed not used for tuning must pass every
   oracle.

Exits 0 when every check passes.
"""

import json
import os
import signal
import subprocess
import sys

import run

SEED = 1
HELD_OUT_SEED = 9973


def _drop_term(rf):
    """rf with one numerator term removed (or, for zero, one added)."""
    from confchern.laurent import LaurentPoly, RatFunc
    terms = dict(rf.num.terms)
    if terms:
        terms.pop(next(iter(terms)))
    else:
        terms[(0,) * len(rf.universe)] = 1
    return RatFunc(LaurentPoly(rf.universe, terms), rf.den)


def _bump_coeff(rf):
    """rf with one numerator coefficient changed and every term kept."""
    from confchern.laurent import LaurentPoly, RatFunc
    terms = dict(rf.num.terms)
    if not terms:
        return _drop_term(rf)
    exps = next(iter(terms))
    terms[exps] += 1 if terms[exps] != -1 else 2
    return RatFunc._make(LaurentPoly(rf.universe, terms), rf._factors)


def _reform(rf):
    """rf with numerator and denominator multiplied by one of its
    denominator factors: the same value in another form."""
    from confchern.laurent import RatFunc
    f = next(iter(rf._factors))
    factors = dict(rf._factors)
    factors[f] += 1
    return RatFunc._make(rf.num * f, factors)


def corrupt(case, result, same_size=False):
    """A wrong version of `result` of the kind the case can produce: a
    dropped term, a flipped verdict or a wrong exit code.  With
    `same_size`, a changed coefficient, a flipped verdict or a changed
    stdout byte, so that the term count and exit code stay right."""
    change = _bump_coeff if same_size else _drop_term
    if case.kind == "cli":
        code, out, err = result
        if same_size and out.strip():
            # the first byte of the last line, where a check's verdict is
            i = out.rstrip("\n").rfind("\n") + 1
            return code, out[:i] + chr(ord(out[i]) ^ 1) + out[i + 1:], err
        return (1 if code != 1 else 0), out, err
    if isinstance(result, bool):
        return not result
    if isinstance(result, tuple):  # (value, verdict) pairs
        value, verdict = result
        if case.kind == "derivative":
            if not same_size:
                return value, not verdict
            from confchern.series import TruncSeries
            coeffs = list(value.coeffs)
            coeffs[1] = change(coeffs[1])
            return TruncSeries(value.universe, value.order, coeffs), verdict
        if case.kind == "props":
            return (change(value[0]),) + tuple(value[1:]), verdict
        return change(value), verdict
    return change(result)


def _replay(case, *results):
    """`case` with a run that returns `results` in turn."""
    import workloads

    it = iter(results)
    return workloads.Case(case.kind, case.key, lambda: next(it), case.check,
                          case.terms, case.known_fault)


def _sample_key(case):
    """Cases with the same sample key exercise the same checker."""
    if case.known_fault:
        return case.key
    if case.kind == "cli":  # ("cli", command, ...) or ("cli", "check", ...)
        return case.key[1] if case.key[1] != "check" else case.key[3]
    return case.kind


def oracle_selftest(workload, seed):
    """Corrupt one case of each kind and check the counts.  Returns a list
    of problems."""
    import workloads

    runner = workloads.CliRunner(run.ROOT)
    cases = workloads.build(workload, seed, runner)
    sample = {}
    for case in cases:
        # the first case of each kind (cli: of each command) and every
        # known-fault case
        sample.setdefault(_sample_key(case), case)
    picked = list(sample.values())
    results = [case.run() for case in picked]
    expected = sum(1 for c in picked if not c.known_fault)
    problems = []

    def passes(cases, count=1):
        m = run.Measurement(cases)
        for _ in range(count):
            m.run_pass()
        return m

    m_bad = passes([_replay(c, corrupt(c, r))
                    for c, r in zip(picked, results)])
    if m_bad.failed != expected:
        problems.append("%s: %d of %d corrupted cases counted as failed"
                        % (workload, m_bad.failed, expected))
    m_good = passes([_replay(c, r, r) for c, r in zip(picked, results)], 2)
    if m_good.failed:
        problems.append("%s: %d untouched cases failed: %s"
                        % (workload, m_good.failed, m_good.failures))
    m_repeat = passes([_replay(c, r, corrupt(c, r, same_size=True))
                       for c, r in zip(picked, results)], 2)
    if m_repeat.failed != expected:
        problems.append("%s: %d of %d corrupted repeats counted as failed"
                        % (workload, m_repeat.failed, expected))
    reformed = [_replay(c, r, _reform(r)) for c, r in zip(picked, results)
                if getattr(r, "_factors", None)]
    m_reform = passes(reformed, 2)
    if m_reform.failed:
        problems.append("%s: %d repeats in another form failed: %s"
                        % (workload, m_reform.failed, m_reform.failures))
    # a known-fault command is judged by its exit code too
    for case in picked:
        if case.known_fault:
            if not case.check((2, "", "error: bad input\n")):
                problems.append("%s: usage-error reply rejected" % (case.key,))
            if case.check((1, "", "error: bad input\n")):
                problems.append("%s: wrong exit code accepted" % (case.key,))
            if case.check((2, "", "Traceback (most recent call last):\n")):
                problems.append("%s: traceback accepted" % (case.key,))
    print("oracle self-test %s: %d corrupted cases -> %d failed (+%d known"
          " faults); %d untouched, run twice -> %d failed (+%d known"
          " faults); %d corrupted repeats -> %d failed; %d repeats in"
          " another form -> %d failed" % (
              workload, len(picked), m_bad.failed, m_bad.known_failed,
              len(picked), m_good.failed, m_good.known_failed,
              len(picked), m_repeat.failed, len(reformed), m_reform.failed))
    return problems


def _run(workload, seed, trace, seconds=1):
    cmd = [sys.executable, os.path.abspath(run.__file__), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, cwd=run.ROOT, timeout=600)
    lines = proc.stdout.decode().splitlines()
    if not lines:
        raise RuntimeError("%s printed nothing: %s"
                           % (" ".join(cmd), proc.stderr.decode()))
    return json.loads(lines[-1])


def _exact(result):
    """The metrics of a result that are exact counts, not times."""
    out = {"attempted": result["attempted"], "failed": result["failed"]}
    for name, rec in result["metrics"].items():
        if rec["unit"] in ("count", "bytes") or name == "ok_frac":
            out[name] = rec["value"]
    return out


def determinism(workload, seed):
    problems = []
    for trace in (1, 0):
        first = _run(workload, seed, trace)
        second = _run(workload, seed, trace)
        a, b = _exact(first), _exact(second)
        if trace == 0:  # pass counts depend on speed; per-pass counts do not
            a.pop("attempted")
            b.pop("attempted")
        diff = sorted(k for k in a if a[k] != b.get(k))
        if diff:
            problems.append("%s trace=%d: counts differ between two runs of"
                            " seed %d: %s" % (workload, trace, seed, diff))
        if not (first["correct"] and second["correct"]):
            problems.append("%s trace=%d seed %d: incorrect run"
                            % (workload, trace, seed))
        print("determinism %s trace=%d seed %d: %d exact counts compared,"
              " %d differ" % (workload, trace, seed, len(a), len(diff)))
    held = _run(workload, HELD_OUT_SEED, 0)
    print("held-out seed %d on %s: correct=%s failed=%d" % (
        HELD_OUT_SEED, workload, held["correct"], held["failed"]))
    if not held["correct"] or held["failed"]:
        problems.append("%s: held-out seed %d fails its oracles"
                        % (workload, HELD_OUT_SEED))
    return problems


def main():
    sys.path.insert(0, run.SRC)
    signal.signal(signal.SIGALRM, run._on_alarm)
    problems = []
    for workload in run.WORKLOADS:
        problems += oracle_selftest(workload, SEED)
        problems += determinism(workload, SEED)
    for p in problems:
        print("FAIL %s" % p)
    print("selftest %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
