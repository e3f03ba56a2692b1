"""confchern benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload classes --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Untraced (``--trace 0``), a run repeats the workload's seeded pass of cases
until the cases have been busy for ``--seconds`` and reports the end-to-end
metrics.  Traced (``--trace 1``), it runs the pass once plain and once with
every library layer wrapped in spans, and reports the per-layer metrics.
The last line of standard output is one JSON object; the lines above it
list the metrics for a reader.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("classes", "series", "limits", "cli")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
CASE_TIMEOUT_S = 120
# the reference computation is timed before a case once this much case
# time has passed since its last sample; cases are normalized by the
# median of its last REF_WINDOW samples
REF_EVERY_S = 0.02
REF_WINDOW = 5
# cli cases are normalized by a bare interpreter start instead, which
# takes tens of milliseconds, so it is sampled less often
CLI_REF_EVERY_S = 0.25
# setup_s is rescaled to a host on which the reference takes this long
REF_NOMINAL_S = 1e-3

END_TO_END = [("setup_s", "s"), ("cases_per_kref", "1/kref"),
              ("case_p50_ref", "ref"), ("case_p90_ref", "ref"),
              ("peak_rss_mb", "MB"), ("out_terms", "count"),
              ("ok_frac", "ratio")]


def reference():
    """A fixed computation that does not touch confchern (Fraction
    arithmetic and tuple-keyed dict stores, about 1 ms).  Its time, taken
    between cases, tracks how fast the host runs at that moment: on a
    shared host that speed drifts by tens of percent over seconds, and
    case times divided by it ("ref" units) stay steady."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
        table[(i, i % 5, -i)] = acc
    return len(table)


def spawn_reference():
    """A bare interpreter start and exit (``python3 -c pass``), the
    reference of the cli workload.  A cli case is mostly a process start,
    whose cost drifts apart from in-process arithmetic."""
    # no timeout here: waiting with one polls, which adds milliseconds of
    # jitter; the per-case alarm covers this call
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout("case exceeded %d s" % CASE_TIMEOUT_S)


class Measurement:
    """Executes passes over the cases and keeps latencies and verdicts.

    Every execution is checked outside the timed region.  The first one of
    a case is judged by its oracle and adds its out_terms.  A later one
    passes if its result has the first one's exact fingerprint; a result
    in any other form goes to the oracle again.  Failures of known-fault
    cases are counted apart.  `costs` holds each case time divided by the
    current reference time."""

    def __init__(self, cases, ref=reference, ref_every=REF_EVERY_S):
        self.cases = cases
        self.latencies = []
        self.costs = []
        self.refs = []
        self._ref = None
        self._ref_fn = ref
        self._ref_every = ref_every
        self._since_ref = ref_every
        self.slot_ok = [None] * len(cases)
        self.fingerprints = [None] * len(cases)
        self.out_terms = 0
        self.failed = 0
        self.known_failed = 0
        self.failures = []

    def run_pass(self):
        clock = time.perf_counter
        for i, case in enumerate(self.cases):
            signal.setitimer(signal.ITIMER_REAL, CASE_TIMEOUT_S)
            if self._since_ref >= self._ref_every:
                t0 = clock()
                self._ref_fn()
                self.refs.append(clock() - t0)
                self._ref = statistics.median(self.refs[-REF_WINDOW:])
                self._since_ref = 0.0
            t0 = clock()
            try:
                result = case.run()
                error = None
            except Exception as exc:  # a failing case must not stop the run
                result, error = None, exc
            t1 = clock()
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.latencies.append(t1 - t0)
            self.costs.append((t1 - t0) / self._ref)
            self._since_ref += t1 - t0
            if error is None and self._check(i, case, result):
                continue
            if case.known_fault:
                self.known_failed += 1
            else:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append("%r: %s" % (
                        case.key, "wrong result" if error is None
                        else "%s: %s" % (type(error).__name__, error)))

    def _check(self, i, case, result):
        first = self.slot_ok[i] is None
        try:
            fingerprint = case.fingerprint(result)
            if not first and fingerprint == self.fingerprints[i]:
                return self.slot_ok[i]
            ok = bool(case.check(result))
            if first:
                self.out_terms += case.terms(result)
        except Exception:  # an oracle that cannot decide fails the case
            ok, fingerprint = False, None
        if first:
            self.slot_ok[i] = ok
            self.fingerprints[i] = fingerprint
        return ok

    @property
    def attempted(self):
        return len(self.latencies)

    def ok_frac(self):
        return 1 - (self.failed + self.known_failed) / self.attempted


def measurement(workload, cases):
    if workload == "cli":
        return Measurement(cases, spawn_reference, CLI_REF_EVERY_S)
    return Measurement(cases)


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_sample(args):
    """One fresh process, timed from spawn until its inputs are ready:
    interpreter start, ``import confchern`` and input generation.  Returns
    (set-up s, interpreter start s, import s, reference s), the last the
    median of ten reference timings, five taken just before the spawn and
    five just after the process ends."""
    def time_refs(out):
        for _ in range(5):
            t0 = time.perf_counter()
            reference()
            out.append(time.perf_counter() - t0)

    refs = []
    time_refs(refs)
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    spawn = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, cwd=ROOT,
                          timeout=SETUP_TIMEOUT_S, check=True)
    time_refs(refs)
    rec = json.loads(proc.stdout.decode().splitlines()[-1])
    return (rec["ready"] - spawn, rec["start"] - spawn,
            rec["imported"] - rec["import_start"], statistics.median(refs))


def probe_setup(args):
    """Body of one set-up sample: import and generate, then report."""
    import_start = time.perf_counter()
    import confchern  # noqa: F401
    if args.workload == "cli":
        import confchern.cli  # noqa: F401
    import workloads
    imported = time.perf_counter()
    workloads.build(args.workload, args.seed, workloads.CliRunner(ROOT))
    ready = time.perf_counter()
    print(json.dumps({"start": T_START, "import_start": import_start,
                      "imported": imported, "ready": ready}))
    return 0


def run_untraced(args, cases, runner):
    """Whole passes until the cases were busy for args.seconds; set-up
    samples are spread over the run, one per seconds/SETUP_REPEATS of
    busy time, so that their median spans the host's drift."""
    m = measurement(args.workload, cases)
    passes = 0
    setups = []
    while passes == 0 or sum(m.latencies) < args.seconds:
        m.run_pass()
        passes += 1
        if sum(m.latencies) >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(setup_sample(args))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_sample(args))
    busy = sum(m.latencies)
    if args.workload == "cli":
        rss_kb = runner.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        # set-up drifts with the host's speed as much as the cases do
        "setup_s": statistics.median(
            t * REF_NOMINAL_S / ref for t, _, _, ref in setups),
        "cases_per_kref": 1e3 * m.attempted / sum(m.costs),
        "case_p50_ref": _percentile(m.costs, 50),
        "case_p90_ref": _percentile(m.costs, 90),
        "peak_rss_mb": rss_kb / 1024.0,
        "out_terms": m.out_terms,
        "ok_frac": m.ok_frac(),
    }
    distinct = len({c.key for c in cases})
    info = ["passes=%d cases_per_pass=%d executions=%d busy_s=%.3f" % (
                passes, len(cases), m.attempted, busy),
            "distinct_inputs=%d repeated_input_share=%.3f" % (
                distinct, 1 - distinct / m.attempted),
            "failed_frac=%.4f (known faults %d, unexpected %d)" % (
                1 - metrics["ok_frac"], m.known_failed, m.failed),
            "wall: setup_s=%.4g cases_per_s=%.4g case_p50_ms=%.4g"
            " case_p90_ms=%.4g ref_ms=%.4g (median of %d samples)" % (
                statistics.median(t for t, _, _, _ in setups),
                m.attempted / busy, _percentile(m.latencies, 50) * 1e3,
                _percentile(m.latencies, 90) * 1e3,
                statistics.median(m.refs) * 1e3, len(m.refs))]
    return m, info, {name: (metrics[name], unit) for name, unit in END_TO_END}


def run_traced(args, cases, runner):
    import spans

    m = measurement(args.workload, cases)
    m.run_pass()
    plain = sum(m.latencies)
    plain_cost = sum(m.costs)
    tracer = spans.Tracer()
    tracer.install()
    runner.probe = os.path.join(HERE, "cli_probe.py")
    m.run_pass()
    traced = sum(m.latencies[len(cases):])
    traced_cost = sum(m.costs[len(cases):])
    metrics = tracer.metrics()
    if args.workload == "cli":
        ph = runner.phases
        for key in ("interpreter_s", "import_s", "parse_s", "main_s"):
            metrics["cli.%s_ms" % key[:-2]] = statistics.median(
                p[key] for p in ph) * 1e3
        metrics["cli.stdout_bytes"] = sum(p["stdout_bytes"] for p in ph)
        covered = sum(p["interpreter_s"] + p["import_s"] + p["parse_s"]
                      + p["main_s"] for p in ph)
        missing = [] if len(ph) == len(cases) else ["cli phases"]
    else:
        samples = [setup_sample(args) for _ in range(SETUP_REPEATS)]
        interp_ms, import_ms = (statistics.median(col) * 1e3
                                for col in list(zip(*samples))[1:3])
        metrics.update({"cli.interpreter_ms": interp_ms,
                        "cli.import_ms": import_ms, "cli.parse_ms": 0.0,
                        "cli.main_ms": 0.0, "cli.stdout_bytes": 0})
        covered = tracer.root_s
        missing = tracer.missing(args.workload)
    metrics["trace.overhead_frac"] = traced_cost / plain_cost - 1
    metrics["trace.uncovered_frac"] = max(0.0, 1 - covered / traced)
    info = ["traced pass %.3f s vs plain pass %.3f s" % (traced, plain)]
    if missing:
        info.append("coverage check FAILED: no calls recorded for %s"
                    % ", ".join(missing))
    units = {name: unit for name, unit, _ in spans.catalogue()}
    return m, info, {name: (metrics[name], unit)
                     for name, unit in units.items()}, missing


def emit(m, info, metrics, correct):
    for line in info:
        print(line)
    for line in m.failures:
        print("FAILED %s" % line)
    for name, (value, unit) in metrics.items():
        print("%-44s %16.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct, "attempted": m.attempted, "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    sys.stdout.flush()


def run_all(args):
    """Run every workload in its own process and print its metrics."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, cwd=ROOT)
        lines = proc.stdout.decode().splitlines()
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr.decode())
            print("%s: FAILED (exit %d)" % (workload, proc.returncode))
            status = 1
            continue
        result = json.loads(lines[-1])
        ok_frac = result["metrics"].get("ok_frac")
        print("%s: correct=%s attempted=%d failed=%d%s" % (
            workload, result["correct"], result["attempted"],
            result["failed"], "" if ok_frac is None else
            " failed_frac=%.4g" % (1 - ok_frac["value"])))
        for name, rec in result["metrics"].items():
            print("  %-42s %16.6g %s" % (name, rec["value"], rec["unit"]))
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "confchern", "__init__.py")):
        sys.stderr.write("error: no confchern sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    if args.probe_setup:
        return probe_setup(args)
    # byte-compile first, so that no run pays for compilation
    compileall.compile_dir(os.path.join(SRC, "confchern"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    runner = workloads.CliRunner(ROOT)
    cases = workloads.build(args.workload, args.seed, runner)
    if args.trace:
        m, info, metrics, missing = run_traced(args, cases, runner)
        correct = m.failed == 0 and not missing
    else:
        m, info, metrics = run_untraced(args, cases, runner)
        correct = m.failed == 0
    emit(m, info, metrics, correct)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
