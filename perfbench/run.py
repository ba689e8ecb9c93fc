"""flatlab benchmark: per-prime classify sweeps and certificate checks.

Run from the repository root:

    python3 perfbench/run.py --workload flat-sweep --seed 1 --seconds 36 --trace 0

Workloads are defined in ``workloads.py``.  One op is one prime of one map
for the sweeps and one family member at one prime for ``certify``; all ops
run in this process, one at a time.  Every op is attempted a fixed number
of times (``ATTEMPTS``, per workload, as many as the time of all driver
runs allows), in rounds over the whole workload, and its latency is its
least time: the same estimator whatever the speed of the code.  Rounds
after the first stop early only at the ``--seconds`` deadline, which the
seed version stays well inside.  ``field_create``'s cache is cleared before
every attempt of a sweep op, as each ``flatlab classify`` call starts with
an empty cache and each prime's fields are its own.

Times are in reference seconds.  On a shared 2-CPU virtual machine the
speed of pure-Python code swings by 1.6x within seconds, as other tenants
load the host, and a whole run's op times by 1.3x.  So just before every op
attempt, and every set-up repeat, the benchmark times ``calibration_loop``,
a fixed piece of pure-Python arithmetic that does not call flatlab, and
scales the wall time that follows by ``CAL_REF_S`` over it.  Over five seeds
this cut the quartile spread of ``op_geomean_ms`` from 0.18 to 0.03.  A
change to flatlab cannot speed up or slow down the calibration, short of
changing the interpreter's global state.

Each op runs under a CPU-time budget (``setitimer(ITIMER_PROF)``): 1.15 s
for the sweeps and 10 s for certify, 2.5 times its slowest op (2.2-4.0 s).
An op over budget is aborted, is not attempted again, and counts at the
budget; it is never dropped.  No budget the run time allows sits in a clean
gap of the sweeps' per-op times: on the seed version they run on from
0.75 s through 1.4, 1.7, 2.1, 2.6 and 3.9 s to ops that do not finish in
8 s, and with the host's swings ``(t^4+t+1)/(t^2+3)`` at p = 31 (0.75-1.23 s
of CPU) finishes in some runs and not in others.  The gated metrics are
built not to jump with such an op: ``op_geomean_ms`` counts an op over
budget at the budget, so finishing just below it changes nothing, and
``completed_frac`` moves by one op.  An op over budget is not counted in
``failed``, which counts wrong outputs and unexpected exceptions only; it
is counted against ``completed_frac`` and, when traced, in
``<span>.budget_hits`` of its innermost open span.

After the measured window every first-attempt output is compared with
``reference.json`` (per-prime results recorded from the seed version of
flatlab) and checked directly: every reported form is rechecked with
``invariance_check`` and each map's verdict label is checked against its
family.  A wrong output makes the run exit with code 1.

The result object carries ``op_geomean_ms`` (geometric mean of the op
latencies), ``completed_frac`` (ops finished within budget with a right
output, of ops attempted), ``peak_rss_mb`` and ``setup_s``.  Printed above
it with the sample counts, not gated: ``ops_per_s`` (ops completed per
second of their own latency), ``op_p50_ms``, ``op_p90_ms``,
``sweep_p50_s`` and ``failed_frac`` (1 - ``completed_frac``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes every op
once untraced and once traced, prints the per-layer metrics of the traced
round (span times in wall seconds) and ``trace.overhead_frac`` (1 -
untraced / traced time of the ops that finished in both rounds), and
writes the spans as JSON lines.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

BUDGET_CPU_S = {"flat-sweep": 1.15, "nonflat-sweep": 1.15, "certify": 10.0}
ATTEMPTS = {"flat-sweep": 2, "nonflat-sweep": 3, "certify": 1}
# a reference second is the time in which calibration_loop runs
# 1 / CAL_REF_S times; about a wall second on a 2-CPU x86-64 virtual machine
CAL_REF_S = 0.004
SETUP_REPEATS = 9
FLATLAB_MODULES = ("exactnum", "ratfunc", "dynamics", "orbifold", "forms", "atlas", "cli")

# end-to-end metrics in the result object: name -> (unit, better).
END_TO_END = {
    "op_geomean_ms": ("ms", "lower"),
    "completed_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
# printed with the sample counts but not in the result object.  ops_per_s
# jumps by a third on nonflat-sweep when the op that straddles the budget
# finishes or not; op_p90_ms is the budget itself there and spreads by 0.24
# of the median on flat-sweep; op_p50_ms and sweep_p50_s, which only the
# middle op or map moves, spread by up to 0.07 and 0.11 over ten seeds,
# against 0.03 for op_geomean_ms, which every op moves
PRINTED_ONLY = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "sweep_p50_s": "s",
                "failed_frac": "ratio"}


def calibration_loop():
    """Fixed pure-Python work, products of polynomials over F_p, the kind of
    arithmetic flatlab spends its time on.  Takes about CAL_REF_S."""
    a = list(range(1, 60))
    for _ in range(12):
        c = [0] * (2 * len(a))
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                c[i + j] += x * y
        a = [v % 10007 for v in c[: len(a)]]
    return a


def speed_factor():
    """CAL_REF_S over the time calibration_loop takes now: what to multiply
    a wall time measured next by to get reference seconds."""
    t0 = perf_counter()
    calibration_loop()
    return CAL_REF_S / (perf_counter() - t0)


class OverBudget(BaseException):
    """Raised inside an op by the budget timer.  A BaseException, so a
    handler in the program that catches Exception cannot swallow it."""


class Budget:
    """One CPU-time budget per op, enforced with ITIMER_PROF."""

    def __init__(self, seconds, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.armed = False
        self.hit_span = None

    def _fire(self, signum, frame):
        if not self.armed:
            return
        self.armed = False
        self.hit_span = self.tracer.innermost() if self.tracer else None
        raise OverBudget()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._fire)
        return self

    def __exit__(self, *exc):
        self.disarm()
        signal.signal(signal.SIGPROF, self._previous)

    def arm(self):
        self.hit_span = None
        self.armed = True
        signal.setitimer(signal.ITIMER_PROF, self.seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_PROF, 0)


def load_flatlab():
    """Import flatlab from the checkout's ``src`` afresh; returns its modules."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "flatlab" or m.startswith("flatlab.")]:
        del sys.modules[name]
    importlib.import_module("flatlab")
    return types.SimpleNamespace(**{name: importlib.import_module(f"flatlab.{name}") for name in FLATLAB_MODULES})


def setup(workload, seed, reference_path, tiny):
    """Import flatlab afresh, build the corpus and load the reference.

    Repeated SETUP_REPEATS times; returns the state of the last repeat and
    the median time in reference seconds.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        speed = speed_factor()
        t0 = perf_counter()
        fl = load_flatlab()
        units, primes = workloads.build(fl, workload, seed, tiny=tiny)
        with open(reference_path) as fh:
            reference = json.load(fh)
        times.append((perf_counter() - t0) * speed)
    return fl, units, primes, reference, statistics.median(times)


class Runner:
    """Runs one workload's ops and checks their outputs."""

    def __init__(self, fl, workload, units, primes, checker):
        self.fl = fl
        self.units = units
        self.ops = workloads.ops_of(units, primes)
        self.op_fn = workloads.certify_op if workload == "certify" else workloads.sweep_op
        self.checker = checker
        self.is_sweep = workload != "certify"
        self.field_misses = 0
        self.problems = []
        self.speeds = []

    def _clear_field_cache(self):
        fc = self.fl.exactnum.field_create
        self.field_misses += fc.cache_info().misses
        fc.cache_clear()

    def _attempt(self, unit, p, budget, tracer):
        """Run the op once under the budget; returns (status, output,
        reference seconds).

        The field cache is cleared before every attempt: each prime's fields
        are its own, so this is what one classify sweep pays per prime.
        """
        if self.is_sweep:
            self._clear_field_cache()
        speed = speed_factor()
        self.speeds.append(speed)
        if tracer is not None:
            tracer.start_op()
        out = None
        status = "ok"
        t0 = perf_counter()
        try:
            budget.arm()
            try:
                out = self.op_fn(self.fl, unit, p)
            finally:
                budget.disarm()
        except OverBudget:
            status = "over_budget"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            status = "raised"
            self.problems.append(f"{unit.label} p={p}: raised {type(exc).__name__}: {exc}")
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
            if status == "over_budget" and budget.hit_span:
                tracer.budget_hits[budget.hit_span] += 1
        return status, out, elapsed * speed

    def first_round(self, budget, tracer=None):
        """Every op once, back to back.

        Returns the records [[unit index, p, best s, first s, status]], in
        reference seconds, and the outputs, which ``check`` takes after the measured window.
        """
        records = []
        outputs = []
        for i, p in self.ops:
            status, out, elapsed = self._attempt(self.units[i], p, budget, tracer)
            records.append([i, p, elapsed, elapsed, status])
            outputs.append(out)
        if self.is_sweep:
            self._clear_field_cache()
        return records, outputs

    def check(self, records, outputs):
        """Check every output; marks wrong records and adds one per wrong label."""
        entries = {}
        for record, out in zip(records, outputs):
            if record[4] != "ok":
                continue
            unit, p = self.units[record[0]], record[1]
            if self.is_sweep:
                entries.setdefault(record[0], []).append(out)
                problem = self.checker.check_sweep(unit, p, out)
            else:
                problem = self.checker.check_certify(unit, p, out)
            if problem:
                record[4] = "wrong"
                self.problems.append(f"{unit.label} p={p}: {problem}")
        if self.is_sweep:
            for i, unit in enumerate(self.units):
                lost = any(r[0] == i and r[4] == "over_budget" for r in records)
                problem = self.checker.check_label(unit, entries.get(i, []), lost)
                if problem:
                    self.problems.append(f"{unit.label}: {problem}")
                    records.append([i, None, 0.0, 0.0, "wrong"])

    def repeat_rounds(self, records, budget, attempts, deadline):
        """Attempt the completed ops ``attempts - 1`` more times, keeping each
        op's best time; returns the number of rounds begun.

        The least of samples spread over the run is steadier than any one
        sample.  A round stops at ``deadline``.
        """
        again = [r for r in records if r[4] == "ok"]
        for rounds in range(1, attempts):
            for r in again:
                if perf_counter() > deadline:
                    return rounds + 1
                status, _, elapsed = self._attempt(self.units[r[0]], r[1], budget, None)
                if status == "ok":
                    r[2] = min(r[2], elapsed)
        return attempts


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summarize(records, budget_s):
    """Counts and end-to-end timings of one run's records.

    An op's latency is its best time, or ``budget_s`` if it ran over budget.
    """
    ops = [r for r in records if r[1] is not None]
    statuses = [r[4] for r in records]
    latency = {id(r): budget_s if r[4] == "over_budget" else r[2] for r in ops}
    latencies = sorted(latency.values())
    done = [r for r in ops if r[4] in ("ok", "wrong")]
    sweeps = {}
    for r in ops:
        sweeps[r[0]] = sweeps.get(r[0], 0.0) + latency[id(r)]
    failed = statuses.count("over_budget") + statuses.count("raised") + statuses.count("wrong")
    return {
        "attempted": len(ops),
        "completed": len(done),
        "over_budget": statuses.count("over_budget"),
        "raised": statuses.count("raised"),
        "wrong": statuses.count("wrong"),
        "op_geomean_ms": 1000 * math.exp(statistics.fmean(math.log(x) for x in latencies)),
        "completed_frac": 1 - failed / len(ops),
        "failed_frac": failed / len(ops),
        "ops_per_s": len(done) / sum(r[2] for r in done) if done else 0.0,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * percentile(latencies, 0.9),
        "sweep_p50_s": statistics.median(sweeps.values()),
        "sweeps": len(sweeps),
    }


def trace_overhead(untraced, traced):
    """1 - untraced / traced first-attempt time of the ops that finished in
    both rounds, which ran the same ops in the same order."""
    both = [(u[3], t[3]) for u, t in zip(untraced, traced) if u[4] == t[4] == "ok"]
    if not both:  # every op ran over budget
        return 0.0
    return 1 - sum(u for u, _ in both) / sum(t for _, t in both)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(workload, seed, seconds, trace, reference_path=HERE / "reference.json", tiny=False, out_dir=None):
    """Run one workload; returns (result object, exit code)."""
    fl, units, primes, reference, setup_s = setup(workload, seed, reference_path, tiny)
    checker = workloads.Checker(fl, reference)
    runner = Runner(fl, workload, units, primes, checker)
    budget_s = BUDGET_CPU_S[workload]
    deadline = perf_counter() + seconds
    with Budget(budget_s) as budget:
        records, outputs = runner.first_round(budget)
        rounds = 1 if trace else runner.repeat_rounds(records, budget, ATTEMPTS[workload], deadline)
    runner.check(records, outputs)
    base = summarize(records, budget_s)
    summary = base
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        runner.field_misses = 0
        tracer.install(fl)
        try:
            with Budget(budget_s, tracer) as budget:
                traced = runner.first_round(budget, tracer)
        finally:
            tracer.restore()
        runner.check(*traced)
        summary = summarize(traced[0], budget_s)
        overhead = trace_overhead(records, traced[0])
        metrics = tracer.layer_metrics(runner.field_misses, overhead)
    else:
        values = dict(base, peak_rss_mb=peak_rss_mb(), setup_s=setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}

    failed = summary["raised"] + summary["wrong"]
    correct = not runner.problems
    print(f"workload {workload}  seed {seed}  trace {trace}  rounds {rounds}  "
          f"budget {budget_s} s cpu per op")
    print(f"  ops attempted {summary['attempted']}  completed {summary['completed']}  "
          f"over budget {summary['over_budget']}  raised {summary['raised']}  wrong {summary['wrong']}")
    print(f"  samples: op latency n={summary['attempted']} (each the best of up to {rounds} attempts), "
          f"sweeps n={summary['sweeps']}, setup n={SETUP_REPEATS}")
    print(f"  reference s per wall s: median {statistics.median(runner.speeds):.4f} "
          f"over {len(runner.speeds)} calibrations")
    if not trace:
        for name, unit in PRINTED_ONLY.items():
            print(f"  {name:40s} {base[name]:>14.6f} {unit} (printed only)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6f} {m['unit']}")
    for problem in runner.problems[:20]:
        print(f"  WRONG {problem}")
    if len(runner.problems) > 20:
        print(f"  ... and {len(runner.problems) - 20} more")
    result = {"correct": correct, "attempted": summary["attempted"], "failed": failed, "metrics": metrics}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{trace}"
        ops = [[units[i].label, p, best, first, status] for i, p, best, first, status in records]
        detail = dict(result, rounds=rounds, summary=summary, untraced=base, problems=runner.problems, ops=ops)
        (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
        if tracer is not None:
            tracer.write_jsonl(out_dir / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return result, 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _, code = run(args.workload, args.seed, args.seconds, args.trace, out_dir=HERE / "out")
    except ImportError as exc:
        print(f"cannot import flatlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
