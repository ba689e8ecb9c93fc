"""Record reference.json: the per-op results the benchmark checks against.

    python3 perfbench/record_reference.py

For every sweep map (named maps and seeded-map templates) and prime in
5..50 it stores the per-prime classify result, and for every certify member
and prime the certificate's map, lambda and whether the weight-(p-1) power
is invariant.  An op that does not finish within REFERENCE_BUDGET_CPU_S of
CPU time is stored as null; the benchmark then checks that op's output only
against its family.  Run it against a version of flatlab whose outputs are
trusted; the committed file was recorded from the seed version.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

REFERENCE_BUDGET_CPU_S = 20.0


def record():
    fl = run.load_flatlab()
    primes = workloads.primes_in(fl, *workloads.SWEEP_PRIMES)
    sweeps = {}
    certify_units, _ = workloads.build(fl, "certify", 0)
    with run.Budget(REFERENCE_BUDGET_CPU_S) as budget:
        for unit in workloads.reference_maps(fl):
            fl.exactnum.field_create.cache_clear()
            rows = {}
            for p in primes:
                rows[str(p)] = _timed(budget, lambda: workloads.sweep_record(workloads.sweep_op(fl, unit, p)))
            sweeps[unit.expr] = rows
            print(unit.expr, sum(v is None for v in rows.values()), "over budget", file=sys.stderr)
        certify = {}
        for unit in sorted(certify_units, key=lambda u: u.label):
            rows = {}
            for p in primes:
                if unit.valid_at(p):
                    rows[str(p)] = _timed(
                        budget, lambda: workloads.certify_record(fl, workloads.certify_op(fl, unit, p))
                    )
            certify[unit.label] = rows
            print(unit.label, sum(v is None for v in rows.values()), "over budget", file=sys.stderr)
    return {"budget_cpu_s": REFERENCE_BUDGET_CPU_S, "sweeps": sweeps, "certify": certify}


def _timed(budget, fn):
    try:
        budget.arm()
        try:
            return fn()
        finally:
            budget.disarm()
    except run.OverBudget:
        return None


def main():
    data = record()
    (run.HERE / "reference.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
