"""Smoke test of the benchmark on a tiny corpus; runs in a few seconds.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    result, code = run.run(workload, seed=1, seconds=0.3, trace=trace, tiny=True)
    out = capsys.readouterr().out
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = [(m["name"], m["unit"]) for m in declared]
    if not trace:
        printed += list(run.PRINTED_ONLY.items())
    for name, unit in printed:
        assert re.search(rf"^ +{re.escape(name)} +\S+ {re.escape(unit)}\b", out, re.M), name
    assert re.search(r"samples: op latency n=\d+", out)
    assert json.loads(out.strip().splitlines()[-1]) == result


def test_tampered_reference_trips_the_gate(tmp_path, capsys):
    ref = json.loads((HERE / "reference.json").read_text())
    ref["sweeps"]["t^2"]["5"]["chi"] = "1"
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    result, code = run.run("flat-sweep", seed=1, seconds=0.3, trace=0, reference_path=path, tiny=True)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert "WRONG t^2 p=5: differs from reference" in capsys.readouterr().out


def test_over_budget_ops_are_counted_not_dropped(monkeypatch, capsys):
    monkeypatch.setitem(run.BUDGET_CPU_S, "nonflat-sweep", 0.002)
    result, code = run.run("nonflat-sweep", seed=1, seconds=0.3, trace=1, tiny=True)
    assert code == 0 and result["failed"] == 0
    hits = sum(m["value"] for name, m in result["metrics"].items() if name.endswith(".budget_hits"))
    assert hits > 0
    assert result["attempted"] % 12 == 0  # 3 maps x 4 primes per pass, none dropped


def test_seed_fixes_the_seeded_maps():
    fl = run.load_flatlab()
    exprs = {seed: sorted(u.expr for u in workloads.build(fl, "nonflat-sweep", seed)[0]) for seed in (1, 1, 2)}
    again = sorted(u.expr for u in workloads.build(fl, "nonflat-sweep", 1)[0])
    assert exprs[1] == again and exprs[1] != exprs[2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
