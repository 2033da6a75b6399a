"""Tests of the benchmark itself, in quick mode (a few seconds per run).

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
from workloads import WORKLOADS, planar_sweep  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload, trace, seed=1, cwd=ROOT, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_workloads():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_result(workload):
    res = result(bench(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counters_repeat_for_a_seed(workload):
    first, second = (result(bench(workload, 1, seed=3)) for _ in range(2))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    for name, metric in first["metrics"].items():
        if metric["unit"] != "s":
            assert metric["value"] == second["metrics"][name]["value"], name
    selfs = [v["value"] for k, v in first["metrics"].items() if k.endswith("_s")]
    assert min(selfs) >= 0.0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("planar-sweep", 0, cwd=tmp_path, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_oracles_catch_a_wrong_energy(tmp_path):
    from affbody import cli

    (call,) = planar_sweep(1, quick=True)
    with open(tmp_path / "planar.json", "w", encoding="utf-8") as fh:
        json.dump(call.config, fh)
    assert cli.main(call.argv(str(tmp_path))) == 0
    table = (tmp_path / "planar.txt").read_text()
    assert oracles.stored_mismatches(table, table, set()) == set()
    keys = oracles.channel_keys(call.config)
    assert oracles.dense_mismatches("run", call.config, table, 1, set()) == set()

    rows = table.splitlines()
    tok = rows[1].split()
    tok[4] = f"{float(tok[4]) * (1 + 1e-6):.14e}"
    wrong = "\n".join([rows[0], " ".join(tok), *rows[2:]]) + "\n"
    assert oracles.stored_mismatches(wrong, table, set()) == {f"{tok[1]},{tok[2]}"}
    assert oracles.dense_mismatches("run", call.config, wrong, 1, set(), len(keys)) == {
        f"{tok[1]},{tok[2]}"
    }


def test_order_rows_get_the_tolerance_of_their_conditioning():
    entry = next(e for e in oracles.load_stored("study-verify") if e["call"] == "conv")
    table = entry["table"]
    rows = table.splitlines()

    def edit(record, column, value):
        i = next(i for i, r in enumerate(rows) if r.split()[3] == record and "nan" not in r.split()[5:])
        tok = rows[i].split()
        tok[column] = value(tok[column])
        key = f"{tok[1]},{tok[2]}"
        return "\n".join([*rows[:i], " ".join(tok), *rows[i + 1:]]) + "\n", key

    nudged, _ = edit("order", 5, lambda v: f"{float(v) * (1 + 1e-8):.14e}")
    flipped, _ = edit("order", 5, lambda v: "nan")
    assert oracles.stored_mismatches(nudged, table, set()) == set()
    assert oracles.stored_mismatches(flipped, table, set()) == set()
    wrong_order, key = edit("order", 5, lambda v: f"{float(v) * (1 + 1e-4):.14e}")
    assert oracles.stored_mismatches(wrong_order, table, set()) == {key}
    wrong_limit, key = edit("limit", 5, lambda v: f"{float(v) * (1 + 1e-8):.14e}")
    assert oracles.stored_mismatches(wrong_limit, table, set()) == {key}
    wrong_energy, key = edit("level-2", 5, lambda v: f"{float(v) * (1 + 1e-8):.14e}")
    assert oracles.stored_mismatches(wrong_energy, table, set()) == {key}
