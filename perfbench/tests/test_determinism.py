"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/tests -q

They pin the seed contract (a seed changes inputs, never the op list),
the exact repetition of the traced run's count metrics, the span
arithmetic behind the layer table, and the refusal to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench_run  # noqa: E402
import serve_mixed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

#: the traced-run counts that must repeat exactly on one seed
COUNTS = sorted(bench_run.COUNT_METRICS)


def _same_inputs(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _same_inputs(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(
            _same_inputs(x, y) for x, y in zip(a, b))
    return np.array_equal(np.asarray(a), np.asarray(b))


def _op_ids(wl) -> list:
    return [getattr(op, "label", op) for op in wl.ops]


@pytest.mark.parametrize("name", sorted(workloads.SEQUENTIAL))
def test_second_seed_changes_inputs_not_op_list(name):
    cls = workloads.SEQUENTIAL[name]
    a, b = cls(), cls()
    assert _op_ids(a) == _op_ids(b)
    assert [getattr(op, "source", op) for op in a.ops] == \
        [getattr(op, "source", op) for op in b.ops]
    assert sorted(a.order(1, 0)) == sorted(b.order(2, 0)) == \
        list(range(len(a.ops)))
    changed = [not _same_inputs(a.inputs(1, 0, i), b.inputs(2, 0, i))
               for i in range(len(a.ops))]
    # a few tiny inputs (e.g. sparse `||` masks at n=64) can repeat by
    # chance; the pass as a whole must not
    assert sum(changed) >= 0.9 * len(changed), \
        f"{name}: a second seed left most inputs unchanged"
    assert all(_same_inputs(a.inputs(1, 0, i), b.inputs(1, 0, i))
               for i in range(len(a.ops)))


def test_serve_second_seed_changes_schedule_not_mix():
    programs = serve_mixed.program_set()
    assert [c.source for c in programs] == \
        [c.source for c in serve_mixed.program_set()]
    s1 = serve_mixed.schedule(1, 4.0, programs)
    s2 = serve_mixed.schedule(2, 4.0, programs)
    assert sorted(e.rank for e in s1) == sorted(e.rank for e in s2)
    assert [e.rank for e in s1] != [e.rank for e in s2]
    assert [e.due_off for e in s1] != [e.due_off for e in s2]
    again = serve_mixed.schedule(1, 4.0, programs)
    assert [(e.rank, e.due_off) for e in s1] == \
        [(e.rank, e.due_off) for e in again]
    assert all(_same_inputs(x.inputs, y.inputs) for x, y in zip(s1, again))


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    return {k: v["value"] for k, v in res["metrics"].items()}


@pytest.mark.parametrize("workload", ["table2-grid", "compile-corpus",
                                      "apps"])
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload, 3), _traced(workload, 3)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["modeled_device_ms"] > 0
    assert first["gpu.memory.global_transactions"] > 0
    assert first["codegen.kernels"] > 0


def test_self_times_add_up_to_the_op_wall():
    t = Tracer()
    # op root 0..10 with a child 1..6 that has a grandchild 2..3, and a
    # thread-level span (no parent) 7..9 hung under the root
    t.spans = [[1, None, "a", "bench.op", 0.0, 10.0],
               [2, 1, "a", "acc.run", 1.0, 6.0],
               [3, 2, "a", "gpu.executor.launch", 2.0, 3.0],
               [4, None, "a", "serve.dispatch", 7.0, 9.0]]
    rec = t.self_times()["a"]
    assert rec["covered_ok"]
    assert rec["self"] == {"bench.op": 3.0, "acc.run": 4.0,
                           "gpu.executor.launch": 1.0,
                           "serve.dispatch": 2.0}
    assert sum(rec["self"].values()) == rec["wall"] == 10.0
    # overlapping siblings are flagged: their self times would not add up
    t.spans.append([5, 1, "a", "serve.queue", 5.0, 6.5])
    assert not t.self_times()["a"]["covered_ok"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "apps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
