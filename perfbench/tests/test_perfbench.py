"""Tests of the benchmark's own machinery, at tiny sizes."""

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import make_golden  # noqa: E402
import rieszfd.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = Workload("tiny", "solve", "test only", M=20, N=200, keep="all")


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "rieszfd" or name.startswith("rieszfd.")
        for attr, value in vars(module).items()
    }


def _traced(call):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.restore()
    return tracer


def _tiny_output(tmp_path, seed=0):
    out = str(tmp_path / "tiny.csv")
    assert rieszfd.cli.run(TINY.argv(seed, out)) == 0
    return out, {repr(TINY.alpha(seed)): make_golden.golden_entry(TINY, TINY.alpha(seed), out)}


def test_restore_puts_back_every_patched_attribute():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import rieszfd.harness
        import rieszfd.pde

        patched = {key for key, value in _bindings().items() if before.get(key) is not value}
        for key in [("rieszfd.pde", "step"), ("rieszfd.harness", "step"), ("rieszfd.cli", "_solve"),
                    ("rieszfd.pde", "riesz_matrix"), ("rieszfd.harness", "example42_problem"),
                    ("rieszfd.harness", "ThreadPoolExecutor"), ("rieszfd.harness", "_solver_error")]:
            assert key in patched
        assert rieszfd.pde.step is rieszfd.harness.step
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_sum_to_no_more_than_traced_wall(tmp_path):
    out = str(tmp_path / "tiny.csv")
    tracer = _traced(lambda: rieszfd.cli.run(TINY.argv(0, out)))
    spans = tracer.spans
    (root,) = [s for s in spans if s[tracing.NAME] == "cli.run"]
    wall = root[tracing.END] - root[tracing.START]
    selfs = tracing.self_times(spans)
    assert all(value >= 0 for value in selfs.values())
    assert sum(selfs.values()) <= wall
    metrics = tracing.summarise(spans, tracer.counters)
    assert metrics["pde.step.calls"] == metrics["harness.source.calls"] == TINY.N
    assert metrics["harness.exact.calls"] == TINY.N + 1
    assert metrics["pde.system_bytes"] >= 3 * (TINY.M - 1) ** 2 * 8
    assert metrics["trace.wall_s"] == pytest.approx(wall)


def test_worker_thread_spans_nest_under_their_cell():
    import rieszfd.harness

    tracer = _traced(
        lambda: rieszfd.harness.convergence_study("spatial_table3", alphas=[1.5], resolutions=[1 / 10, 1 / 20])
    )
    spans = {s[tracing.ID]: s for s in tracer.spans}
    (study,) = [s for s in spans.values() if s[tracing.NAME] == "harness.convergence_study"]
    cells = [s for s in spans.values() if s[tracing.NAME] == "harness.cell"]
    assert len(cells) == 2
    for cell in cells:
        assert cell[tracing.PARENT] == study[tracing.ID]
        assert cell[tracing.THREAD] != threading.get_ident()
    steps = [s for s in spans.values() if s[tracing.NAME] == "pde.step"]
    assert len(steps) == 2 * 2000
    for step in steps:
        cell = spans[step[tracing.PARENT]]
        assert cell[tracing.NAME] == "harness.cell"
        assert cell[tracing.THREAD] == step[tracing.THREAD]
        assert cell[tracing.START] <= step[tracing.START] <= step[tracing.END] <= cell[tracing.END]
    selfs = tracing.self_times(tracer.spans)
    wall = study[tracing.END] - study[tracing.START]
    for thread in {s[tracing.THREAD] for s in spans.values()}:
        assert sum(selfs[i] for i, s in spans.items() if s[tracing.THREAD] == thread) <= wall


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [(1, None, "a", 0, 0.0, 10.0), (2, 1, "b", 1, 1.0, 5.0), (3, 1, "b", 2, 3.0, 7.0)]
    assert tracing.self_times(spans)[1] == pytest.approx(4.0)


def test_check_accepts_roundoff_and_rejects_corruption(tmp_path):
    out, golden = _tiny_output(tmp_path)
    entry = golden[repr(TINY.alpha(0))]
    args = (out, TINY.alpha(0), TINY.M, TINY.N, TINY.keep)
    assert checks.check_solve(*args, entry).ok
    assert checks.check_solve(*args, entry).identical

    nudged = dict(entry, u_samples=[u + 1e-14 for u in entry["u_samples"]], sha256="0")
    check = checks.check_solve(*args, nudged)
    assert check.ok and not check.identical

    with open(out) as handle:
        lines = handle.read().splitlines(keepends=True)
    row = 1 + (TINY.M + 1) * 100 + 10  # sampled interior node at level 100
    t, x, u, exact, error = lines[row].split(",")
    lines[row] = ",".join([t, x, repr(float(u) + 1e-6), exact, error])
    with open(out, "w") as handle:
        handle.writelines(lines)
    check = checks.check_solve(*args, entry)
    assert not check.ok
    assert any("error column" in p for p in check.problems)
    assert any("golden" in p for p in check.problems)


def test_corrupted_output_counts_toward_fail_frac(tmp_path, monkeypatch):
    _, golden = _tiny_output(tmp_path)
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    real_check = run.check_output
    corrupted = []

    def corrupt_first(workload, seed, path, golden):
        if not corrupted:
            with open(path, "r+b") as handle:
                handle.seek(-2, os.SEEK_END)  # last row's error column, "0\n"
                handle.write(b"7\n")
            corrupted.append(path)
        return real_check(workload, seed, path, golden)

    monkeypatch.setattr(run, "check_output", corrupt_first)
    result = run.measure(TINY, 0, 0.0, False, {"tiny": golden})
    metrics, attempted, failed = run.report(result, False)
    assert (attempted, failed) == (2, 1)
    assert metrics["wall_s"]["value"] > 0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table3", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
