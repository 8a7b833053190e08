"""rieszfd benchmark: closed loop, one caller, one CLI invocation at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``workloads.WORKLOADS`` or ``all``.  Each invocation runs
``rieszfd.cli.run(argv)`` in a fresh interpreter (``child.py``); this
process waits for it, checks its output (``checks.py``) and starts the next
one.  It starts no threads.  BLAS threading is left as the environment
sets it, and recorded.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``wall_s``: median wall time of ``cli.run`` over the invocations;
* ``setup_s``: median time from starting an interpreter until
  ``import rieszfd.cli`` returns, over ``SETUP_PROBES`` import-only
  interpreters and every invocation;
* ``peak_rss_mb``: median of each invocation's own ``ru_maxrss``.

``fail_frac`` (failed / attempted invocations; an invocation fails on a
non-zero exit code or a failed output check) is printed with them and is
the result's ``failed`` / ``attempted``; it is no result metric, since it
is 0 whenever the code is right.

With ``--trace 1`` invocations alternate untraced and traced
(``tracing.py``); the result holds the per-layer metrics of the traced
ones (medians) and ``trace.overhead``, traced / untraced median ``wall_s``.

The last line of stdout is the JSON result; every invocation and the
environment are also written to ``.perfbench-work/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
from statistics import median as _median
import subprocess
import sys
import time

import checks
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
SETUP_PROBES = 2
MIN_INVOCATIONS = 2
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "cli.rows_out": "count",
    "harness.source.calls": "count",
    "harness.source.busy_s": "s",
    "harness.exact.calls": "count",
    "harness.exact.busy_s": "s",
    "pde.step.calls": "count",
    "pde.step.self_s": "s",
    "pde.step.p50_us": "us",
    "pde.step.p99_us": "us",
    "pde.step.samples": "count",
    "pde.system_bytes": "bytes",
    "pde.assemble_system.calls": "count",
    "pde.assemble_system.self_s": "s",
    "operators.riesz_matrix.calls": "count",
    "operators.riesz_matrix.busy_s": "s",
    "coeffs.kappa_weights.calls": "count",
    "coeffs.kappa_weights.busy_s": "s",
    "harness.convergence_study.busy_s": "s",
    "harness.parallelism": "ratio",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


def invoke(mode: str, cli_argv: list, timeout: float) -> dict:
    """Run ``child.py`` once and return its record plus ``setup_s``; on a
    non-zero exit the record holds ``rc`` and ``stderr`` only."""
    result = os.path.join(WORK, "child-result.json")
    if os.path.exists(result):
        os.remove(result)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), result, mode, *cli_argv],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"rc": "timeout", "stderr": f"killed after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"rc": proc.returncode, "stderr": proc.stderr.decode(errors="replace")[-2000:]}
    with open(result) as handle:
        record = json.load(handle)
    record["setup_s"] = record.pop("setup_end") - started
    return record


def check_output(workload, seed: int, path: str, golden: dict) -> checks.Check:
    entry = golden[workload.name][repr(workload.alpha(seed))]
    if workload.kind == "solve":
        return checks.check_solve(path, workload.alpha(seed), workload.M, workload.N, workload.keep, entry)
    return checks.check_table(path, entry)


def measure(workload, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    """Run ``workload`` repeatedly for about ``seconds`` and summarise it."""
    os.makedirs(WORK, exist_ok=True)
    start = time.monotonic()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - start)

    probes = [invoke("probe", [], remaining()) for _ in range(SETUP_PROBES)]
    env = next((p["env"] for p in probes if "env" in p), None)
    out = os.path.join(WORK, f"{workload.name}.out")
    spans = os.path.join(WORK, f"{workload.name}-spans.json")
    cli_argv = workload.argv(seed, os.path.relpath(out, ROOT))
    invocations = []
    longest = 0.0
    while True:
        traced = trace and len(invocations) % 2 == 1
        began = time.monotonic()
        record = invoke(f"trace={spans}" if traced else "run", cli_argv, remaining())
        record["traced"] = traced
        if record.get("rc") == 0:
            check = check_output(workload, seed, out, golden)
            record.update(ok=check.ok, problems=check.problems, identical=check.identical,
                          out_bytes=check.out_bytes, rows_out=check.rows_out)
            if traced:
                with open(spans) as handle:
                    dumped = json.load(handle)
                record["layers"] = tracing.summarise(dumped["spans"], dumped["counters"])
        else:
            record["ok"] = False
        if os.path.exists(out):
            os.remove(out)
        invocations.append(record)
        longest = max(longest, time.monotonic() - began)
        limit = seconds if len(invocations) >= MIN_INVOCATIONS else HARD_LIMIT_S
        if time.monotonic() - start + longest > limit:
            break
    return {"workload": workload.name, "seed": seed, "alpha": workload.alpha(seed),
            "argv": cli_argv, "env": env, "probes": probes, "invocations": invocations}


def metrics_of(run: dict, trace: bool) -> dict:
    """The result metrics of one run, or {} when nothing was measured."""
    good = [r for r in run["invocations"] if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (trace and not traced):
        return {}
    if trace:
        values = {name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        values["cli.out_bytes"] = _median([r["out_bytes"] for r in traced])
        values["cli.rows_out"] = _median([r["rows_out"] for r in traced])
        values["trace.overhead"] = values["trace.wall_s"] / _median([r["wall_s"] for r in plain])
        units = PER_LAYER_UNITS
    else:
        values = {
            "wall_s": _median([r["wall_s"] for r in plain]),
            "setup_s": _median([r["setup_s"] for r in run["probes"] + run["invocations"] if "setup_s" in r]),
            "peak_rss_mb": _median([r["maxrss_kb"] / 1024 for r in plain]),
        }
        units = END_TO_END_UNITS
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def report(run: dict, trace: bool) -> tuple:
    """Print a run's invocations and metrics; return (metrics, attempted, failed)."""
    name = run["workload"]
    for i, r in enumerate(run["invocations"]):
        status = "ok" if r["ok"] else f"FAILED rc={r.get('rc')} {r.get('problems') or r.get('stderr', '')}"
        print(f"  {name} #{i} {'traced' if r['traced'] else 'untraced'}: "
              f"wall_s={r.get('wall_s', float('nan')):.4f} setup_s={r.get('setup_s', float('nan')):.4f} "
              f"csv_identical={r.get('identical')} {status}")
    attempted = len(run["invocations"])
    failed = sum(not r["ok"] for r in run["invocations"])
    metrics = metrics_of(run, trace)
    for metric, entry in metrics.items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"{name} fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} invocations)")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rieszfd", "cli.py")):
        sys.stderr.write(f"no rieszfd sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined, attempted, failed = {}, 0, 0
    for name in names:
        run = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), golden)
        print(f"{name}: argv {' '.join(run['argv'])}")
        print(f"{name}: env {json.dumps(run['env'], sort_keys=True)}")
        metrics, n, bad = report(run, bool(args.trace))
        run["metrics"] = metrics
        with open(os.path.join(WORK, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
            json.dump(run, handle, indent=1)
        if not metrics:
            sys.stderr.write(f"{name}: no successful invocation to measure\n")
            return 1
        attempted, failed = attempted + n, failed + bad
        combined.update(metrics if len(names) == 1 else {f"{name}:{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
