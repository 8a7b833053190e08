"""Regenerate ``golden.json`` from the code under ``src/``.

Usage (from the repository root): ``python3 perfbench/make_golden.py``

Runs every workload once per alpha it can take and stores, per output,
its sha256, byte count and row count; for ``solve`` outputs also the
largest error and the sampled ``u_numeric`` values that ``checks.py``
compares against.  Only regenerate it from a commit whose outputs are
known to be right.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")


def golden_entry(workload, seed_alpha, path: str) -> dict:
    import checks

    if workload.kind == "solve":
        check, samples = checks.read_solve(path, seed_alpha, workload.M, workload.N, workload.keep)
        if not check.ok:
            raise SystemExit(f"{workload.name} alpha={seed_alpha}: {check.problems}")
        return {
            "sha256": checks.sha256_of(path),
            "bytes": check.out_bytes,
            "rows": check.rows_out,
            "max_error": check.max_error,
            "u_samples": samples,
        }
    with open(path, "rb") as handle:
        data = handle.read()
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "rows": data.count(b"\n") - 1,
    }


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rieszfd.cli
    from workloads import REFERENCE_ALPHAS, WORKLOADS

    work = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "golden.csv")
    golden: dict = {}
    for workload in WORKLOADS.values():
        alphas = REFERENCE_ALPHAS if workload.kind == "solve" else [None]
        entries = golden.setdefault(workload.name, {})
        for alpha in alphas:
            seed = next(s for s in range(1000) if workload.alpha(s) == alpha)
            if rieszfd.cli.run(workload.argv(seed, out)) != 0:
                raise SystemExit(f"{workload.name} alpha={alpha} failed")
            entries[repr(alpha)] = golden_entry(workload, alpha, out)
            os.remove(out)
            print(workload.name, alpha, "done", flush=True)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
