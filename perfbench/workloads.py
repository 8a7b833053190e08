"""Workload definitions for the rieszfd benchmark.

Each workload is one ``rieszfd`` command line.  The benchmark seed only
chooses alpha for the ``solve-*`` workloads, from the reference alphas of
tables 2 and 3; the work done (matrix sizes, step counts, rows written)
does not depend on alpha.  The table workloads always use their fixed
reference alphas, so the seed changes nothing in them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Reference alphas shared by tables 2 and 3 (rieszfd.harness.TABLE2_ALPHAS).
REFERENCE_ALPHAS = (1.2, 1.4, 1.6, 1.8)


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape.

    ``kind`` is ``"solve"`` (CSV of t,x,u_numeric,u_exact,error) or
    ``"table"`` (convergence CSV whose rows must all pass).
    """

    name: str
    kind: str
    why: str
    M: int = 0
    N: int = 0
    keep: str = ""
    table: str = ""

    def alpha(self, seed: int) -> float | None:
        if self.kind != "solve":
            return None
        return random.Random(seed).choice(REFERENCE_ALPHAS)

    def argv(self, seed: int, out: str) -> list[str]:
        if self.kind == "solve":
            return [
                "solve", "--alpha", repr(self.alpha(seed)),
                "--M", str(self.M), "--N", str(self.N),
                "--keep", self.keep, "--out", out,
            ]
        return ["convergence", "--table", self.table, "--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-all",
            "solve",
            "writes 1,002,001 rows at 17 digits; the CLI writer dominates, so it shows "
            "writer and streaming changes and barely exercises assembly",
            M=1000, N=1000, keep="all",
        ),
        Workload(
            "table3",
            "table",
            "40,000 small steps over 20 cells on the thread pool; per-step overhead and "
            "the source callback dominate, the writer and large matrices are bypassed",
            table="3",
        ),
        Workload(
            "table2",
            "table",
            "20 dense assemblies plus LU at M=1000 but only 620 steps; shows assembly, "
            "factorization and thread-pool changes, bypasses the writer",
            table="2",
        ),
        Workload(
            "solve-large-m",
            "solve",
            "M=3000: each step is a bandwidth-bound dense matvec plus triangular solves "
            "over three 72 MB matrices; shows dropping B or a Toeplitz path in time and RSS",
            M=3000, N=300, keep="final",
        ),
    )
}
