"""Output checks for benchmark invocations, in pure Python.

``solve`` outputs (``t,x,u_numeric,u_exact,error``) must lie on the
expected grid, carry the closed-form exact solution, and have an error
column equal to ``|u_numeric - u_exact|`` recomputed here.  The largest
recomputed error must stay under the seed code's value times
``ERROR_BOUND_FACTOR``, and ``u_numeric`` must match the stored golden
samples within ``U_ATOL``, a float64-roundoff tolerance (the solution is
at most 2**-8, the discretisation errors are 1e-7 and above).

``table`` outputs must have every row's ``pass`` column equal ``true``.

Byte identity with the golden CSV is reported as ``identical`` and never
fails a check: a change may legitimately move the last digits.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

SOLVE_HEADER = b"t,x,u_numeric,u_exact,error\n"
TABLE_HEADER = "alpha,resolution,error,order,ref_error,ref_order,pass"
ERROR_BOUND_FACTOR = 1.001
U_ATOL = 1e-11
GRID_ATOL = 1e-12
# Stored u_numeric samples: every LEVEL_STRIDE-th time level, every
# NODE_STRIDE-th node.
LEVEL_STRIDE = 100
NODE_STRIDE = 10


@dataclass
class Check:
    problems: list = field(default_factory=list)
    out_bytes: int = 0
    rows_out: int = 0
    identical: bool | None = None
    max_error: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def fail(self, message: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(message)


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_solve(path: str, alpha: float, M: int, N: int, keep: str):
    """Stream a solve CSV, checking it row by row.  Returns the ``Check``
    (without golden comparisons) and the sampled u values.

    Within a time level every row must repeat the level's ``t`` field, and
    every level must repeat the first level's ``x`` fields, byte for byte;
    those fields are parsed and checked against the grid once.
    """
    check = Check(out_bytes=os.path.getsize(path))
    samples = []
    levels = list(range(N + 1)) if keep == "all" else [N]
    x_fields, bumps = [], []
    level, node, row = -1, M, 0
    level_t, ct, sample_level, worst = None, 0.0, False, 0.0
    with open(path, "rb") as handle:
        header = handle.readline()
        if header != SOLVE_HEADER:
            check.fail(f"header {header!r}")
            return check, samples
        for row, line in enumerate(handle):
            try:
                t_field, x_field, u, u_exact, error = line.split(b",")
                u, u_exact, error = float(u), float(u_exact), float(error)
                if node == M:
                    node, level = 0, level + 1
                    if level >= len(levels):
                        check.fail(f"row {row}: more than {len(levels)} time levels")
                        break
                    level_t, t = t_field, float(t_field)
                    if abs(t - levels[level] / N) > GRID_ATOL:
                        check.fail(f"row {row}: t = {t} is not level {levels[level]}")
                    ct = math.cos(alpha * t * t)
                    sample_level = level % LEVEL_STRIDE == 0
                else:
                    node += 1
                    if t_field != level_t:
                        check.fail(f"row {row}: t field {t_field!r} != {level_t!r}")
                if level == 0:
                    x = float(x_field)
                    if abs(x - node / M) > GRID_ATOL:
                        check.fail(f"row {row}: x = {x} is not node {node}")
                    x_fields.append(x_field)
                    bumps.append(x**4 * (1.0 - x) ** 4)
                elif x_field != x_fields[node]:
                    check.fail(f"row {row}: x field {x_field!r} != {x_fields[node]!r}")
                want = ct * bumps[node]
                if not abs(u_exact - want) <= 1e-12 * abs(want):
                    check.fail(f"row {row}: u_exact {u_exact} != {want}")
                diff = abs(u - u_exact)
                if not abs(error - diff) <= 1e-12 * diff:
                    check.fail(f"row {row}: error column {error} != |u - u_exact| = {diff}")
                if (node == 0 or node == M) and u != 0.0:
                    check.fail(f"row {row}: boundary value {u} != 0")
                if diff > worst:
                    worst = diff
            except (ValueError, IndexError):
                check.fail(f"row {row}: unparsable {line[:80]!r}")
                continue
            if sample_level and node % NODE_STRIDE == 0:
                samples.append(u)
    check.rows_out = (level * (M + 1) + node + 1) if level >= 0 else 0
    if check.rows_out != len(levels) * (M + 1):
        check.fail(f"{check.rows_out} rows, expected {len(levels) * (M + 1)}")
    check.max_error = worst
    return check, samples


def check_solve(path: str, alpha: float, M: int, N: int, keep: str, golden: dict) -> Check:
    check, samples = read_solve(path, alpha, M, N, keep)
    check.identical = sha256_of(path) == golden["sha256"]
    if check.max_error is not None and not check.max_error <= golden["max_error"] * ERROR_BOUND_FACTOR:
        check.fail(f"max error {check.max_error} above bound {golden['max_error'] * ERROR_BOUND_FACTOR}")
    reference = golden["u_samples"]
    if len(samples) != len(reference):
        check.fail(f"{len(samples)} u samples, golden has {len(reference)}")
    for i, (got, want) in enumerate(zip(samples, reference)):
        if not abs(got - want) <= U_ATOL:
            check.fail(f"u sample {i}: {got} differs from golden {want}")
    return check


def check_table(path: str, golden: dict) -> Check:
    check = Check()
    with open(path, "rb") as handle:
        data = handle.read()
    check.out_bytes = len(data)
    check.identical = hashlib.sha256(data).hexdigest() == golden["sha256"]
    lines = data.decode("utf-8", "replace").splitlines()
    if not lines or lines[0] != TABLE_HEADER:
        check.fail(f"header {lines[:1]!r}")
        return check
    rows = lines[1:]
    check.rows_out = len(rows)
    if len(rows) != golden["rows"]:
        check.fail(f"{len(rows)} rows, expected {golden['rows']}")
    for i, row in enumerate(rows):
        if row.rsplit(",", 1)[-1] != "true":
            check.fail(f"row {i} does not pass: {row}")
    return check
