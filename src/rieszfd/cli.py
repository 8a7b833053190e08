"""Command-line interface.

Subcommands: ``coeffs`` (weight tables), ``deriv`` (point Riesz derivative
of the built-in benchmark function), ``solve`` (Crank-Nicolson solver),
``spectrum`` (symbol samples and eigenvalue extremes), ``convergence``
(reference-table studies), and ``surface`` (space-time error surface).

Exit codes: 0 on success, 1 on a numerical-domain error (an unwritable
output file, a closed stdout or stdout pipe, or a refused allocation
included), 2 on a usage error.  Diagnostics go to stderr; data goes to the output path or
stdout.  Numeric output uses 17 significant digits and LF line endings so
repeated runs are byte-identical.

``solve --keep all`` and ``surface`` stream their CSV as the stepping
core produces the levels: the levels' values are staged level by level,
as many whole levels as fit in one write of ``_g17.BLOCK_ROWS`` rows (or
one longer level), and each staging is formatted and written when the
next level does not fit, so their memory is O(M) whatever N is: neither
the (N+1) x (M+1) float array nor a string per cell exists.  Both still
refuse, before assembly, a size whose (N+1) x (M+1) array would exceed
physical memory.  An ``--out`` regular file is replaced only when the
run succeeds, so a failed run leaves no partial file (see ``_open_out``).
Their value cells, and the CSVs of ``coeffs`` and ``spectrum --out``, are
formatted by the vectorized ``_g17`` module, whose bytes equal
``"%.17g" % v``: a value whose digits its fast path cannot settle goes
through ``"%.17g" % v`` itself.  Only this module writes CSV and imports
``_g17``; the numerical modules format nothing.  JSON output never
carries NaN or infinity: a non-finite value is a numerical-domain error.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict, astuple

import numpy as np

from . import _g17
from . import coeffs as _coeffs
from . import harness as _harness
from .errors import NumericsError, SizeLimitError
from .operators import (
    GridSpec1D,
    generating_symbol,
    point_riesz_derivative,
    spectral_bounds,
)
from .pde import AdvectionDiffusionProblem, _levels
from .pde import solve as _solve

__all__ = ["run", "main"]

_FAMILIES = ("kappa", "gl", "lubich", "wsgd1", "wsgd2")
_TABLE_KINDS = {"1": "operator_table1", "2": "temporal_table2", "3": "spatial_table3"}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@contextmanager
def _open_out(path: str | None):
    """Yield stdout, flushed at the end, or a handle for LF-ended text
    that goes to ``path``; an OSError on either becomes a NumericsError,
    and so does a closed stdout (``sys.stdout`` is None when file
    descriptor 1 was).

    A regular file, or one that does not exist yet, is written whole or
    not at all: the text goes to a temporary next to it, which replaces
    it only when the block ends without an error (through a symlink, the
    link's target is replaced and the link kept).  Anything else, such as
    a device, a FIFO or ``/dev/stdout``, is written in place."""
    if path is None and sys.stdout is None:
        raise NumericsError("cannot write stdout: it is closed")
    try:
        if path is None:
            yield sys.stdout
            sys.stdout.flush()
        elif (replaceable := _replaceable(path)) is None:
            with open(path, "w", newline="\n") as handle:
                yield handle
        else:
            with _replacing(*replaceable) as handle:
                yield handle
    except OSError as exc:
        if path is None and isinstance(exc, BrokenPipeError):
            # the reader has gone: what is still buffered goes to devnull at exit
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        target = "stdout" if path is None else f"output file {path!r}"
        # strerror, not the OSError itself, which may name the temporary
        raise NumericsError(f"cannot write {target}: {exc.strerror or exc}") from exc


def _replaceable(path: str) -> tuple[str, int | None] | None:
    """``(file, mode)`` when ``path`` or the file it links to is a regular
    file with permission bits ``mode``, or does not exist (mode None), and
    is not this process's stdout or stderr; None otherwise.  Decided by
    ``stat`` alone, so a FIFO is never opened here."""
    try:
        status = os.stat(path)
    except FileNotFoundError:
        return os.path.realpath(path), None
    if not stat.S_ISREG(status.st_mode):
        return None
    for fd in (1, 2):  # e.g. --out /dev/stdout with stdout redirected to a file
        try:
            if os.path.samestat(status, os.fstat(fd)):
                return None
        except OSError:  # a closed descriptor
            pass
    return os.path.realpath(path), stat.S_IMODE(status.st_mode)


@contextmanager
def _replacing(target: str, mode: int | None):
    """Yield a handle on a new temporary next to ``target`` and move it
    over ``target`` once the block ends; on any error remove it instead.
    The temporary gets the permissions ``open(target, "w")`` would leave:
    ``mode`` for an existing file, the umask's default for a new one."""
    directory, name = os.path.split(target)
    # os.urandom, not the secrets module, which would load OpenSSL (3.7 MB)
    temporary = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    handle = open(temporary, "x", newline="\n")
    try:
        with handle:
            if mode is not None:
                os.chmod(temporary, mode)
            yield handle
        os.replace(temporary, target)
    except BaseException:
        with suppress(OSError):
            os.remove(temporary)
        raise


def _write_json(payload, path: str | None) -> None:
    import json  # here, not at module level: the CSV commands never load it

    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericsError(f"non-finite value in JSON output: {exc}") from exc
    with _open_out(path) as out:
        out.write(text)


def _write_levels(out, header: list[str], x: np.ndarray, tau: float, blocks, columns) -> None:
    """Write time levels as long-format CSV: a row ``t,x,*columns(x, t, u)``
    per node and level.  ``blocks`` yields ``(k, levels)`` in order of k,
    row i of ``levels`` holding the values of level k + i at the nodes
    ``x``, boundaries included; ``columns`` returns one array per column
    of ``header`` after ``t,x``, given ``x``, the level's time ``tau * k``
    and its values, and is called once per level.  The ``x`` cells are
    formatted once and the ``t`` cells once per level.

    The columns are copied level by level into one value staging of
    ``max(1, _g17.BLOCK_ROWS // len(x))`` levels and ``len(header) - 2``
    columns, allocated up front, which goes out in one ``_g17.write_rows``
    call when the next level does not fit (and at the end).  So each write
    holds ``_g17.BLOCK_ROWS // len(x)`` whole levels (the last write may
    hold fewer), or, for levels longer than a block, each level goes out
    in writes of ``_g17.BLOCK_ROWS`` rows whose last is short.  The
    staging holds at most ``max(_g17.BLOCK_ROWS, len(x))`` rows whatever
    the march blocks are, and the writer copies the ``t`` and ``x`` cells
    of each row straight into its buffer, so memory stays O(M) whatever
    the number of levels."""
    out.write(",".join(header) + "\n")
    xs = _g17.padded([_fmt(v) + "," for v in x.tolist()])
    staging = np.empty((max(1, _g17.BLOCK_ROWS // len(x)), len(x), len(header) - 2))
    count = 0  # levels staged

    def flush(end: int) -> None:  # the staged levels end before level ``end``
        ts = _g17.padded([_fmt(tau * j) + "," for j in range(end - count, end)])
        _g17.write_rows(out, staging[:count].reshape(-1, staging.shape[-1]), ts, xs)

    for k, block in blocks:
        for j, u in enumerate(block, k):
            row = columns(x, tau * j, u)
            if count == len(staging):
                flush(j)
                count = 0
            for c, column in enumerate(row):
                staging[count, :, c] = column
            count += 1
    if count:
        flush(j + 1)


def _float_list(text: str) -> list[float]:
    """A non-empty comma-separated list of floats; empty items are skipped."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszfd",
        description="Riesz fractional derivative discretizations and solver",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("coeffs", help="emit a weight coefficient table")
    p.add_argument("--family", choices=_FAMILIES, default="kappa")
    p.add_argument("--p", type=int, default=2, help="approximation order")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--count", type=int, default=256)
    p.add_argument("--method", choices=("recursion", "convolution", "fft"), default="recursion")
    p.add_argument("--samples", type=int, default=None, help="fft sample count")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("deriv", help="point Riesz derivative of x^2(1-x)^2")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--M", type=int, default=100)
    p.add_argument("--j", type=int, default=None, help="interior node index (default M//2)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("solve", help="Crank-Nicolson advection-diffusion solve")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--problem", choices=("example42", "zero"), default="example42")
    p.add_argument("--keep", choices=("final", "all"), default="final")
    p.add_argument("--out", default=None)

    p = sub.add_parser("spectrum", help="generating-symbol samples and eigenvalue extremes")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--M", type=int, default=64)
    p.add_argument("--symbol-samples", type=_positive_int, default=1024)
    p.add_argument("--out", default=None, help="CSV path for symbol samples")

    p = sub.add_parser("convergence", help="reproduce a reference convergence table")
    p.add_argument("--table", choices=("1", "2", "3"), required=True)
    p.add_argument("--alphas", type=_float_list, help="comma-separated list (default: table values)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("surface", help="space-time error surface of the benchmark")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", default=None)
    return parser


def _cmd_coeffs(args) -> None:
    if args.family == "kappa":
        table = _coeffs.kappa_weights(
            args.p, args.alpha, args.count, method=args.method, samples=args.samples
        )
    elif args.family == "gl":
        table = _coeffs.gl_weights(args.alpha, args.count)
    elif args.family == "lubich":
        table = _coeffs.lubich_weights(args.p, args.alpha, args.count)
    else:
        table = _coeffs.wsgd_weights(int(args.family[-1]), args.alpha, args.count)
    if args.format == "json":
        payload = {
            "family": table.family.value,
            "p": table.order_p,
            "alpha": table.alpha,
            "values": [float(v) for v in table.values],
        }
        _write_json(payload, args.out)
    else:
        # "%.17g" of a float index below 10**17 is "%d" of the index
        ell = np.arange(len(table.values), dtype=np.float64)
        with _open_out(args.out) as out:
            out.write("ell,value\n")
            _g17.write_rows(out, np.column_stack([ell, table.values]))


def _cmd_deriv(args) -> None:
    grid = GridSpec1D(0.0, 1.0, args.M)
    x = grid.nodes()
    j = args.j if args.j is not None else args.M // 2
    value = point_riesz_derivative(x**2 * (1.0 - x) ** 2, grid, args.alpha, args.p, j)
    payload = {
        "alpha": args.alpha,
        "p": args.p,
        "M": args.M,
        "j": j,
        "x": float(x[j]),
        "value": value,
    }
    if math.isclose(x[j], 0.5):
        exact = _harness.example41_exact(args.alpha)
        payload["exact"] = exact
        payload["abs_error"] = abs(value - exact)
    _write_json(payload, args.out)


def _zero_problem(alpha: float) -> AdvectionDiffusionProblem:
    return AdvectionDiffusionProblem(
        alpha=alpha,
        K=2.0,
        K_alpha=alpha * alpha,
        domain=(0.0, 1.0),
        T=1.0,
        source=lambda x, t: np.zeros_like(x),
        initial=lambda x: np.zeros_like(x),
    )


def _cmd_solve(args) -> None:
    if args.problem == "example42":
        problem = _harness.example42_problem(args.alpha)
    else:
        problem = _zero_problem(args.alpha)
    header = ["t", "x", "u_numeric"]
    if problem.exact is not None:
        header += ["u_exact", "error"]

    def columns(x, t, u):
        if problem.exact is None:
            return (u,)
        exact = problem.exact(x, t)
        return u, exact, np.abs(u - exact)

    if args.keep == "final":
        sol = _solve(problem, args.M, args.N, keep="final")
        grid, tau, blocks = sol.grid, sol.tau, [(args.N, sol.snapshots)]
    else:
        system, blocks = _levels(problem, args.M, args.N, "all")
        grid, tau = system.grid, system.tau
    with _open_out(args.out) as out:
        _write_levels(out, header, grid.nodes(), tau, blocks, columns)


def _cmd_spectrum(args) -> None:
    if args.symbol_samples > _coeffs._MAX_SAMPLES:
        raise SizeLimitError(
            f"--symbol-samples={args.symbol_samples} exceeds the cap of {_coeffs._MAX_SAMPLES}"
        )
    generating_symbol(args.alpha, 0.0, args.p)  # refuses an alpha outside (1, 2) before any work
    lo, hi = spectral_bounds(args.alpha, args.p, args.M)
    if args.out is not None:
        xs = np.linspace(-math.pi, math.pi, args.symbol_samples)
        fs = generating_symbol(args.alpha, xs, args.p)
        with _open_out(args.out) as out:
            out.write("x,f_alpha_x\n")
            _g17.write_rows(out, np.column_stack([xs, fs]))
    record = {"alpha": args.alpha, "p": args.p, "M": args.M, "min_eig": lo, "max_eig": hi}
    _write_json(record, None)


def _cmd_convergence(args) -> None:
    report = _harness.convergence_study(_TABLE_KINDS[args.table], alphas=args.alphas)
    if args.format == "json":
        _write_json([asdict(row) for row in report.rows], args.out)
        return
    lines = ["alpha,resolution,error,order,ref_error,ref_order,pass"]
    for row in report.rows:
        # a bool before _fmt, which would write True as 1
        cells = ("" if v is None else str(v).lower() if isinstance(v, bool) else _fmt(v)
                 for v in astuple(row))
        lines.append(",".join(cells))
    with _open_out(args.out) as out:
        out.write("\n".join(lines) + "\n")


def _cmd_surface(args) -> None:
    problem = _harness.example42_problem(args.alpha)
    system, blocks = _levels(problem, args.M, args.N, "all")
    blocks = _harness._error_blocks(system, blocks, problem.exact)
    with _open_out(args.out) as out:
        _write_levels(out, ["t", "x", "abs_error"], system.grid.nodes(), system.tau, blocks,
                      lambda x, t, u: (u,))


_DISPATCH = {
    "coeffs": _cmd_coeffs,
    "deriv": _cmd_deriv,
    "solve": _cmd_solve,
    "spectrum": _cmd_spectrum,
    "convergence": _cmd_convergence,
    "surface": _cmd_surface,
}


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, and map failures to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        _DISPATCH[args.subcommand](args)
    except NumericsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {str(exc) or 'allocation refused'}\n")
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
