"""The one size rule, ``coeffs._check_size``, at every entry point that
routes a weight count, grid, time-step or sample count through it: one
below the floor is a DomainError, one above the cap a SizeLimitError
before any work, and the floor and the cap themselves are accepted."""

import numpy as np
import pytest

import rieszfd.cli
import rieszfd.coeffs
import rieszfd.operators
import rieszfd.pde
from rieszfd.cli import run
from rieszfd.coeffs import _MAX_APPLY_M, _MAX_CONVOLUTION_COUNT, _MAX_COUNT
from rieszfd.coeffs import gl_weights, kappa_weights, lubich_weights, series_fractional_power
from rieszfd.coeffs import wsgd_weights
from rieszfd.errors import DomainError, SizeLimitError
from rieszfd.harness import example42_problem
from rieszfd.operators import GridSpec1D, assemble_galpha, left_apply, riesz_apply, right_apply
from rieszfd.operators import spectral_bounds
from rieszfd.pde import _TOEPLITZ_MAX_M, assemble_system


class WorkStarted(Exception):
    """Raised by a patched work function: the size got past the rule."""


def _work(*args, **kwargs):
    raise WorkStarted


def _applied(operator):
    """``operator`` on zero node values of the grid of n intervals, with
    the kappa weights it needs."""
    return lambda n: operator(np.zeros(n + 1), GridSpec1D(0.0, 1.0, n), kappa_weights(2, 1.5, n))


def _subcommand(*argv):
    """The CLI path of ``argv`` with ``{}`` replaced by the size, parsed and
    dispatched as ``cli.run`` does, but raising instead of exiting."""

    def call(n):
        args = rieszfd.cli._build_parser().parse_args([a.format(n) for a in argv])
        rieszfd.cli._DISPATCH[args.subcommand](args)

    call.argv = argv
    return call


_COEFFS = rieszfd.coeffs
_OPS = rieszfd.operators
_PDE = rieszfd.pde
_FFT_CAP = 64  # fft samples: the real cap, 4 * 10**6, would sample the circle at it

# id, call(size), size name, floor, cap, work functions patched to fail,
# caps patched small
ENTRIES = [
    ("gl_weights", lambda n: gl_weights(1.5, n), "count", 2, _MAX_COUNT,
     [(_COEFFS, "_gl_series")], []),
    ("lubich_weights", lambda n: lubich_weights(3, 1.5, n), "count", 2, _MAX_COUNT,
     [(_COEFFS, "series_fractional_power")], []),
    ("wsgd_weights", lambda n: wsgd_weights(2, 1.5, n), "count", 2, _MAX_COUNT,
     [(_COEFFS, "_gl_series")], []),
    ("kappa_weights", lambda n: kappa_weights(2, 1.5, n), "count", 2, _MAX_COUNT,
     [(_COEFFS, "series_fractional_power")], []),
    ("kappa_weights-convolution", lambda n: kappa_weights(2, 1.5, n, method="convolution"),
     "count", 2, _MAX_CONVOLUTION_COUNT, [(_COEFFS, "_kappa_convolution")], []),
    ("kappa_weights-fft-samples", lambda n: kappa_weights(2, 1.5, 4, method="fft", samples=n),
     "samples", 8, _FFT_CAP, [(_COEFFS, "_circle_power")], [(_COEFFS, "_MAX_SAMPLES")]),
    ("series_fractional_power", lambda n: series_fractional_power([1.0, -1.0], 1.5, n), "count",
     0, _MAX_COUNT, [(np, "asarray")], []),
    ("GridSpec1D", lambda n: GridSpec1D(0.0, 1.0, n), "M", 4, _MAX_COUNT, [], []),
    ("left_apply", _applied(left_apply), "M", 4, _MAX_APPLY_M, [(np, "convolve")], []),
    ("right_apply", _applied(right_apply), "M", 4, _MAX_APPLY_M, [(np, "convolve")], []),
    ("riesz_apply", lambda n: riesz_apply(np.zeros(n + 1), GridSpec1D(0.0, 1.0, n), 1.5, 2), "M",
     4, _MAX_APPLY_M, [(_OPS, "kappa_weights")], []),
    ("assemble_galpha", lambda n: assemble_galpha(1.5, 2, n), "M", 4, _MAX_COUNT,
     [(_OPS, "kappa_weights")], []),
    ("spectral_bounds", lambda n: spectral_bounds(1.5, 2, n), "M", 4, 512,
     [(np.linalg, "eigvalsh")], []),
    ("assemble_system-M", lambda n: assemble_system(example42_problem(1.5), n, 5), "M", 4,
     _TOEPLITZ_MAX_M, [(_PDE, "_riesz_column")], []),
    ("assemble_system-N", lambda n: assemble_system(example42_problem(1.5), 10, n), "N", 1,
     _MAX_COUNT, [(_PDE, "_riesz_column")], []),
    ("cli-coeffs", _subcommand("coeffs", "--alpha", "1.5", "--count", "{}"), "count", 2,
     _MAX_COUNT, [(_COEFFS, "series_fractional_power")], []),
    ("cli-coeffs-gl", _subcommand("coeffs", "--family", "gl", "--alpha", "1.5", "--count", "{}"),
     "count", 2, _MAX_COUNT, [(_COEFFS, "_gl_series")], []),
    ("cli-coeffs-convolution",
     _subcommand("coeffs", "--alpha", "1.5", "--method", "convolution", "--count", "{}"),
     "count", 2, _MAX_CONVOLUTION_COUNT, [(_COEFFS, "_kappa_convolution")], []),
    ("cli-coeffs-fft-samples",
     _subcommand("coeffs", "--alpha", "1.5", "--count", "4", "--method", "fft", "--samples", "{}"),
     "samples", 8, _FFT_CAP, [(_COEFFS, "_circle_power")], [(_COEFFS, "_MAX_SAMPLES")]),
    ("cli-deriv", _subcommand("deriv", "--alpha", "1.5", "--M", "{}"), "M", 4, _MAX_COUNT,
     [(_OPS, "kappa_weights")], []),
    ("cli-spectrum", _subcommand("spectrum", "--alpha", "1.5", "--M", "{}"), "M", 4, 512,
     [(np.linalg, "eigvalsh")], []),
    ("cli-solve-M", _subcommand("solve", "--alpha", "1.5", "--M", "{}", "--N", "5"), "M", 4,
     _TOEPLITZ_MAX_M, [(_PDE, "_riesz_column")], []),
    ("cli-solve-N", _subcommand("solve", "--alpha", "1.5", "--M", "10", "--N", "{}"), "N", 1,
     _MAX_COUNT, [(_PDE, "_riesz_column")], []),
    ("cli-surface-M", _subcommand("surface", "--alpha", "1.5", "--M", "{}", "--N", "5"), "M", 4,
     _TOEPLITZ_MAX_M, [(_PDE, "_riesz_column")], []),
    ("cli-surface-N", _subcommand("surface", "--alpha", "1.5", "--M", "10", "--N", "{}"), "N", 1,
     _MAX_COUNT, [(_PDE, "_riesz_column")], []),
]


def test_caps_are_the_documented_values():
    # the README's table of caps; the entries below read the constants
    caps = (_MAX_COUNT, rieszfd.coeffs._MAX_SAMPLES, _MAX_CONVOLUTION_COUNT, _MAX_APPLY_M,
            _TOEPLITZ_MAX_M)
    assert caps == (10**6, 4 * 10**6, 10**5, 80_000, 10**5)


@pytest.mark.parametrize(
    "call, name, floor, cap, work, caps", [entry[1:] for entry in ENTRIES],
    ids=[entry[0] for entry in ENTRIES],
)
def test_size_rule(monkeypatch, call, name, floor, cap, work, caps):
    for module, attr in caps:
        monkeypatch.setattr(module, attr, cap)
    for module, attr in work:
        monkeypatch.setattr(module, attr, _work)
    with pytest.raises(DomainError) as below:
        call(floor - 1)
    assert str(below.value) == f"{name}={floor - 1} must be at least {floor}"
    with pytest.raises(SizeLimitError) as above:
        call(cap + 1)
    assert str(above.value) == f"{name}={cap + 1} exceeds the cap of {cap}"
    for accepted in (floor, cap):
        if work:
            with pytest.raises(WorkStarted):
                call(accepted)
        else:
            call(accepted)


def test_symbol_samples_rule(monkeypatch, tmp_path):
    # the parser refuses fewer than one sample; the rule owns the cap, which
    # the command reads when it runs
    monkeypatch.setattr(rieszfd.cli, "generating_symbol", _work)
    monkeypatch.setattr(rieszfd.coeffs, "_MAX_SAMPLES", 7)
    call = _subcommand("spectrum", "--alpha", "1.5", "--symbol-samples", "{}",
                       "--out", str(tmp_path / "s.csv"))
    with pytest.raises(SizeLimitError, match="^--symbol-samples=8 exceeds the cap of 7$"):
        call(8)
    for accepted in (1, 7):
        with pytest.raises(WorkStarted):
            call(accepted)
    with pytest.raises(SystemExit):
        call(0)


@pytest.mark.parametrize("entry", [e for e in ENTRIES if e[0].startswith("cli-")],
                         ids=[e[0] for e in ENTRIES if e[0].startswith("cli-")])
def test_cli_refusal_is_one_error_line(monkeypatch, capsys, tmp_path, entry):
    _, call, name, floor, cap, work, caps = entry
    for module, attr in caps:
        monkeypatch.setattr(module, attr, cap)
    for module, attr in work:
        monkeypatch.setattr(module, attr, _work)
    for size, message in ((floor - 1, f"must be at least {floor}"),
                          (cap + 1, f"exceeds the cap of {cap}")):
        code = run([a.format(size) for a in call.argv] + ["--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {name}={size} {message}\n"
    assert list(tmp_path.iterdir()) == []
