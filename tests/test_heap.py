"""The heap policy set by ``import rieszfd``: glibc keeps the pages that
solver steps and CSV blocks free, and the import touches none of the
block it frees to raise glibc's thresholds.  Each check runs in a fresh
interpreter, since the thresholds and peak RSS are per process."""

import os
import platform
import subprocess
import sys

import pytest

import rieszfd

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="checks glibc's malloc thresholds"
)

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(rieszfd.__file__)))

_MINOR_FAULTS = (
    "import resource, sys\n"
    "import rieszfd.cli\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "assert rieszfd.cli.run(sys.argv[1:]) == 0\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
)

# VmHWM, not ru_maxrss: a child's ru_maxrss starts at the peak RSS of the
# process it was forked from
_IMPORT_RSS = (
    "import re\n"
    "import numpy\n"
    "def kib():\n"
    "    with open('/proc/self/status') as status:\n"
    "        text = status.read()\n"
    "    return [int(re.search(name + r':\\s+(\\d+)', text)[1]) for name in ('VmHWM', 'VmRSS')]\n"
    "peak, resident = kib()\n"
    "import rieszfd\n"
    "peak2, resident2 = kib()\n"
    "print(peak2 - peak, resident2 - resident)\n"
)


def _python(script: str, *args: str, cwd=None) -> str:
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Without the raised thresholds these runs took about 85 minor faults per
# 1024-row block and 66 per Toeplitz step (M = 3000) on a 2-vCPU x86
# machine, against 3.5 and 1.4 with them, setup and first use included.
@pytest.mark.parametrize(
    "argv, units, unit",
    [
        (["--alpha", "1.6", "--M", "1000", "--N", "200", "--keep", "all"],
         -(-201 * 1001 // 1024), "1024-row block"),
        (["--alpha", "1.4", "--M", "3000", "--N", "300"], 300, "Toeplitz step"),
    ],
    ids=["csv-blocks", "toeplitz-steps"],
)
def test_steps_and_blocks_do_not_refault_the_heap(tmp_path, argv, units, unit):
    faults = int(_python(_MINOR_FAULTS, "solve", *argv, "--out", "out.csv", cwd=tmp_path))
    assert faults <= 20 * units, (
        f"solve {' '.join(argv)}: {faults} minor faults, {faults / units:.1f} per {unit}"
    )


def test_import_touches_no_freed_block():
    # a touched 4 MiB block would lift the peak above what the import keeps
    # resident, and every run's peak RSS with it
    peak, resident = map(int, _python(_IMPORT_RSS).split())
    assert peak - resident < 1024, (
        f"import rieszfd raised the peak RSS by {peak} KiB but the resident "
        f"set by only {resident} KiB"
    )
