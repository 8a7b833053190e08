"""One benchmark invocation, run in a fresh interpreter by ``run.py``.

Usage: ``python3 child.py RESULT_JSON MODE [RIESZFD ARGS...]``

MODE is ``probe`` (import ``rieszfd.cli``, record the environment, exit),
``run`` (call ``rieszfd.cli.run`` on the arguments) or ``trace=SPANS_JSON``
(the same under ``tracing.Tracer``, spans written to SPANS_JSON).

The result records ``setup_end``, the ``time.monotonic()`` reading just
after ``import rieszfd.cli`` (the parent subtracts the reading it took
before starting this process), ``wall_s`` around ``rieszfd.cli.run``, its
exit code and the process's own ``ru_maxrss``.
"""

import os
import sys
import time


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    result_path, mode, *cli_argv = sys.argv[1:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import rieszfd.cli

    setup_end = time.monotonic()
    import json
    import resource

    if not os.path.abspath(rieszfd.cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"rieszfd imported from {rieszfd.cli.__file__}, not {src}\n")
        return 3
    record = {"setup_end": setup_end}
    if mode == "probe":
        record["env"] = _environment()
    else:
        tracer = None
        if mode.startswith("trace="):
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            record["rc"] = rieszfd.cli.run(cli_argv)
        finally:
            record["wall_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
                tracer.dump(mode[len("trace="):])
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
