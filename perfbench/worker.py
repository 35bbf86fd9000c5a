"""Child process of the benchmark: one set-up, or one measurement loop.

Run as ``python3 perfbench/worker.py '<job json>'`` with ``PYTHONPATH``
pointing at the checkout's ``src``.  It prints one JSON object on its last
stdout line.  Set-up times ``import neucmds`` plus the ``generate`` command;
measurement first runs the untimed reference commands, then calls
``cli.main(argv)`` in a closed loop until ``seconds`` have passed, with a
speed probe between calls.  With
``trace`` set, every second call runs under the tracer and the spans are
written to ``spans_path`` when the loop ends.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import traceback


def invoke(cli, argv: list[str]) -> int:
    """Exit code of one CLI call; an escaping exception counts as a failure."""
    try:
        return int(cli.main(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the loop must go on; the traceback goes to stderr
        traceback.print_exc()
        return -1


class Probe:
    """Times a fixed mix of interpreter and numpy work.

    The VM the benchmark was sized on drifts in speed by up to 1.6x over
    minutes, so every timed call is bracketed by probes and the parent
    scales the call by the probe (``run.normalize``).  The two halves take
    about equal time there, because interpreter-bound calls (text parsing)
    and numpy-bound calls (n^2 temporaries) drift differently.  The 8 MB
    array is allocated once, so page faults stay out of the probe.
    """

    def __init__(self) -> None:
        import numpy as np

        self.array = np.full(1_000_000, 0.5)

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for j in range(100_000):
            acc += j * j
        for _ in range(3):
            (self.array * 1.0001 + 1.0).sum()
        return time.perf_counter() - start


def peak_rss_kib() -> int:
    """High-water RSS of this process image.

    Not ``ru_maxrss``: Linux carries the spawning parent's peak into the
    child's ``ru_maxrss`` across exec, while ``VmHWM`` restarts at exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment(neucmds) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "neucmds": getattr(neucmds, "__version__", "unknown"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
    }


def setup(job: dict, cli, neucmds, t0: float) -> dict:
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(neucmds)
        tracer.install()
    rc = invoke(cli, job["argv"]) if job["argv"] else 0
    elapsed = time.perf_counter() - t0
    probe = Probe()
    probes = [probe() for _ in range(3)]
    if tracer is not None:
        tracer.uninstall()
        with open(job["spans_path"], "w") as fh:
            json.dump(tracer.spans, fh)
    return {"setup_s": elapsed, "probe_s": sorted(probes)[1], "rc": rc}


def measure(job: dict, cli, neucmds) -> dict:
    reference_rcs = [invoke(cli, argv) for argv in job["reference"]]
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(neucmds)
    samples = []
    probe = Probe()
    probes = [probe()]  # probes[i] and probes[i + 1] bracket call i
    deadline = time.perf_counter() + job["seconds"]
    i = 0
    # trace mode alternates untraced and traced calls and stops after a pair
    while i < job["min_runs"] or (
            i < job["max_runs"] and (time.perf_counter() < deadline or (tracer and i % 2))):
        traced = tracer is not None and i % 2 == 1
        argv = [a.replace("{i}", str(i)) for a in job["argv"]]
        if traced:
            tracer.run = i
            tracer.install()
        start = time.perf_counter()
        rc = invoke(cli, argv)
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        probes.append(probe())
        samples.append({"i": i, "traced": traced, "wall_s": wall, "rc": rc,
                        "probe_s": (probes[-2] + probes[-1]) / 2})
        i += 1
    peak_kib = peak_rss_kib()
    if tracer is not None:
        with open(job["spans_path"], "w") as fh:
            json.dump(tracer.spans, fh)
    return {
        "reference_rcs": reference_rcs,
        "samples": samples,
        "peak_rss_mb": peak_kib / 1024.0,
        "environment": environment(neucmds),
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import neucmds
    from neucmds import cli

    origin = os.path.realpath(neucmds.__file__)
    if not origin.startswith(os.path.realpath(job["src"]) + os.sep):
        print(f"neucmds imported from {origin}, not from {job['src']}", file=sys.stderr)
        return 2
    result = setup(job, cli, neucmds, t0) if job["mode"] == "setup" else measure(job, cli, neucmds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
