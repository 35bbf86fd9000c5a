"""Benchmark of the neucmds command line.

    python3 perfbench/run.py --workload embed-text --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table
    python3 perfbench/run.py --smoke               # all workloads at tiny n, self-checking

Run from anywhere; it uses the ``src`` next to this directory.  Each run
sets the input up three times in fresh processes (``setup_s`` is their
median), then times ``neucmds.cli.main(argv)`` in one fresh worker process
for ``--seconds`` and checks every output with numpy.  Both timings are
scaled to nominal machine speed by a probe run next to them (``normalize``;
perfbench/README.md says why).  ``--trace 1`` instead
runs untraced and traced calls alternately and reports per-layer figures.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
Work files go to ``.perfbench_work`` and are removed; the run record (and,
traced, the spans) are kept in ``.perfbench_results``.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import FIELDS, per_layer
from workloads import REFERENCE_RTOL, WORKLOADS, CheckFailed, read_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 3
# The worker's probe() takes about this long on the 2-vCPU VM the benchmark
# was sized on; timings are reported at that nominal machine speed.
PROBE_NOMINAL_S = 0.012
REFERENCE_SEED = 0
RUN_BUDGET_S = 170.0  # hard limit for one workload run, processes included
MAX_CALLS = 400  # caps the closed loop at tiny sizes


class BenchError(Exception):
    """The benchmark itself could not measure (not an output defect)."""


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(job: dict, deadline: float) -> dict:
    job = dict(job, src=str(SRC))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            capture_output=True, text=True, env=worker_env(), cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['mode']} worker exceeded the run budget") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{job['mode']} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """sha256 over src/neucmds/*.py: identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "neucmds").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit_sha() -> str:
    if not (ROOT / ".git").exists():  # git would report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def normalize(seconds: float, probe_s: float) -> float:
    """A timing scaled to the nominal machine speed measured by the probe."""
    return seconds * PROBE_NOMINAL_S / probe_s


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


class WorkloadRun:
    """One workload at one seed: set-up, measurement, checks, metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, size: str) -> None:
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
        self.results = ROOT / ".perfbench_results"
        self.tag = f"{name}-seed{seed}-trace{int(trace)}"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.errors: list[str] = []
        name = self.wl.input_name()
        self.input_path = self.path(name) if name else None
        self.ref_input = self.path("ref-" + name) if name else None

    def path(self, name: str) -> str:
        return str(self.work / name)

    # ------------------------------------------------------------ phases

    def setup(self) -> tuple[list[dict], list]:
        argv = self.wl.setup_argv(self.size, self.seed, self.input_path)
        job = {"mode": "setup", "argv": argv, "trace": self.trace,
               "spans_path": self.path("setup-spans.json")}
        setups = []
        for _ in range(1 if self.trace else SETUP_REPEATS):
            out = run_worker(job, self.deadline)
            if out["rc"] != 0:
                raise BenchError(f"set-up command exited {out['rc']}")
            setups.append({"setup_s": out["setup_s"], "probe_s": out["probe_s"]})
        spans = []
        if self.trace:
            with open(self.path("setup-spans.json")) as fh:
                spans = json.load(fh)
        return setups, spans

    def reference_argvs(self) -> list[list[str]]:
        argvs = [self.wl.setup_argv("tiny", REFERENCE_SEED, self.ref_input),
                 self.wl.command_argv("tiny", REFERENCE_SEED, self.ref_input, self.path("ref-out"))]
        return [argv for argv in argvs if argv]

    def check_reference(self, rcs: list[int]) -> float | None:
        """quality_err of the fixed tiny instance must match reference.json."""
        if any(rcs):
            self.errors.append(f"reference commands exited {rcs}")
            return None
        d = read_input(self.ref_input, self.wl.fmt) if self.ref_input else None
        try:
            quality = self.wl.check("tiny", self.path("ref-out"), d)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.errors.append(f"reference instance: {exc}")
            return None
        expected = load_reference()[self.wl.name]
        if not abs(quality - expected) <= REFERENCE_RTOL * abs(expected):
            self.errors.append(f"reference quality_err {quality!r}, recorded {expected!r}")
        return quality

    def check_samples(self, samples: list[dict]) -> tuple[list[bool], list]:
        """Check every call; a call whose files equal a checked call's reuses its result."""
        d = read_input(self.input_path, self.wl.fmt) if self.input_path else None
        ok, qualities, checked = [], [], []  # checked: (files, quality)
        for s in samples:
            files = self.wl.output_files(self.path(f"out-{s['i']}"))
            if s["rc"] != 0:
                self.errors.append(f"call {s['i']} exited {s['rc']}")
                ok.append(False)
                continue
            same = next((q for f, q in checked if all(
                filecmp.cmp(a, b, shallow=False) for a, b in zip(files, f))), None)
            if same is None:
                try:
                    same = self.wl.check(self.size, files[0], d)
                except (CheckFailed, OSError, ValueError, KeyError) as exc:
                    self.errors.append(f"call {s['i']}: {exc}")
                    ok.append(False)
                    continue
                checked.append((files, same))
            ok.append(True)
            qualities.append(same)
        return ok, qualities

    # ------------------------------------------------------------ run

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            return self._run()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _run(self) -> dict:
        setups, setup_spans = self.setup()

        job = {
            "mode": "measure",
            "reference": self.reference_argvs(),
            "argv": self.wl.command_argv(self.size, self.seed, self.input_path, self.path("out-{i}")),
            "seconds": self.seconds,
            "trace": self.trace,
            "min_runs": 2 if self.trace else 1,
            "max_runs": MAX_CALLS,
            "spans_path": self.path("spans.json"),
        }
        out = run_worker(job, self.deadline)
        samples = out["samples"]
        reference_quality = self.check_reference(out["reference_rcs"])
        ok, qualities = self.check_samples(samples)

        attempted = len(samples)
        failed = ok.count(False)
        quality = statistics.median(qualities) if qualities else math.nan
        untraced = [s["wall_s"] for s in samples if not s["traced"]]
        wall = [normalize(s["wall_s"], s["probe_s"]) for s in samples if not s["traced"]]
        setup = [normalize(s["setup_s"], s["probe_s"]) for s in setups]
        record = {
            "workload": self.wl.name,
            "why": self.wl.why,
            "size": self.size,
            "sizes": {k: v for k, v in vars(self.wl.sizes[self.size]).items() if v},
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "commit": commit_sha(),
            "src_sha256": source_digest(),
            "environment": out["environment"],
            "command": job["argv"],
            "samples": samples,
            "setups": setups,
            "reference_quality_err": reference_quality,
            "errors": self.errors,
        }
        if self.trace:
            with open(self.path("spans.json")) as fh:
                spans = json.load(fh)
            traced = [s["wall_s"] for s in samples if s["traced"]]
            metrics = per_layer(spans, setup_spans, untraced, traced)
            self.results.mkdir(exist_ok=True)
            with open(self.results / f"{self.tag}-spans.json", "w") as fh:
                json.dump({"fields": FIELDS, "command": spans, "setup": setup_spans}, fh)
        else:
            metrics = {
                "wall_s": {"value": statistics.median(wall), "unit": "s"},
                "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MiB"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "quality_err": {"value": quality, "unit": "ratio"},
            }
        record["metrics"] = metrics
        record["summary"] = {
            "failed_frac": failed / attempted,
            "wall_s": {"median": statistics.median(wall), "q1_q3": quartiles(wall),
                       "raw_median": statistics.median(untraced), "samples": len(wall)},
            "setup_s": {"median": statistics.median(setup), "samples": len(setup),
                        "raw_median": statistics.median(s["setup_s"] for s in setups)},
            "probe_s": {"median": statistics.median(s["probe_s"] for s in samples),
                        "nominal": PROBE_NOMINAL_S},
        }
        self.results.mkdir(exist_ok=True)
        with open(self.results / f"{self.tag}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        return {
            "correct": not self.errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "record": record,
        }


# ---------------------------------------------------------------- output

def print_table(result: dict) -> None:
    rec = result["record"]
    env = rec["environment"]
    print(f"# {rec['workload']} seed={rec['seed']} size={rec['size']} {rec['sizes']} "
          f"trace={int(rec['trace'])}")
    print(f"#   commit={rec['commit']} src_sha256={rec['src_sha256']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']} blas_threads={env['blas_threads']}")
    summary = rec["summary"]
    wall, setup, probe = summary["wall_s"], summary["setup_s"], summary["probe_s"]
    print(f"#   wall_s median {wall['median']:.4f} s over {wall['samples']} untraced calls, "
          f"q1/q3 {wall['q1_q3'][0]:.4f}/{wall['q1_q3'][1]:.4f}, raw {wall['raw_median']:.4f} s; "
          f"setup_s median over {setup['samples']} set-ups, raw {setup['raw_median']:.4f} s; "
          f"probe median {probe['median'] * 1e3:.2f} ms (nominal {probe['nominal'] * 1e3:.0f} ms)")
    print(f"  {'failed_frac':<28} {summary['failed_frac']:>14.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for err in rec["errors"]:
        print(f"  ERROR {err}")


def final_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def run_all(names, seed, seconds, trace) -> dict:
    results = []
    for name in names:
        result = WorkloadRun(name, seed, seconds, trace, "full").run()
        print_table(result)
        results.append(result)
    if len(results) == 1:
        return results[0]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['record']['workload']}.{k}": v
                    for r in results for k, v in r["metrics"].items()},
    }


def smoke(seed: int) -> int:
    """All workloads at tiny n, untraced and traced; asserts the contract."""
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    problems = []
    for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        for name, wl in WORKLOADS.items():
            result = WorkloadRun(name, seed, 0.3, trace, "tiny").run()
            print_table(result)
            metrics = result["metrics"]
            where = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            if set(metrics) != {m["name"] for m in declared}:
                problems.append(f"{where}: metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} "
                                "differ from BENCHMARK.json")
            for m in declared:
                got = metrics.get(m["name"])
                if got is not None and got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got['unit']}, declared {m['unit']}")
            if trace:
                missing = [k for k in wl.layers if not metrics.get(k, {}).get("value", 0) > 0]
                if missing:
                    problems.append(f"{where}: layers that ran read zero: {missing}")
            elif not all(m["value"] > 0 for m in metrics.values()):
                problems.append(f"{where}: an end-to-end metric is not positive")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print(f"smoke: {'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny n, traced and not, and check the output")
    args = parser.parse_args(argv)

    if not (SRC / "neucmds" / "cli.py").is_file():
        print(f"error: no neucmds sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(args.seed)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        result = run_all(names, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
