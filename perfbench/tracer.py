"""Span tracing of neucmds from outside the package, and the per-layer metrics.

``Tracer.install`` replaces every neucmds function at each name a neucmds
module holds it under (``cli.eig_sym``, ``embedding.eig_sym`` and
``landmark.eig_sym`` are three wrappers of one function), so a call to
``cli.main(argv)`` records the real call path.  Wrapped are the public
functions of every module plus the private readers and writers of file I/O.
A span is ``[id, parent, name, start, end, run, nbytes]``; ``name`` is
``<defining module>.<function>`` and ``nbytes`` is the size of the file a
``read_*``/``write_*`` function was given.  Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import statistics
import time

FIELDS = ("id", "parent", "name", "start", "end", "run", "nbytes")
ID, PARENT, NAME, START, END, RUN, NBYTES = range(len(FIELDS))


def _base(func_name: str) -> str:
    return func_name.lstrip("_")


def io_kind(func_name: str) -> str | None:
    base = _base(func_name)
    if base.startswith(("read_", "parse_")):
        return "read"
    if base.startswith(("write_", "format_")) or base.endswith("_write"):
        return "write"
    return None


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError, ValueError):
        return 0


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        for info in pkgutil.iter_modules(self.package.__path__):
            module = importlib.import_module(prefix + info.name)
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__.startswith(prefix)
                        and (not name.startswith("_") or io_kind(name))):
                    self._patches.append((module, name, obj))
                    setattr(module, name, self._wrap(obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patches):
            setattr(module, name, obj)
        self._patches.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        sized = _base(fn.__name__).startswith(("read_", "write_"))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, self.run, 0]
            spans.append(span)
            stack.append(span[ID])
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if sized and args:
                    span[NBYTES] = _file_size(args[0])

        return traced


# ---------------------------------------------------------------- analysis

def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class _Run:
    """The spans of one traced command or set-up, with their tree."""

    def __init__(self, spans) -> None:
        self.spans = spans
        self.by_id = {s[ID]: s for s in spans}
        self.children: dict[int, list] = {}
        for s in spans:
            self.children.setdefault(s[PARENT], []).append(s)

    def covered(self, pred) -> float:
        return _union((s[START], s[END]) for s in self.spans if pred(s[NAME]))

    def self_time(self, pred) -> float:
        return sum(
            s[END] - s[START] - _union((c[START], c[END]) for c in self.children.get(s[ID], ()))
            for s in self.spans if pred(s[NAME]))

    def outermost(self, pred) -> list:
        """Matching spans with no matching ancestor: one per top-level call."""
        out = []
        for s in self.spans:
            if not pred(s[NAME]):
                continue
            parent = self.by_id.get(s[PARENT])
            while parent is not None and not pred(parent[NAME]):
                parent = self.by_id.get(parent[PARENT])
            if parent is None:
                out.append(s)
        return out

    def calls(self, pred) -> int:
        return len(self.outermost(pred))

    def nbytes(self, pred) -> int:
        return sum(s[NBYTES] for s in self.outermost(pred))


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _func(name: str) -> str:
    return name.split(".", 1)[1]


def _is(*names):
    return lambda n: n in names


def _reads(n):
    return io_kind(_func(n)) == "read"


def _writes(n):
    return io_kind(_func(n)) == "write"


def _cli_dispatch(n):
    return _layer(n) == "cli" and io_kind(_func(n)) is None


def _checks(n):
    return _layer(n) == "linalg" and _func(n).startswith("check_")


def _selects(n):
    return _layer(n) == "selection" and _func(n).startswith("select_")


def _metrics_layer(n):
    return _layer(n) == "metrics"


def command_metrics(run: _Run) -> dict[str, float]:
    """Per-layer figures for one traced ``cli.main`` call."""
    command = run.covered(_is("cli.main"))
    eig = run.covered(_is("linalg.eig_sym"))
    return {
        "command_s": command,
        "cli.read_s": run.covered(_reads),
        "cli.read_bytes": run.nbytes(_reads),
        "cli.write_s": run.covered(_writes),
        "cli.write_bytes": run.nbytes(_writes),
        "cli.self_s": run.self_time(_cli_dispatch),
        "linalg.check_s": run.covered(_checks),
        "linalg.check_calls": run.calls(_checks),
        "linalg.center_s": run.covered(_is("linalg.double_center")),
        "linalg.eig_s": eig,
        "linalg.eig_calls": run.calls(_is("linalg.eig_sym")),
        "linalg.eig_multiple": command / eig if eig > 0.0 else 0.0,
        "selection.select_s": run.covered(_selects),
        "selection.select_calls": run.calls(_selects),
        "embedding.coords_s": run.self_time(_is("embedding.embed_from_decomposition")),
        "embedding.reconstruct_s": run.covered(_is("embedding.reconstruct")),
        "embedding.reconstruct_calls": run.calls(_is("embedding.reconstruct")),
        "metrics.report_s": run.covered(_metrics_layer),
        "metrics.stress_s": run.covered(_is("metrics.stress")),
        "metrics.decompose_s": run.covered(_is("metrics.decompose")),
        "metrics.scaled_additive_s": run.covered(_is("metrics.scaled_additive_error")),
        "metrics.distortion_s": run.covered(_is("metrics.avg_geometric_distortion")),
        "metrics.negativity_s": run.covered(_is("metrics.negativity_stats")),
        "landmark.fit_s": run.covered(_is("landmark.fit_landmarks")),
        "landmark.triangulate_s": run.self_time(_is("landmark.embed_landmark")),
        "rmt.sample_s": run.covered(_is("rmt.sample_wigner")),
        "rmt.select_s": run.covered(_is("rmt.empirical_error_from_eigenvalues")),
        "rmt.theory_s": run.covered(_is("rmt.solve_r", "rmt.theory_error")),
    }


def setup_metrics(run: _Run) -> dict[str, float]:
    """Per-layer figures for one traced set-up (input generation and write)."""
    return {
        "datasets.gen_s": run.covered(lambda n: _layer(n) == "datasets"),
        "setup.cli.write_s": run.covered(_writes),
        "setup.cli.write_bytes": run.nbytes(_writes),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_calls"):
        return "count"
    return "ratio"


def per_layer(command_spans, setup_spans, untraced_wall: list[float],
              traced_wall: list[float]) -> dict[str, dict]:
    """Medians over the traced commands, the set-up figures and the overhead.

    Every metric is present; a layer that did not run reads 0.
    """
    runs: dict[int, list] = {}
    for s in command_spans:
        runs.setdefault(s[RUN], []).append(s)
    per_run = [command_metrics(_Run(spans)) for spans in runs.values()]
    values = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
    values.update(setup_metrics(_Run(setup_spans)))
    # calls alternate untraced, traced: compare neighbours so machine drift cancels
    values["trace_overhead_frac"] = statistics.median(
        (t - u) / u for u, t in zip(untraced_wall, traced_wall))
    return {name: {"value": value, "unit": "frac" if name == "trace_overhead_frac" else _unit(name)}
            for name, value in values.items()}
