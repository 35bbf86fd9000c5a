import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import neucmds

# the child process imports the same package as the tests, installed or not
SRC = str(Path(neucmds.__file__).resolve().parents[1])

# only perturb --kind knn needs scipy; every other command must start without it
STARTUP_CHECK = """
import sys
from neucmds import cli, io
import numpy as np
assert [m for m in sys.modules if m.startswith("scipy")] == [], "scipy loaded by import"
io.write_points(sys.argv[1], np.random.default_rng(0).normal(size=(12, 3)))
assert cli.main(["perturb", "--input", sys.argv[1], "--kind", "knn", "--k-nn", "3",
                 "--output", sys.argv[2]]) == 0
assert "scipy.sparse.csgraph" in sys.modules
"""


# the report's median partitions once and reads the middle values itself:
# np.median's NaN check would import numpy.ma (13 ms, 1.1 MiB) on every command
REPORT_CHECK = """
import sys
from neucmds import cli
d, e, lm = sys.argv[1:]
for argv in (["generate", "--kind", "balls", "--n", "40", "--seed", "3", "--format", "bin",
              "--output", d],
             ["embed", "--input", d, "--k", "3", "--method", "neuc", "--output", e],
             ["landmark", "--input", d, "--k", "2", "--landmarks", "12", "--seed", "1",
              "--output", lm]):
    assert cli.main(argv) == 0, argv
assert "numpy.ma" not in sys.modules, "numpy.ma loaded"
"""


def test_embed_and_landmark_load_no_numpy_ma(tmp_path):
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    outputs = [tmp_path / "e.txt", tmp_path / "lm.txt"]
    proc = subprocess.run(
        [sys.executable, "-c", REPORT_CHECK, str(tmp_path / "b.bin"), *map(str, outputs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    for out in outputs:  # both reports took a median
        assert '"avg_distortion": null' not in Path(f"{out}.report.json").read_text()


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from neucmds import *", namespace)
    assert [name for name in neucmds.__all__ if name not in namespace] == []


def test_cli_import_loads_no_scipy(tmp_path):
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHECK, str(tmp_path / "p.txt"), str(tmp_path / "d.txt")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d.txt").exists()


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _calls(tree, func):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == func]


def _traced_function(module, name):
    """The function the tracer records as ``<module>.<name>``, or None."""
    obj = getattr(importlib.import_module(f"neucmds.{module}"), name, None)
    if inspect.isfunction(obj) and (obj.__module__, obj.__name__) == (f"neucmds.{module}", name):
        return obj
    return None


def test_benchmark_layer_names_match_the_package():
    # a renamed or inlined function would leave its per-layer metric reading 0
    tree = ast.parse(TRACER.read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    named = [arg.value for fn in ("command_metrics", "setup_metrics")
             for call in _calls(defs[fn], "_is") for arg in call.args]
    assert named, "no module.function names found in the tracer"
    assert [n for n in named if _traced_function(*n.split(".", 1)) is None] == []
    # each prefix predicate: `_layer(n) == "<module>" and _func(n).startswith("<prefix>")`
    prefixes = []
    for fn in defs.values():
        layers = [node.comparators[0].value for node in ast.walk(fn)
                  if isinstance(node, ast.Compare) and _calls(node.left, "_layer")]
        starts = [node.args[0].value for node in ast.walk(fn)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "startswith" and _calls(node.func.value, "_func")]
        prefixes += [(layer, start) for layer in layers for start in starts]
    assert {("linalg", "check_"), ("selection", "select_")} <= set(prefixes)
    for module, start in prefixes:
        names = vars(importlib.import_module(f"neucmds.{module}"))
        assert any(name.startswith(start) and _traced_function(module, name)
                   for name in names), f"no {module}.{start}* function"
