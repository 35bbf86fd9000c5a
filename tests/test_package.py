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
