"""Which scipy modules each command loads, read from ``sys.modules`` of a fresh interpreter.

The test process itself has scipy loaded, so every check runs in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import signalwall
from signalwall.inverse import slab_transmission_db

_SRC = str(Path(signalwall.__file__).parents[1])

_PROLOGUE = "import contextlib, io, json, sys\n"
_REPORT = '\nprint(json.dumps([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]))'


def _scipy_modules(body: str) -> set[str]:
    """Run ``body`` in a fresh interpreter with the package on the path; the scipy modules it left loaded."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROLOGUE + body + _REPORT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _main(argv: list[str], exit_code: int = 0) -> str:
    """A snippet that runs ``cli.main(argv)`` with its output captured and requires ``exit_code``."""
    return f"""
from signalwall.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main({argv!r})
assert code == {exit_code}, code
"""


def test_importing_the_cli_and_loading_the_scenario_loads_no_scipy():
    body = """
import signalwall.cli
from signalwall.scenario import load_scenario, material_database
load_scenario()
material_database()
"""
    assert _scipy_modules(body) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["transmission", "--with-antennas", "-o", "{tmp}/t.csv"],
        ["fdtd-validate", "--band", "2:3", "--step", "0.5", "--dz", "2"],
        ["uvalue", "--analytical"],
        ["materials", "list"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_without_a_solve_load_no_scipy(tmp_path, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert _scipy_modules(_main(argv)) == set()


def test_a_finite_volume_solve_loads_scipy_sparse_but_not_optimize():
    loaded = _scipy_modules(_main(["uvalue", "--fv", "--bare"]))
    assert "scipy.sparse" in loaded
    assert "scipy.optimize" not in loaded


def test_a_fit_loads_scipy_optimize(tmp_path):
    f = np.linspace(2.0, 8.0, 13)
    rows = "".join(f"{x:g},{y:.9f}\n" for x, y in zip(f, slab_transmission_db(5.0, 0.0, 0.1, 0.1, 45.0, f)))
    (tmp_path / "slab.csv").write_text("freq_GHz,s21_dB\n" + rows)
    body = f"""
from signalwall.inverse import fit_permittivity, read_spectrum
fit = fit_permittivity(read_spectrum({str(tmp_path / "slab.csv")!r}), thickness_mm=45.0, n_starts=1)
assert fit.converged, fit
"""
    assert "scipy.optimize" in _scipy_modules(body)


def test_a_rejected_fit_exits_2_before_loading_scipy_optimize(tmp_path):
    (tmp_path / "two.csv").write_text("freq_GHz,s21_dB\n2,-10\n8,-30\n")
    argv = ["fit-permittivity", str(tmp_path / "two.csv"), "--thickness", "45"]
    assert "scipy.optimize" not in _scipy_modules(_main(argv, exit_code=2))


def test_a_fit_refused_at_its_start_count_or_seed_loads_no_scipy_optimize(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("freq_GHz,s21_dB\n2,-10\n5,-20\n8,-30\n")
    body = _main(["fit-permittivity", str(path), "--thickness", "45", "--starts", "100000000"], exit_code=2)
    body += f"""
from signalwall.inverse import fit_permittivity, read_spectrum
try:
    fit_permittivity(read_spectrum({str(path)!r}), thickness_mm=45.0, seed=-1)
except ValueError as exc:
    assert str(exc) == "the seed must be >= 0, got -1", exc
else:
    raise AssertionError("a negative seed was accepted")
"""
    assert "scipy.optimize" not in _scipy_modules(body)
