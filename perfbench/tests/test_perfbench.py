"""The benchmark's own tests: python -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(root: Path, *args, timeout=300):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=timeout,
    )
    return proc


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _checkout_copy(tmp_path: Path) -> Path:
    copy = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(BENCH, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    return copy


def test_tiny_smoke_run_prints_the_contract_line():
    proc = _bench(ROOT, "--workload", "fdtd_xval", "--seed", "2", "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_and_the_overhead():
    proc = _bench(ROOT, "--workload", "spectra_fit", "--seed", "2", "--seconds", "1", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    metrics = _result(proc)["metrics"]
    assert set(metrics) == set(run.per_layer_units())
    for layer in ("materials", "layered_em", "inverse", "cli", "scenario", "antenna_link"):
        assert metrics[f"{layer}.self_s"]["value"] > 0.0, layer
    assert "trace.overhead_share" in metrics
    assert metrics["inverse.objective_evals"]["value"] > 0


def test_failed_check_fails_the_run(tmp_path):
    copy = _checkout_copy(tmp_path)
    fdtd = copy / "src" / "signalwall" / "fdtd.py"
    text = fdtd.read_text()
    assert "fdtd_db = amplitude_db(fdtd_t)" in text
    fdtd.write_text(text.replace("fdtd_db = amplitude_db(fdtd_t)", "fdtd_db = amplitude_db(fdtd_t) + 1.0"))
    proc = _bench(copy, "--workload", "fdtd_xval", "--seed", "2", "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode == 1
    result = _result(proc)
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert "FDTD disagrees with TMM" in proc.stdout


def test_golden_mismatch_fails_its_check():
    golden = workloads.Golden("fdtd_xval", enabled=True)
    table = (golden.dir / "table.txt").read_bytes()
    golden.compare("table.txt", table)
    with pytest.raises(workloads.CheckFailed, match="differs from its golden copy"):
        golden.compare("table.txt", table.replace(b"0", b"1", 1))
    with pytest.raises(workloads.CheckFailed, match="missing"):
        golden.compare("absent.txt", b"")


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    copy = tmp_path / "bare"
    shutil.copytree(BENCH, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    proc = _bench(copy, "--workload", "fdtd_xval", "--seed", "1", "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bindings(modules):
    seen = {}
    for module in modules:
        for attr, obj in vars(module).items():
            seen[module.__name__, attr] = obj
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for name, member in vars(obj).items():
                    seen[f"{module.__name__}.{attr}", name] = member
    return seen


def test_trace_wrappers_restore_the_original_functions():
    import signalwall.cli as cli
    import signalwall.design_sweep as design_sweep
    import signalwall.layered_em as layered_em
    import signalwall.materials as materials
    import signalwall.thermal as thermal

    wall = cli.load_scenario().wall  # fills the material cache before the snapshot
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("signalwall")]
    before = _bindings(modules)
    original_solve = thermal.solve_steady_state
    tracer = tracing.Tracer()
    with tracer:
        assert tracer.install(modules) > 50
        for bound in (cli.solve_steady_state, design_sweep.solve_steady_state, thermal.solve_steady_state):
            assert bound is not original_solve and bound.__perfbench_original__ is original_solve
        assert materials.Material.complex_permittivity.__perfbench_original__ is not None
        cli.load_scenario()
        layered_em.tmm_coefficients(wall, layered_em.Incidence(3.5))
    after = _bindings(modules)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    names = [s.name for s in tracer.spans]
    assert "scenario.load_scenario" in names and "layered_em.tmm_coefficients" in names
    tmm = next(s for s in tracer.spans if s.name == "layered_em._tmm_linear")
    assert tracer.spans[tmm.parent_id].name == "layered_em.tmm_coefficients"


def test_self_time_subtracts_children():
    spans = [
        tracing.Span(0, None, "r", "cli.main", 0.0, 10.0),
        tracing.Span(1, 0, "r", "thermal.solve_steady_state", 1.0, 7.0),
        tracing.Span(2, 1, "r", "materials.permittivity_at", 2.0, 3.0),
    ]
    assert tracing.self_times(spans) == [4.0, 5.0, 1.0]


def test_independent_slab_model_matches_the_program():
    from signalwall.inverse import slab_transmission

    f = workloads.FIT_GRID_GHZ
    ours = workloads.slab_s21(5.24, 0.0462, 0.7822, 45.0, f)
    theirs = slab_transmission(5.24, 0.0, 0.0462, 0.7822, 45.0, f)
    assert np.allclose(ours, theirs, rtol=1e-9, atol=0.0)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    make = lambda d: workloads.WORKLOADS[name](5, d, ROOT / "src")
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    a, b = make(one), make(two)
    assert json.dumps(a.inputs, default=str) == json.dumps(b.inputs, default=str)
    for path in one.iterdir():
        assert path.read_bytes() == (two / path.name).read_bytes()
