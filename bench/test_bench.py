"""Smoke test of the benchmark: every workload at reduced size, checks on.

    python -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import spectruss  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spectruss import _roots, fem, model, scattering, spectrum  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed.items() <= wanted.items()
    # a per-layer metric may be absent only because its hook target is gone
    assert printed == wanted or (trace and "hooks absent: " in proc.stdout)
    assert "check_fail_frac = " in proc.stdout


def test_run_without_package_source_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _targets():
    return {
        (model.Truss, "__init__"): model.Truss.__dict__["__init__"],
        **{(mod, name): getattr(mod, name) for mod, name in [
            (fem, "subdivide"), (fem, "assemble_stiffness"), (fem, "assemble_mass"),
            (fem, "_free_basis"), (spectrum, "laplacian_evaluator"),
            (spectrum, "assemble_laplacian"), (spectrum, "resonant_mode_check"),
            (scattering, "matching_evaluator"), (_roots, "batched_eval"),
            (_roots, "find_brackets"), (_roots, "bisect_brackets"), (_roots, "_even_roots"),
            (_roots, "modulus_minima"), (_roots, "optimize"),
        ]},
    }


def test_traced_pass_restores_every_patched_name():
    before = _targets()
    tracer = tracing.Tracer()
    cases = workloads.build_inputs("random-trusses", 3, small=True)
    with tracer.installed():
        assert len(tracer.patched) == len(before)
        for (owner, name), original in before.items():
            assert getattr(owner, name) is not original
        res = workloads.run_pass("random-trusses", cases, span=tracer.span)
    assert res.failed == 0
    assert tracer.patched == [] and tracer.missing == []
    for (owner, name), original in before.items():
        assert getattr(owner, name) is original, f"{owner}.{name} not restored"
    layers = tracer.metrics()
    assert layers["spectrum.d_evals"][0] > 0 and layers["fem.det_points"][0] > 0


def test_missing_hook_target_leaves_its_metrics_out(monkeypatch):
    monkeypatch.delattr(_roots, "_even_roots")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["_roots._even_roots"]
    layers = tracer.metrics()
    assert "roots.even_s" not in layers and "roots.even_accepted" not in layers
    assert "roots.grid_s" in layers


def test_template_seed_reproduces_the_plain_generator():
    rng = np.random.default_rng(workloads.TEMPLATE_SEED)
    plain = [workloads.random_truss(rng) for _ in range(12)]
    templated = workloads.random_trusses(workloads.TEMPLATE_SEED, 12)
    for a, b in zip(plain, templated):
        assert spectruss.truss_to_json(a) == spectruss.truss_to_json(b)
    for a, b in zip(plain, workloads.random_trusses(workloads.TEMPLATE_SEED + 1, 12)):
        assert a.joints == b.joints
        assert [r.joints for r in a.rods] == [r.joints for r in b.rods]
        assert [r.area for r in a.rods] != [r.area for r in b.rods]


def test_inertia_count_settles_a_root_the_reference_misses():
    # draw 8 of seed 0 has natural frequencies 1.2e-3 apart near 1.782; the x3
    # subdivided sweep's grid finds only the lower one
    case = workloads.build_inputs("random-trusses", 0)[8]
    basis = checks.rod_span_basis(case.truss)
    sweep = spectruss.find_natural_frequencies(case.truss, case.window, threads=1)
    reference = spectruss.find_natural_frequencies(
        spectruss.subdivide(case.truss, 3), case.window, threads=1).omegas
    upper = [w for w in sweep.omegas if abs(w - 1.7825278) < 1e-6]
    assert upper and checks.confirmed(case.truss, basis, upper[0])
    assert not checks.confirmed(case.truss, basis, 1.79)
    settled, notes = checks.settle_reference(case, reference, [("sweep", sorted(sweep.omegas))])
    assert len(notes) == 1 and "1.782527" in notes[0]
    log = checks.CheckLog()
    checks._record_match(log, "subdivision", checks.distinct(sweep.omegas), settled,
                         checks.MATCH_RTOL, case, "draw 8")
    assert log.failed == 0
