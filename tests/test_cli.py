import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectruss
from spectruss import _roots, load_truss
from spectruss.cli import main


@pytest.fixture
def bridge_file(tmp_path):
    from spectruss import builtin_structure, truss_to_json

    path = tmp_path / "bridge.json"
    path.write_text(truss_to_json(builtin_structure("bridge")))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    from spectruss import builtin_structure, truss_to_json

    path = tmp_path / "square.json"
    path.write_text(truss_to_json(builtin_structure("square")))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_round_trip(capsys):
    code, out, _ = run(capsys, "example", "square")
    assert code == 0
    truss = load_truss(out)
    assert len(truss.rods) == 5


def test_example_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["example", "pyramid"])
    assert exc.value.code == 2  # argparse rejects the choice


def test_freqs_bridge_csv(capsys, bridge_file):
    code, out, _ = run(capsys, "freqs", bridge_file, "--method", "laplacian",
                       "--omega-max", "3.2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,omega,kind"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 7
    kinds = [r[2] for r in rows]
    assert kinds == ["regular"] * 5 + ["resonant", "interior"]
    assert [float(r[1]) for r in rows[-2:]] == pytest.approx([math.pi] * 2, abs=1e-9)


def test_freqs_json_format(capsys, bridge_file):
    code, out, _ = run(capsys, "freqs", bridge_file, "--format", "json",
                       "--omega-max", "3.2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 7
    assert {"omega", "kind"} <= set(doc[0])


def test_freqs_fem_count(capsys, square_file):
    code, out, _ = run(capsys, "freqs", square_file, "--method", "fem-consistent",
                       "--divisions", "8", "--count", "5", "--omega-max", "4.8")
    assert code == 0
    assert len(out.strip().splitlines()) == 6  # header + 5 rows


def test_freqs_reverberation_method(capsys, bridge_file):
    code, out, _ = run(capsys, "freqs", bridge_file, "--method", "reverberation",
                       "--omega-max", "3.2")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 6
    assert float(rows[-1].split(",")[1]) == pytest.approx(math.pi, abs=1e-8)


def test_freqs_missing_file(capsys):
    code, out, err = run(capsys, "freqs", "/no/such/file.json")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_modes_resonant_flag(capsys, square_file):
    code, out, _ = run(capsys, "modes", square_file, "--omega", str(math.pi))
    assert code == 0
    doc = json.loads(out)
    assert doc and all(m["kind"] == "resonant" for m in doc)
    assert all(m["resonant_order"] == 1 for m in doc)


def test_modes_bridge_minus_third(capsys, bridge_file):
    omega = math.acos(-1.0 / 3.0)
    code, out, _ = run(capsys, "modes", bridge_file, "--omega", repr(omega))
    assert code == 0
    doc = json.loads(out)
    u3 = doc[0]["displacements"]["3"]
    assert abs(u3[1]) < 1e-8
    assert set(doc[0]["anchor_forces"]) == {"1", "5"}


def test_modes_between_roots(capsys, bridge_file):
    code, _, err = run(capsys, "modes", bridge_file, "--omega", "1.5")
    assert code == 3
    assert "nearest root" in err
    code, _, err = run(capsys, "modes", bridge_file, "--omega", "1.0")
    assert code == 3
    assert "smallest relative singular value 1.238e-01" in err


def test_modes_outside_the_pole_guard_of_a_long_rod(capsys, tmp_path):
    # free joint b between anchors a, d (rods of length 1) and c (rod bc of
    # length 3): only bc resonates at pi/3, with no natural mode there. A
    # frequency within the root tolerance of the pole takes the resonance
    # path; any other is a regular frequency, bordered at bc if that is near
    from spectruss import Joint, Material, Rod, Truss, truss_to_json

    joints = [Joint("a", (0.0, 0.0), anchored=True), Joint("b", (1.0, 0.0)),
              Joint("c", (1.0, 3.0), anchored=True), Joint("d", (2.0, 0.0), anchored=True)]
    rods = [Rod(f"{x}{y}", (x, y), 1.0, "unit") for x, y in ("ab", "bc", "bd")]
    path = tmp_path / "tee.json"
    path.write_text(truss_to_json(Truss(2, joints, rods, {"unit": Material("unit", 1.0, 1.0)})))
    for offset in (5e-6, 2e-6):
        code, _, err = run(capsys, "modes", str(path), "--omega", repr(math.pi / 3 + offset))
        assert code == 3
        assert "has no null space" in err and "rod resonance" not in err
    code, _, err = run(capsys, "modes", str(path), "--omega", repr(math.pi / 3))
    assert code == 3
    assert "rod resonance with no natural mode" in err


def test_modes_at_the_bridge_pole_report_interior_modes(capsys, bridge_file):
    code, out, _ = run(capsys, "modes", bridge_file, "--omega", repr(math.pi))
    assert code == 0
    doc = json.loads(out)
    assert [m["kind"] for m in doc] == ["resonant", "interior", "interior"]
    assert doc[0]["rod_amplitudes"] is None
    for mode in doc[1:]:
        assert all(v == [0.0, 0.0] for v in mode["displacements"].values())
        assert len(mode["rod_amplitudes"]) == 7
        assert sum(x * x for x in mode["rod_amplitudes"].values()) == pytest.approx(1.0)


def test_modes_at_a_rounded_pole_report_the_poles_modes(capsys, square_file):
    # 3.1415926536 lies within half the root tolerance of the pole at pi
    _, exact, _ = run(capsys, "modes", square_file, "--omega", repr(math.pi))
    code, out, _ = run(capsys, "modes", square_file, "--omega", "3.1415926536")
    assert code == 0
    assert out == exact
    assert [m["kind"] for m in json.loads(out)] == ["resonant", "resonant"]


def test_modes_just_off_the_bridge_pole_report_only_the_joint_moving_mode(capsys, bridge_file):
    # pi * (1 +- 1e-9) lies outside the root tolerance of pi, so extract_modes
    # takes it. D is singular there to MODE_TOL along the resonant mode's
    # shape; the interior directions are below the cutoff only because the
    # border's corner is small, and they are no modes of D
    _, out, _ = run(capsys, "modes", bridge_file, "--omega", repr(math.pi))
    resonant = json.loads(out)[0]["displacements"]
    for omega in (math.pi * (1.0 + 1e-9), math.pi * (1.0 - 1e-9)):
        code, out, _ = run(capsys, "modes", bridge_file, "--omega", repr(omega))
        assert code == 0
        (mode,) = json.loads(out)
        assert mode["kind"] == "regular" and mode["rod_amplitudes"] is None
        for jid, u in mode["displacements"].items():
            assert u == pytest.approx(resonant[jid], abs=1e-6)


def test_compare_row_count(capsys, square_file):
    code, out, _ = run(capsys, "compare", square_file, "--divisions", "1,2,4,8",
                       "--count", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,divisions,index,omega,rel_error_vs_laplacian"
    assert len(lines) - 1 >= 5 * (2 * 4 + 1)
    lap_rows = [l for l in lines[1:] if l.startswith("laplacian")]
    by_div = {}
    for row in lap_rows:
        _, d, i, w, err = row.split(",")
        by_div.setdefault(d, []).append(w)
        assert err == "0"
    values = list(by_div.values())
    assert all(v == values[0] for v in values)  # replicated straight lines


def test_freqs_square_golden(capsys, square_file):
    # the unit square's spectrum is evenly spaced at multiples of pi/(2+sqrt 2)
    code, out, _ = run(capsys, "freqs", square_file)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    step = math.pi / (2.0 + math.sqrt(2.0))
    expected = [step, 2 * step, 3 * step, math.pi, 4 * step]
    assert [float(r[1]) for r in rows] == pytest.approx(expected, abs=1e-8)
    assert [r[2] for r in rows] == ["regular"] * 3 + ["resonant", "regular"]


def test_compare_bridge(capsys, bridge_file):
    code, out, _ = run(capsys, "compare", bridge_file, "--divisions", "1,2",
                       "--count", "6")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    fem_rows = [l for l in lines if l.startswith("fem-")]
    assert fem_rows
    # every error entry is a sane nonnegative relative deviation
    assert all(0.0 <= float(l.split(",")[4]) < 1.0 for l in fem_rows)


def test_bench_csv(capsys, square_file):
    code, out, _ = run(capsys, "bench", square_file, "--divisions", "1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "divisions,laplacian_s,reverberation_s,fem_consistent_s,fem_lumped_s"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert all(float(c) > 0.0 for c in cells[1:])


def test_simulate_events_and_snapshots(capsys, square_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "simulate", square_file, "--impulse", "12:1:-1.0", "--t-max", "2.5",
        "--snapshot", "0.5", "--bins", "10",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time,joint,rod_in,rod_out,amplitude"
    first = lines[1].split(",")
    assert first[1] == "2" and float(first[0]) == pytest.approx(1.0)
    snap = (tmp_path / "snapshot_0.5.csv").read_text().strip().splitlines()
    assert snap[0] == "rod,z_over_L,stress"
    assert len(snap) == 1 + 10 * 5


def test_simulate_zero_horizon(capsys, square_file):
    code, out, _ = run(capsys, "simulate", square_file, "--impulse", "12:1:-1.0",
                       "--t-max", "0")
    assert code == 0
    assert out.strip() == "time,joint,rod_in,rod_out,amplitude"


def test_simulate_explosion_exit(capsys, square_file, tmp_path):
    h = 1.6180339887498949
    joints = [
        {"id": "1", "position": [0.0, 0.0]},
        {"id": "2", "position": [1.0, 0.0]},
        {"id": "3", "position": [0.0, h]},
        {"id": "4", "position": [1.0, h]},
    ]
    doc = {
        "dimension": 2,
        "materials": {"m": {"youngs_modulus": 1.0, "density": 1.0}},
        "joints": joints,
        "rods": [
            {"joints": ["1", "2"], "area": 1.0, "material": "m"},
            {"joints": ["1", "3"], "area": 1.0, "material": "m"},
            {"joints": ["2", "4"], "area": 1.0, "material": "m"},
            {"joints": ["3", "4"], "area": 1.0, "material": "m"},
            {"joints": ["2", "3"], "area": 1.0, "material": "m"},
        ],
    }
    path = tmp_path / "rect.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "simulate", str(path), "--impulse", "12:1:-1.0",
                       "--t-max", "80", "--front-cap", "200")
    assert code == 3
    assert "min_amplitude" in err


def test_simulate_snapshot_past_the_horizon_writes_nothing(capsys, bridge_file, tmp_path):
    # the snapshot times are checked before the event log is printed
    code, out, err = run(capsys, "simulate", bridge_file, "--impulse", "12:2:-1.0", "--t-max", "2.0",
                         "--snapshot", "3.0", "--snapshot-prefix", str(tmp_path / "snap_"))
    assert code == 2
    assert out == ""
    assert err == "error: snapshot time 3.0 exceeds simulated horizon 2.0\n"
    assert not list(tmp_path.glob("snap_*"))


def test_modes_takes_no_threads(capsys, bridge_file):
    # modes sweeps serially, for its nearest-root hint only
    with pytest.raises(SystemExit) as exc:
        main(["modes", bridge_file, "--omega", "3.141592653589793", "--threads", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 7" in capsys.readouterr().err


def test_simulate_bad_impulse(capsys, square_file):
    code, _, err = run(capsys, "simulate", square_file, "--impulse", "99:1:-1.0")
    assert code == 2
    assert "99" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate", "{square}", "--impulse", "12:1"),
         "error: impulse '12:1' must be ROD:LAUNCH_JOINT:STRESS[:START_TIME]"),
        (("simulate", "{square}", "--impulse", "12:4:-1.0"),
         "error: joint '4' is not an endpoint of rod '12'"),
        (("compare", "{square}", "--divisions", "x"), "error: invalid divisions list 'x'"),
        (("compare", "{square}", "--divisions", "0"), "error: divisions must be positive integers, got '0'"),
        (("verify",), "error: provide a structure file or --builtin"),
        (("example", "square", "--scale", "0"), "error: scale must be > 0, got 0.0"),
        (("simulate", "{square}", "--impulse", "12:1:-1.0", "--t-max", "nan"),
         "error: t_max must be >= 0, got nan"),
        (("simulate", "{square}", "--impulse", "12:1:nan"),
         "error: impulse on rod '12': stress_amplitude must be a finite number, not nan"),
        (("simulate", "{square}", "--impulse", "12:1:-1.0", "--bins", "0"),
         "error: --bins must be >= 1, got 0"),
        (("simulate", "{square}", "--impulse", "12:1:-1.0", "--min-amplitude", "nan"),
         "error: min_amplitude must be >= 0, got nan"),
        (("simulate", "{square}", "--impulse", "12:1:-1.0", "--min-amplitude", "-1"),
         "error: min_amplitude must be >= 0, got -1.0"),
        (("simulate", "{square}", "--impulse", "12:1:-1.0", "--front-cap", "0"),
         "error: front_cap must be >= 1, got 0"),
        (("simulate", "{square}", "--impulse", "12:1:-1.0", "--front-cap", "-5"),
         "error: front_cap must be >= 1, got -5"),
        # refused before the event log is printed, as a snapshot past the horizon is
        (("simulate", "{square}", "--impulse", "12:1:-1.0", "--snapshot", "1.0",
          "--snapshot-prefix", "{tmp}/no/x_"),
         "error: cannot write snapshot '{tmp}/no/x_1.csv': No such file or directory"),
        # every method is refused before it sweeps to an infinite upper end
        *((("freqs", "{square}", "--omega-max", "inf", "--method", method),
           "error: omega_max must be finite, got inf")
          for method in ("laplacian", "fem-consistent", "reverberation")),
    ],
)
def test_input_errors_exit_2_with_one_line(capsys, square_file, tmp_path, argv, message):
    code, out, err = run(capsys, *(arg.format(square=square_file, tmp=tmp_path) for arg in argv))
    assert code == 2
    assert out == ""
    assert err == message.format(tmp=tmp_path) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("freqs", "{bridge}", "--count", "-1"),
        ("compare", "{bridge}", "--count", "-2"),
        ("freqs", "{bridge}", "--count", "two"),
        ("freqs", "{bridge}", "--threads", "0"),
        ("freqs", "{bridge}", "--threads", "-3"),
        ("compare", "{bridge}", "--threads", "0"),
        ("bench", "{bridge}", "--threads", "0"),
    ],
)
def test_parser_refuses_a_negative_count_and_threads_below_one(capsys, bridge_file, argv):
    # a negative --count sliced rows off the end, and --threads 0 ran serially, both with exit 0
    with pytest.raises(SystemExit) as exc:
        main([arg.format(bridge=bridge_file) for arg in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    low = 0 if argv[2] == "--count" else 1
    assert f"argument {argv[2]}: must be an integer >= {low}, got {argv[3]!r}" in err


def test_a_zero_count_prints_the_header_only(capsys, bridge_file):
    code, out, _ = run(capsys, "freqs", bridge_file, "--count", "0")
    assert (code, out) == (0, "index,omega,kind\n")


def test_verify_builtins(capsys):
    for name in ("square", "bridge"):
        code, out, _ = run(capsys, "verify", "--builtin", name)
        assert code == 0
        assert "FAIL" not in out


def test_verify_user_truss_generic_only(capsys, bridge_file):
    code, out, _ = run(capsys, "verify", bridge_file)
    assert code == 0
    assert "Taylor" in out
    assert "reference table" not in out


def test_import_leaves_scipy_optimize_to_first_use(monkeypatch):
    src = Path(spectruss.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, spectruss, spectruss.cli; print('scipy.optimize' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert proc.stdout.strip() == "False"

    import scipy.optimize

    assert _roots.optimize is scipy.optimize
    # the stand-in the benchmark's tracer puts in place is the object both searches call
    methods = []

    class StandIn:
        def minimize_scalar(self, *args, **kwargs):
            methods.append(kwargs["method"])
            return scipy.optimize.minimize_scalar(*args, **kwargs)

    monkeypatch.setattr(_roots, "optimize", StandIn())
    assert _roots._golden(lambda x: (x - 1.0) ** 2, (0.0, 0.5, 3.0), 1e-10) == pytest.approx(1.0, abs=1e-6)
    assert methods == ["golden"]
    # the first grid cell holds pi, so the end search runs as well as the interior one
    minima = _roots.modulus_minima(lambda xs: np.log(np.abs(np.sin(xs))), math.pi - 0.01, 7.0, 50,
                                   lambda x: 1e-12)
    assert sorted(minima) == pytest.approx([math.pi, 2 * math.pi], abs=1e-9)
    assert sorted(methods) == ["bounded", "golden", "golden"]


# Builds, writes, reads and subdivides the bridge, runs the wavefront simulator
# with its views and `spectruss simulate` with a snapshot, then prints the
# scipy modules loaded so far and the bridge's natural frequencies.
NO_FACTORING = """
import contextlib, io, json, sys
from pathlib import Path
import spectruss, spectruss.cli
from spectruss import (FrequencyWindow, Impulse, builtin_structure, find_natural_frequencies,
                       load_truss, simulate_wavefronts, subdivide, truss_to_json)

tmp = Path(sys.argv[1])
path = tmp / "bridge.json"
path.write_text(truss_to_json(builtin_structure("bridge")))
bridge = load_truss(path.read_text())
subdivide(bridge, 2)
sim = simulate_wavefronts(bridge, [Impulse("12", "toward_end", -1.0)], 2.0)
sim.stress_profile(1.0), sim.active_fronts(1.0), sim.events
with contextlib.redirect_stdout(io.StringIO()):
    code = spectruss.cli.main(["simulate", str(path), "--impulse", "12:2:-1.0", "--t-max", "2.0",
                               "--snapshot", "1.0", "--snapshot-prefix", str(tmp / "snap_")])
assert code == 0 and (tmp / "snap_1.csv").exists()
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
roots = find_natural_frequencies(bridge, FrequencyWindow(0.05, 4.0)).omegas
print(json.dumps({"scipy": loaded, "roots": [float(w).hex() for w in roots]}))
"""


def test_start_up_and_the_wavefront_simulator_load_no_scipy(tmp_path):
    src = Path(spectruss.__file__).resolve().parents[1]

    def run_script(prelude, directory):
        directory.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", prelude + NO_FACTORING, str(directory)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            check=True, timeout=120,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    lazy = run_script("", tmp_path / "lazy")
    assert lazy["scipy"] == []
    # the first sweep loads scipy, and finds what it finds with scipy loaded up front
    eager = run_script("import scipy.linalg, scipy.sparse, scipy.optimize\n", tmp_path / "eager")
    assert "scipy.linalg" in eager["scipy"]
    assert lazy["roots"] == eager["roots"] and len(lazy["roots"]) > 0
