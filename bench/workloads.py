"""Workload inputs and the timed pass of each workload.

The generators live here rather than in the test suite, so that editing a test
cannot change what the benchmark measures. Only the rod areas of the random
trusses depend on the seed; the lattice, the wavefront drive and the topology and
joint positions of every random draw are fixed.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import spectruss
from spectruss import (
    Impulse,
    Joint,
    Material,
    Rod,
    Truss,
    extract_modes,
    fem_frequencies,
    find_natural_frequencies,
    reverberation_frequencies,
    simulate_wavefronts,
)
from spectruss.scattering import TOWARD_START

from checks import spans_dimension
from hostspeed import SpeedLog

LATTICE_SIDE = 8  # joints per side: 64 joints, 161 rods, 112 free DOF
WINDOW = (0.05, 1.2 * math.pi)  # omega * tau_min, the command line's default window
RANDOM_DRAWS = 40
# Random draw k takes its topology and joint positions from draw k of this seed
# and its areas from the run's seed. Positions fix every transit time, hence the
# poles and grid sizes, so the work of a run does not hinge on how close two
# random joints happen to lie (the shortest rod sets the window, and its
# length is heavy-tailed); the areas move the roots relative to the poles.
TEMPLATE_SEED = 0
FEM_DIVISIONS = 4
WAVE_T_MAX = 45.0
WAVE_MIN_AMPLITUDE = 1e-6
WAVE_SNAPSHOTS = (0.25, 0.5, 0.75, 1.0)  # fractions of WAVE_T_MAX


def braced_lattice(side: int = LATTICE_SIDE) -> Truss:
    """Unit grid: joint (i, j) has rods to (i+1, j), (i, j+1) and (i+1, j+1); row j=0 anchored."""
    joints = [
        Joint(f"{i},{j}", (float(i), float(j)), anchored=(j == 0))
        for j in range(side)
        for i in range(side)
    ]
    rods = []
    for j in range(side):
        for i in range(side):
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                a, b = i + di, j + dj
                if a < side and b < side:
                    rods.append(Rod(f"{i},{j}-{a},{b}", (f"{i},{j}", f"{a},{b}"), 1.0, "unit"))
    return Truss(2, joints, rods, {"unit": Material("unit", 1.0, 1.0)})


@dataclass(frozen=True)
class Template:
    dim: int
    positions: tuple  # one coordinate tuple per joint
    pairs: tuple  # the extra-rod endpoint pairs as drawn, duplicates included


def random_truss(rng, template: Template | None = None) -> Truss:
    """Small connected truss with random geometry, areas and dimension.

    Draws from rng in the same order as the test suite's generator. A template
    replaces the dimension, joint positions and extra-rod pairs drawn, while
    the rng stays in step, so that the rng decides only the areas.
    """
    dim = int(rng.integers(2, 4))
    n_joints = int(rng.integers(3, 7))
    if template is not None:
        dim, n_joints = template.dim, len(template.positions)
    positions = [tuple(rng.uniform(-1.0, 1.0, size=dim)) for _ in range(n_joints)]
    if template is not None:
        positions = template.positions
    joints = [Joint(f"j{i}", p) for i, p in enumerate(positions)]
    rods = []
    seen = set()
    for i in range(n_joints - 1):  # spanning chain keeps the graph connected
        rods.append(Rod(f"r{i}", (f"j{i}", f"j{i + 1}"), float(rng.uniform(0.5, 2.0)), "m"))
        seen.add((i, i + 1))
    for k in range(n_joints):
        a, b = (int(x) for x in sorted(rng.choice(n_joints, size=2, replace=False)))
        if template is not None:
            a, b = template.pairs[k]
        if (a, b) in seen:
            continue
        seen.add((a, b))
        rods.append(Rod(f"r{a}_{b}", (f"j{a}", f"j{b}"), float(rng.uniform(0.5, 2.0)), "m"))
    return Truss(dim, joints, rods, {"m": Material("m", 1.0, 1.0)})


def _templates(count: int):
    """Dimension, positions and drawn pairs of the first `count` trusses of TEMPLATE_SEED."""
    rng = np.random.default_rng(TEMPLATE_SEED)
    out = []
    for _ in range(count):
        dim = int(rng.integers(2, 4))
        n_joints = int(rng.integers(3, 7))
        positions = tuple(tuple(rng.uniform(-1.0, 1.0, size=dim)) for _ in range(n_joints))
        rng.uniform(0.5, 2.0, size=n_joints - 1)
        seen = {(i, i + 1) for i in range(n_joints - 1)}
        pairs = []
        for _ in range(n_joints):
            pair = tuple(int(x) for x in sorted(rng.choice(n_joints, size=2, replace=False)))
            pairs.append(pair)
            if pair not in seen:
                seen.add(pair)
                rng.uniform(0.5, 2.0)
        out.append(Template(dim, positions, tuple(pairs)))
    return out


def random_trusses(seed: int, count: int = RANDOM_DRAWS):
    rng = np.random.default_rng(seed)
    return [random_truss(rng, template) for template in _templates(count)]


def window_for(truss: Truss) -> spectruss.FrequencyWindow:
    return spectruss.FrequencyWindow(WINDOW[0] / truss.tau_min, WINDOW[1] / truss.tau_min)


@dataclass
class Case:
    """One truss of a workload and the fixed frequency window it is swept over."""

    truss: Truss
    window: spectruss.FrequencyWindow
    reverb: bool = False  # every free joint spans the dimension
    t_max: float = WAVE_T_MAX


def build_inputs(workload: str, seed: int, small: bool = False):
    """The workload's cases; `small` shrinks every input for a quick smoke run."""
    t_max = WAVE_T_MAX / 5 if small else WAVE_T_MAX
    if workload == "random-trusses":
        return [Case(t, window_for(t), spans_dimension(t))
                for t in random_trusses(seed, 4 if small else RANDOM_DRAWS)]
    if workload in ("lattice", "wavefront"):
        lattice = braced_lattice(4 if small else LATTICE_SIDE)
        return [Case(lattice, window_for(lattice), t_max=t_max)]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class PassResult:
    """Outputs and stage times of one pass over a workload's cases."""

    stages: dict = field(default_factory=dict)  # stage name -> wall seconds
    outputs: list = field(default_factory=list)  # per case: dict of outputs
    attempted: int = 0  # calls into the package
    failed: int = 0  # calls that raised
    errors: list = field(default_factory=list)
    seconds: float = 0.0  # wall time of the pass
    traced: bool = False
    fingerprint: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)  # per-layer metrics of a traced pass
    missing: list = field(default_factory=list)  # hooks absent in a traced pass
    summary: dict = field(default_factory=dict)  # counts read from the outputs
    speed: SpeedLog = field(default_factory=SpeedLog)  # host speed probes during the pass
    scaled: dict = field(default_factory=dict)  # stage name -> seconds at reference speed


class _Stage:
    """Records the time of a block under one stage and counts the operation."""

    def __init__(self, result: PassResult, name: str, span):
        self.result, self.name, self.span = result, name, span

    def __enter__(self):
        self.result.attempted += 1
        self.ctx = self.span(self.name)
        self.ctx.__enter__()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.result.speed.record(self.name, self.t0, time.perf_counter())
        self.ctx.__exit__(exc_type, exc, tb)
        if exc_type is not None and issubclass(exc_type, Exception):
            self.result.failed += 1
            self.result.errors.append(f"{self.name}: {exc_type.__name__}: {exc}")
            return True  # an operation that raised is counted, not fatal
        return False


def _no_span(name):
    return nullcontext()


def run_pass(workload: str, cases, span=_no_span) -> PassResult:
    """One pass of the workload; `span(name)` opens a trace span around each call."""
    res = PassResult()
    with res.speed.running():
        for case in cases:
            run_case(workload, case, res, span)
    res.stages, res.scaled = res.speed.totals()
    return res


def run_case(workload, case, res, span):
    out = {}
    res.outputs.append(out)
    truss, window = case.truss, case.window
    if workload == "wavefront":
        impulse = Impulse(truss.rods[-1].id, TOWARD_START, -1.0)
        with _Stage(res, "simulate_s", span):
            sim = simulate_wavefronts(truss, [impulse], case.t_max,
                                      min_amplitude=WAVE_MIN_AMPLITUDE)
            out["sim"] = sim
        with _Stage(res, "profile_s", span):
            out["profiles"] = [sim.stress_profile(f * case.t_max) for f in WAVE_SNAPSHOTS]
        return

    with _Stage(res, "sweep_s", span):
        out["sweep"] = find_natural_frequencies(truss, window, threads=1)
    regular = sorted({m.omega for m in out.get("sweep", ()) if m.kind == "regular"})
    out["modes"] = {}
    for omega in regular:
        with _Stage(res, "modes_s", span):
            out["modes"][omega] = extract_modes(truss, omega)
    if workload != "random-trusses":
        return
    for kind in ("consistent", "lumped"):
        with _Stage(res, "fem_s", span):
            out[f"fem_{kind}"] = fem_frequencies(truss, window, kind, FEM_DIVISIONS, threads=1)
    if case.reverb:
        with _Stage(res, "reverb_s", span):
            out["reverb"] = reverberation_frequencies(truss, window, threads=1)
