import numpy as np
import pytest
from hypothesis import settings

from spectruss import Joint, Material, Rod, Truss, builtin_structure

# the @given tests draw the same examples on every run, locally and in CI
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def square():
    return builtin_structure("square")


@pytest.fixture
def bridge():
    return builtin_structure("bridge")


def random_truss(rng):
    """Small connected truss with random geometry, areas and dimension."""
    dim = int(rng.integers(2, 4))
    n_joints = int(rng.integers(3, 7))
    joints = [Joint(f"j{i}", tuple(rng.uniform(-1.0, 1.0, size=dim))) for i in range(n_joints)]
    rods = []
    seen = set()
    for i in range(n_joints - 1):  # spanning chain keeps the graph connected
        rods.append(Rod(f"r{i}", (f"j{i}", f"j{i + 1}"), float(rng.uniform(0.5, 2.0)), "m"))
        seen.add((i, i + 1))
    for _ in range(n_joints):
        a, b = sorted(rng.choice(n_joints, size=2, replace=False))
        if (a, b) in seen:
            continue
        seen.add((a, b))
        rods.append(Rod(f"r{a}_{b}", (f"j{a}", f"j{b}"), float(rng.uniform(0.5, 2.0)), "m"))
    return Truss(dim, joints, rods, {"m": Material("m", 1.0, 1.0)})


def braced_lattice(side):
    """Unit grid: joint (i, j) has rods to (i+1, j), (i, j+1) and (i+1, j+1); row j=0 anchored.

    At side 8 this is the benchmark's lattice: 112 free DOF, half-bandwidth 19.
    """
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


def align_sign(candidate, reference):
    """Flip candidate so it points along reference; both stay un-normalized."""
    candidate = np.asarray(candidate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return -candidate if float(candidate @ reference) < 0.0 else candidate


def mode_vector(mode, joint_ids):
    return np.concatenate([mode.displacements[j] for j in joint_ids])
