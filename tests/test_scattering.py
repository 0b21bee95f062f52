import gc
import heapq
import math
import re
import sys
import tracemalloc
from array import array
from bisect import bisect_right
from typing import NamedTuple

import numpy as np
import pytest

from spectruss import (
    EventExplosionError,
    FrequencyWindow,
    Impulse,
    Joint,
    Material,
    Rod,
    Truss,
    builtin_structure,
    find_natural_frequencies,
    reverberation_determinant,
    reverberation_frequencies,
    scatter,
    simulate_wavefronts,
    subdivide,
    transmission_matrix,
)
from conftest import braced_lattice, random_truss
from spectruss import _roots
from spectruss.assembly import _span_frames
from spectruss.scattering import (
    TOWARD_END,
    TOWARD_START,
    ScatterEvent,
    WavefrontSimulation,
    _FrontColumns,
    _matching_eval,
    _transmission,
    _window_clusters,
    matching_evaluator,
    reverberation_dof,
)
from test_spectrum import _default_window, _draws

SQRT2 = math.sqrt(2.0)


def _reorder(tm, wanted):
    """Permute a transmission matrix into the requested neighbor ordering."""
    perm = [tm.column_order.index(j) for j in wanted]
    return tm.entries[np.ix_(perm, perm)]


def test_square_joint2_closed_form(square):
    # neighbor ordering (1, 4, 3) = rods (12, 24, 23)
    tm = transmission_matrix(square, "2")
    got = _reorder(tm, ("1", "4", "3"))
    expected = 0.5 * np.array(
        [[1.0, -1.0, SQRT2], [-1.0, 1.0, SQRT2], [SQRT2, SQRT2, 0.0]]
    )
    assert np.allclose(got, expected, atol=1e-12)


def test_square_corner_identity(square):
    for joint in ("1", "4"):
        tm = transmission_matrix(square, joint)
        assert np.allclose(tm.entries, np.eye(2), atol=1e-12)


def _random_star(rng, dim):
    """A joint with >= dim rods in general position plus satellite joints.

    Directions are redrawn until the coupling Gram matrix is well conditioned,
    so the 1e-12 involution bound is meaningful rather than dominated by
    amplified round-off.
    """
    n = int(rng.integers(dim, dim + 4))
    while True:
        dirs = rng.normal(size=(n, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        lams = rng.uniform(0.5, 2.0, size=n)
        gram = dirs.T @ np.diag(lams) @ dirs
        if np.linalg.matrix_rank(dirs) == dim and np.linalg.cond(gram) < 200.0:
            break
    joints = [Joint("hub", tuple(np.zeros(dim)))]
    rods = []
    for i, d in enumerate(dirs):
        joints.append(Joint(f"s{i}", tuple(d * float(rng.uniform(0.5, 2.0)))))
        area = lams[i]  # unit material: line impedance equals area
        rods.append(Rod(f"r{i}", ("hub", f"s{i}"), float(area), "m"))
    return Truss(dim, joints, rods, {"m": Material("m", 1.0, 1.0)})


def test_involution_over_random_joints():
    rng = np.random.default_rng(42)
    for trial in range(100):
        truss = _random_star(rng, dim=2 if trial % 2 == 0 else 3)
        tm = transmission_matrix(truss, "hub")
        identity = np.eye(tm.entries.shape[0])
        assert np.max(np.abs(tm.entries @ tm.entries - identity)) <= 1e-12
        # (I+T)/2 projects onto the velocity-compatible subspace
        proj = 0.5 * (identity + tm.entries)
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-12


def _chain(*points, areas=None):
    """Free joints j0, j1, ... at the given points, joined in order by unit-material rods."""
    joints = [Joint(f"j{i}", p) for i, p in enumerate(points)]
    areas = areas or [1.0] * (len(points) - 1)
    rods = [Rod(f"r{i}", (f"j{i}", f"j{i + 1}"), a, "m") for i, a in enumerate(areas)]
    return Truss(len(points[0]), joints, rods, {"m": Material("m", 1.0, 1.0)})


def test_free_end_reflects_its_rod_with_unit_T():
    # a free end moves along its one rod: the front reflects with its velocity
    # kept, so its stress step changes sign
    truss = _chain((0.0, 0.0), (1.0, 0.0))
    for joint in ("j0", "j1"):
        tm = transmission_matrix(truss, joint)
        assert np.array_equal(tm.entries, [[1.0]])
    sim = simulate_wavefronts(truss, [Impulse("r0", TOWARD_END, -1.0)], t_max=1.5)
    (event,) = sim.events
    assert event.joint == "j1" and event.outgoing == (("r0", pytest.approx(1.0)),)


def test_equal_impedance_collinear_joint_passes_a_front_through():
    # j1 moves along the line only; with equal impedances on both sides a
    # front crosses it whole, and nothing reflects
    truss = _chain((0.0, 0.0, 0.0), (0.6, 0.0, 0.8), (1.2, 0.0, 1.6))
    assert _span_frames(truss)[1] == ("j0", "j1", "j2")
    tm = transmission_matrix(truss, "j1")
    assert np.allclose(tm.entries, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-15)
    sim = simulate_wavefronts(truss, [Impulse("r0", TOWARD_END, -1.0)], t_max=1.5)
    first = sim.events[0]
    assert first.joint == "j1" and first.incoming == (("r0", -1.0),)
    assert first.outgoing == (("r1", pytest.approx(-1.0, abs=1e-15)),)


def test_anchor_reflects_with_minus_identity_and_takes_no_force(bridge):
    for joint in bridge.anchored_joints:
        tm = transmission_matrix(bridge, joint.id)
        n = len(bridge.neighbors(joint.id))
        assert np.array_equal(tm.entries, -np.eye(n))
        assert np.array_equal(tm.force_coupling, np.zeros((n, 2)))
        out = scatter(tm, np.ones(n), force=np.array([1.0, -2.0]), omega=1.0)
        assert np.array_equal(out, -np.ones(n))


def test_force_outside_a_mechanism_joint_span_does_not_couple():
    # the middle joint of a straight chain moves along it only
    truss = _chain((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), areas=[1.0, 3.0])
    tm = transmission_matrix(truss, "j1")
    assert np.allclose(tm.force_coupling @ np.array([0.0, 1.0]), 0.0, atol=1e-15)
    along = tm.force_coupling @ np.array([1.0, 0.0])
    assert np.allclose(along, [-0.25, 0.25], atol=1e-15)  # -+1 / (Lambda_0 + Lambda_1)


def test_scatter_zero_and_pulse(square):
    tm = transmission_matrix(square, "2")
    assert np.all(scatter(tm, np.zeros(3)) == 0.0)
    pulse = np.zeros(3)
    pulse[tm.column_order.index("1")] = 1.0  # unit pulse arriving along rod 12
    out = scatter(tm, pulse)
    by_neighbor = dict(zip(tm.column_order, out))
    assert by_neighbor["1"] == pytest.approx(0.5)
    assert by_neighbor["4"] == pytest.approx(-0.5)
    assert by_neighbor["3"] == pytest.approx(SQRT2 / 2.0)


def test_scatter_identity_joint(square):
    tm = transmission_matrix(square, "1")
    incoming = np.array([0.3, -0.8])
    assert np.allclose(scatter(tm, incoming), incoming)


def test_scatter_dimension_mismatch(square):
    tm = transmission_matrix(square, "2")
    with pytest.raises(ValueError):
        scatter(tm, np.zeros(2))


def test_scatter_force_injection(square):
    # corner joint 1 has orthonormal rod directions and unit impedances, so the
    # force coupling reduces to the identity: F = B + P / (i*omega)
    tm = transmission_matrix(square, "1")
    omega = 2.0
    out = scatter(tm, np.zeros(2), force=np.array([1.0, 0.0]), omega=omega)
    assert out[0] == pytest.approx(1.0 / (1j * omega))
    assert out[1] == pytest.approx(0.0)
    with pytest.raises(ValueError):
        scatter(tm, np.zeros(2), force=np.array([1.0, 0.0]))


def test_transmission_stack_holds_each_joints_t_zero_padded():
    # the builtins, the x2 bridge (degree-2 mechanism joints, anchors with T = -I)
    # and draws whose joints have degrees 1 to 4
    fine = subdivide(builtin_structure("bridge"), 2)
    draws = _draws(12)
    assert {len(t.neighbors(j.id)) for t in draws for j in t.joints} == {1, 2, 3, 4}
    for truss in (builtin_structure("square"), builtin_structure("bridge"), fine, *draws):
        stack = _transmission(truss)
        assert stack is _transmission(truss)
        assert not stack.flags.writeable
        assert stack.shape[0] == len(truss.joints)
        for j, joint in enumerate(truss.joints):
            d = len(truss.neighbors(joint.id))
            assert np.array_equal(stack[j, :d, :d], transmission_matrix(truss, joint.id).entries)
            assert not stack[j, d:].any() and not stack[j, :, d:].any()
    anchored = [j for j, joint in enumerate(fine.joints) if joint.anchored]
    assert all(np.array_equal(_transmission(fine)[j, :2, :2], -np.eye(2)) for j in anchored)


def test_matching_zeros_of_clamped_rod():
    # a single rod clamped at both ends is singular exactly at omega*tau = n*pi
    mat = Material("m", 1.0, 1.0)
    truss = Truss(
        2,
        [Joint("a", (0.0, 0.0), anchored=True), Joint("b", (1.0, 0.0), anchored=True)],
        [Rod("ab", ("a", "b"), 1.0, "m")],
        {"m": mat},
    )
    assert reverberation_determinant(truss, math.pi) <= 1e-12
    assert reverberation_determinant(truss, 2.0 * math.pi) <= 1e-12
    assert reverberation_determinant(truss, 0.5 * math.pi) > 1.0


def test_reverberation_dof_counts(square, bridge):
    assert reverberation_dof(square) == 20  # vs 2*4 = 8 network DOF
    assert reverberation_dof(bridge) == 28  # vs 2*5 = 10 unreduced network DOF


def test_reverberation_zeros_match_network_roots(square, bridge):
    for truss in (square, bridge):
        window = FrequencyWindow(0.05, 1.05 * math.pi)
        rev = reverberation_frequencies(truss, window)
        lap_modes = find_natural_frequencies(truss, window).modes
        lap = []
        for m in lap_modes:
            if not lap or abs(m.omega - lap[-1]) > 1e-9:
                lap.append(m.omega)
        assert len(rev) == len(lap)
        assert rev == pytest.approx(lap, abs=1e-8)


def test_matching_count_finds_every_zero_of_the_grid_reference(square, bridge):
    # the grid search the counting sweep replaced is the reference: its |det|
    # minima on 2000 points per unit of omega*tau_min, kept where the matrix
    # is singular (sigma_min <= 1e-8 sigma_max), must all be reported, and
    # every other root reported must be a network root; the grid missed one
    # network root each of draws 79 and 187
    rng = np.random.default_rng(0)
    draws = [random_truss(rng) for _ in range(188)]
    cases = [("square", square), ("bridge", bridge)]
    cases += [(k, draws[k]) for k in (4, 6, 10, 79, 187)]  # draws whose joints span
    gained = {79: [1.623944634], 187: [14.84455391]}
    for name, truss in cases:
        window = FrequencyWindow(0.05 / truss.tau_min, 1.2 * math.pi / truss.tau_min)
        lo, hi = window.omega_min, window.omega_max
        func, _ = _matching_eval(truss)
        build = matching_evaluator(truss)
        minima = _roots.modulus_minima(
            lambda xs: func(xs)[1], lo, hi, math.ceil(2000.0 * (hi - lo) * truss.tau_min),
            window.tol_at,
        )
        zeros = []
        for x in minima:
            svals = np.linalg.svd(build(np.array([x]))[0], compute_uv=False)
            if svals[-1] <= 1e-8 * svals[0]:
                zeros.append(x)
        found = reverberation_frequencies(truss, window)
        for x in zeros:
            assert min(abs(w - x) for w in found) <= 1e-8 * x, (name, x)
        extra = [w for w in found if min((abs(w - x) for x in zeros), default=math.inf) > 1e-8 * w]
        network = find_natural_frequencies(truss, window).omegas
        for w in extra:
            assert min(abs(w - x) for x in network) <= 1e-8 * w, (name, w)
        assert extra == pytest.approx(gained.get(name, []), rel=1e-9), name


# -- the directed-end matching builder the slot layout replaced, as its reference ----


def _matching_reference(truss: Truss):
    """Reusable batched builder of the complex matching system.

    Rows: for each directed rod end (a, b), the outgoing amplitude F_ab minus
    the scattered incoming amplitudes; incoming waves are the index-exchanged
    opposite-end amplitudes delayed by exp(-i w tau). An anchor's T is -I, so
    each incident rod reflects with F = -B.
    """
    edge_index = {}  # directed rod end (a, b) -> unknown
    for i, rod in enumerate(truss.rods):
        a, b = rod.joints
        edge_index[(a, b)] = 2 * i
        edge_index[(b, a)] = 2 * i + 1
    size = 2 * len(truss.rods)
    entries = []  # (row, col, coefficient, tau) of every phase-carrying term
    for joint in truss.joints:
        edges = truss.neighbors(joint.id)
        tm = transmission_matrix(truss, joint.id)
        for row_pos, (other, rod) in enumerate(edges):
            row = edge_index[(joint.id, other)]
            for col_pos, (other2, rod2) in enumerate(edges):
                coeff = tm.entries[row_pos, col_pos]
                if coeff == 0.0:
                    continue
                col = edge_index[(other2, joint.id)]
                entries.append((row, col, coeff, truss.rod_properties(rod2).transit_time))
    rows = np.array([e[0] for e in entries], dtype=int)
    cols = np.array([e[1] for e in entries], dtype=int)
    coeffs = np.array([e[2] for e in entries])
    taus = np.array([e[3] for e in entries])

    def build(omegas) -> np.ndarray:
        omegas = np.asarray(omegas, dtype=float)
        out = np.zeros((omegas.size, size, size), dtype=complex)
        out[:, np.arange(size), np.arange(size)] = 1.0
        terms = coeffs[None, :] * np.exp(-1j * omegas[:, None] * taus[None, :])
        out[:, rows, cols] = terms  # every (row, col) is distinct and off the diagonal
        return out

    return build


def test_matching_system_on_the_slot_layout_matches_the_directed_end_builder():
    # entry for entry, at the window's ends, inside it and 1e-4 rad above the
    # first rod's first resonance; the draws include mechanism joints
    square, bridge = builtin_structure("square"), builtin_structure("bridge")
    cases = [square, bridge, braced_lattice(3), *_draws(40)]
    cases += [subdivide(truss, k) for truss in (square, bridge) for k in (2, 3)]
    for truss in cases:
        window = _default_window(truss)
        tau = truss.rod_properties(truss.rods[0]).transit_time
        omegas = [window.omega_min, 0.37 * window.omega_max, window.omega_max, (math.pi + 1e-4) / tau]
        assert np.array_equal(matching_evaluator(truss)(omegas), _matching_reference(truss)(omegas))


def _distinct(omegas, rtol=1e-8):
    out = []
    for w in omegas:
        if not out or w - out[-1] > rtol * w:
            out.append(w)
    return out


def test_matching_sweep_runs_on_trusses_with_mechanism_joints(square, bridge):
    # a mechanism joint's T reflects on its rods' span, so the matching
    # system needs no spanning joint; draw 47 is ROADMAP item 1 (below)
    draws = _draws(200)
    cases = [(k, t) for k, t in enumerate(draws) if _span_frames(t)[1] and k != 47]
    assert len(cases) == 128
    cases += [("square x2", subdivide(square, 2)), ("square x3", subdivide(square, 3)),
              ("bridge x2", subdivide(bridge, 2))]
    for name, truss in cases:
        window = _default_window(truss)
        rev = reverberation_frequencies(truss, window)
        network = _distinct(find_natural_frequencies(truss, window).omegas)
        assert len(rev) == len(network), name
        assert rev == pytest.approx(network, rel=1e-8), name


def test_matching_roots_of_draw_47_do_not_move_under_subdivision():
    # draw 47's 3D joints span planes; its matching roots are those of the x3
    # subdivision, and each one is a network root. The network sweep's count
    # is not trusted at such joints (ROADMAP item 1): which extra distinct
    # frequencies it reports is round-off at the near-mechanism joint j4 (none
    # under the LDL^T count), pinned here until that item is mended
    truss = _draws(48)[47]
    window = _default_window(truss)
    rev = reverberation_frequencies(truss, window)
    fine = reverberation_frequencies(subdivide(truss, 3), window)
    assert len(rev) == 27
    assert np.max(np.abs(np.array(rev) / np.array(fine) - 1.0)) <= 1e-10
    network = _distinct(find_natural_frequencies(truss, window).omegas)
    for w in rev:
        assert min(abs(w - x) for x in network) <= 1e-8 * w, w
    extra = [x for x in network if min(abs(w - x) for w in rev) > 1e-8 * x]
    assert extra == []


def test_matching_count_rises_by_three_across_the_bridge_pole(bridge):
    # the network count across the pole at pi is 3, but the network sweep
    # finds 1 resonant mode there; the matching system has no pole at pi and
    # its count sees the multiplicity directly
    _, count = _matching_eval(bridge)
    for gap in (1e-3, 1e-8):
        n = count(np.array([math.pi - gap, math.pi + gap]))[0]
        assert n[1] - n[0] == 3


def test_matching_count_gives_the_secular_sign_and_log_det(bridge):
    # the count's sign and log|det| come from the eigenvalues of I - V that
    # give its winding number; func's from an LU of the same matrix
    for truss in (braced_lattice(3), bridge):
        window = _default_window(truss)
        xs = np.linspace(window.omega_min, window.omega_max, 200)
        func, count = _matching_eval(truss)
        _, sign, logabs = count(xs)
        ref_sign, ref_log = func(xs)
        assert sign.tolist() == ref_sign.tolist()
        assert np.all(np.abs(logabs - ref_log) <= 1e-9 * np.maximum(1.0, np.abs(ref_log)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t: simulate_wavefronts(t, [], 2.0).stress_profile(2.5),
         "snapshot time 2.5 exceeds simulated horizon 2.0"),
        (lambda t: simulate_wavefronts(t, [], -1.0), "t_max must be >= 0, got -1.0"),
        (lambda t: simulate_wavefronts(t, [Impulse("99", TOWARD_END, 1.0)], 1.0),
         "impulse references unknown rod '99'"),
        (lambda t: simulate_wavefronts(t, [Impulse("12", "sideways", 1.0)], 1.0),
         "impulse direction must be toward_end/toward_start, got 'sideways'"),
        (lambda t: simulate_wavefronts(t, [Impulse("12", TOWARD_END, "1.5")], 3.0),
         "impulse on rod '12': stress_amplitude must be a finite number, not '1.5'"),
        (lambda t: simulate_wavefronts(t, [Impulse("12", TOWARD_END, True)], 3.0),
         "impulse on rod '12': stress_amplitude must be a finite number, not True"),
        (lambda t: simulate_wavefronts(t, [Impulse("12", TOWARD_END, math.nan)], 3.0),
         "impulse on rod '12': stress_amplitude must be a finite number, not nan"),
        (lambda t: simulate_wavefronts(t, [Impulse("12", TOWARD_END, -1.0, "0.25")], 3.0),
         "impulse on rod '12': start_time must be a finite number, not '0.25'"),
        (lambda t: simulate_wavefronts(t, [Impulse("12", TOWARD_END, -1.0, math.nan)], 3.0),
         "impulse on rod '12': start_time must be a finite number, not nan"),
        (lambda t: simulate_wavefronts(t, [Impulse("12", TOWARD_END, -1.0, -math.inf)], 3.0),
         "impulse on rod '12': start_time must be a finite number, not -inf"),
        (lambda t: simulate_wavefronts(t, [], math.nan), "t_max must be >= 0, got nan"),
        (lambda t: simulate_wavefronts(t, [], math.inf), "t_max must be finite, got inf"),
        (lambda t: simulate_wavefronts(t, [], 1.0, min_amplitude=math.nan), "min_amplitude must be >= 0, got nan"),
        (lambda t: simulate_wavefronts(t, [], 1.0, min_amplitude=-1.0), "min_amplitude must be >= 0, got -1.0"),
        (lambda t: simulate_wavefronts(t, [], 1.0, front_cap=0), "front_cap must be >= 1, got 0"),
        (lambda t: simulate_wavefronts(t, [], 1.0, front_cap=-5), "front_cap must be >= 1, got -5"),
        # a bool is not a number, nor is a string; a front cap is a whole count
        (lambda t: simulate_wavefronts(t, [], True), "t_max must be a number, not True"),
        (lambda t: simulate_wavefronts(t, [], "2"), "t_max must be a number, not '2'"),
        (lambda t: simulate_wavefronts(t, [], 1.0, min_amplitude="0"), "min_amplitude must be a number, not '0'"),
        (lambda t: simulate_wavefronts(t, [], 1.0, min_amplitude=True), "min_amplitude must be a number, not True"),
        (lambda t: simulate_wavefronts(t, [], 1.0, front_cap=True), "front_cap must be an integer, not True"),
        (lambda t: simulate_wavefronts(t, [], 1.0, front_cap=2.5), "front_cap must be an integer, not 2.5"),
        (lambda t: simulate_wavefronts(t, [Impulse("12", TOWARD_END, -1.0)], 2.0).stress_profile(True),
         "snapshot time must be a number, got True"),
        (lambda t: simulate_wavefronts(t, [Impulse("12", TOWARD_END, -1.0)], 2.0).active_fronts("1.0"),
         "snapshot time must be a number, got '1.0'"),
        (lambda t: simulate_wavefronts(t, [Impulse("12", TOWARD_END, -1.0)], 2.0).stress_profile(math.nan),
         "snapshot time must be a number, got nan"),
        # active_fronts refuses the times stress_profile refuses: fronts are in flight at 5.0
        (lambda t: simulate_wavefronts(t, [Impulse("12", TOWARD_END, -1.0)], 2.0).active_fronts(math.nan),
         "snapshot time must be a number, got nan"),
        (lambda t: simulate_wavefronts(t, [Impulse("12", TOWARD_END, -1.0)], 2.0).active_fronts(5.0),
         "snapshot time 5.0 exceeds simulated horizon 2.0"),
    ],
)
def test_invalid_simulation_input_raises(bridge, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(bridge)


def test_reverberation_modulus_positive_between_roots(bridge):
    # midpoints between adjacent natural frequencies are manifestly regular
    assert reverberation_determinant(bridge, 0.73) > 1e-3
    assert reverberation_determinant(bridge, 1.6) > 1e-3


# -- wavefront simulator ---------------------------------------------------------


def fig2_impulse():
    return Impulse(rod="12", direction=TOWARD_END, stress_amplitude=-1.0, start_time=0.0)


def test_wavefront_timeline_and_signs(square):
    sim = simulate_wavefronts(square, [fig2_impulse()], t_max=2.5)
    assert len(sim.events) == 4

    first = sim.events[0]
    assert first.time == pytest.approx(1.0, abs=1e-9)
    assert first.joint == "2"
    out = dict(first.outgoing)
    assert set(out) == {"12", "24", "23"}
    assert out["12"] == pytest.approx(0.5)  # reflected tensile
    assert out["24"] == pytest.approx(-0.5)  # transmitted compressive
    assert out["23"] == pytest.approx(SQRT2 / 2.0)  # transmitted tensile

    reflections = [e for e in sim.events if e.time == pytest.approx(2.0, abs=1e-9)]
    assert sorted(e.joint for e in reflections) == ["1", "4"]
    for e in reflections:
        (rod_in, amp_in), = e.incoming
        (rod_out, amp_out), = e.outgoing
        assert rod_in == rod_out
        assert amp_out == pytest.approx(-amp_in)  # identity joint reflects velocity,
        # inverting the stress step carried in the opposite direction

    arrival = sim.events[-1]
    assert arrival.joint == "3"
    assert arrival.time == pytest.approx(1.0 + SQRT2, abs=1e-9)


def test_wavefront_snapshots(square):
    sim = simulate_wavefronts(square, [fig2_impulse()], t_max=2.5)

    prof = sim.stress_profile(1.0 / 3.0)
    (z0, z1, sigma), (z2, z3, rest) = prof["12"]
    assert (z0, sigma) == (0.0, pytest.approx(-1.0))
    assert z1 == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rest == 0.0

    prof = sim.stress_profile(4.0 / 3.0)
    segments = prof["12"]
    assert segments[0][2] == pytest.approx(-1.0)
    assert segments[0][1] == pytest.approx(2.0 / 3.0, abs=1e-9)  # reflected front
    assert segments[1][2] == pytest.approx(-0.5)
    assert prof["24"][0][1] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert prof["24"][0][2] == pytest.approx(-0.5)
    assert prof["23"][0][1] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert prof["23"][0][2] == pytest.approx(SQRT2 / 2.0)

    prof = sim.stress_profile(7.0 / 3.0)
    # crossbar front launched at t=1 has travelled 4/3 < sqrt(2): joint 3 untouched
    assert prof["23"][0][1] == pytest.approx(4.0 / 3.0, abs=1e-9)
    fronts = {f.rod: f for f in sim.active_fronts(7.0 / 3.0)}
    assert fronts["23"].position == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert fronts["12"].position == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert fronts["12"].direction == TOWARD_END


@pytest.mark.parametrize("impulses", [[], [Impulse("12", TOWARD_END, 1.0, 1.5)]], ids=["none", "past the horizon"])
def test_runs_whose_record_is_empty(square, impulses):
    # no window runs: the record is the typed empty columns (and the one
    # front launched past the horizon), and every view reads nothing
    sim = simulate_wavefronts(square, impulses, t_max=1.0)
    h = sim._history
    assert len(h) == len(impulses)
    assert [col.dtype for col in (h.port, h.stress, h.t0)] == [np.dtype(t) for t in (int, float, float)]
    assert [col.size for col in sim._events] == [0] * 6
    assert [col.dtype for col in sim._events] == [np.dtype(t) for t in (float, int, int, int, int, float)]
    assert sim.events == []
    for t in (0.0, 0.5, 1.0):
        assert sim.active_fronts(t) == []
        assert sim.stress_profile(t) == {rod.id: [(0.0, truss_len(square, rod.id), 0.0)] for rod in square.rods}


def truss_len(truss, rod_id):
    return truss.rod_properties(rod_id).length


def test_a_run_is_kept_as_columns_until_its_events_are_read():
    # the simulator records arrays, not objects per event: a run adds fewer
    # objects for the collector to track than it has events, and its events
    # are built once, on first access
    lattice = braced_lattice(4)
    impulse = Impulse(lattice.rods[-1].id, TOWARD_START, -1.0)
    gc.collect()
    gc.disable()  # a collection mid-run would untrack tuples of atoms and hide them
    try:
        before = len(gc.get_objects())
        sim = simulate_wavefronts(lattice, [impulse], 12.0, min_amplitude=1e-3)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert added < len(sim.events)
    assert sim.events is sim.events


def test_a_run_under_a_profile_hook_keeps_the_same_record():
    # a profile hook holds a reference to each C method it sees, which numpy's
    # reference check on an in-place resize counts as a view of the column
    lattice = braced_lattice(4)
    run = lambda: simulate_wavefronts(lattice, [Impulse(lattice.rods[-1].id, TOWARD_START, -1.0)], 12.0,
                                      min_amplitude=1e-3)
    want = run()
    sys.setprofile(lambda *args: None)
    try:
        got = run()
    finally:
        sys.setprofile(None)
    for mine, theirs in zip((*got._events, got._history.port, got._history.stress, got._history.t0),
                            (*want._events, want._history.port, want._history.stress, want._history.t0)):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


def test_determinism(square):
    a = simulate_wavefronts(square, [fig2_impulse()], t_max=6.0)
    b = simulate_wavefronts(square, [fig2_impulse()], t_max=6.0)
    assert [(e.time, e.joint, e.incoming, e.outgoing) for e in a.events] == [
        (e.time, e.joint, e.incoming, e.outgoing) for e in b.events
    ]


def _rect_with_crossbar():
    """Rectangle with an irrational aspect ratio: transit times never coincide,
    so fronts never merge and the population grows exponentially."""
    mat = Material("m", 1.0, 1.0)
    h = 1.6180339887498949
    joints = [
        Joint("1", (0.0, 0.0)),
        Joint("2", (1.0, 0.0)),
        Joint("3", (0.0, h)),
        Joint("4", (1.0, h)),
    ]
    pairs = [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("2", "3")]
    rods = [Rod(a + b, (a, b), 1.0, "m") for a, b in pairs]
    return Truss(2, joints, rods, {"m": mat})


def test_min_amplitude_prunes():
    truss = _rect_with_crossbar()
    imp = Impulse(rod="12", direction=TOWARD_END, stress_amplitude=-1.0)
    small = simulate_wavefronts(truss, [imp], t_max=12.0, min_amplitude=0.3)
    big = simulate_wavefronts(truss, [imp], t_max=12.0, min_amplitude=0.0)
    spawned = lambda sim: sum(len(e.outgoing) for e in sim.events)
    assert spawned(small) < spawned(big)


def test_event_explosion():
    truss = _rect_with_crossbar()
    imp = Impulse(rod="12", direction=TOWARD_END, stress_amplitude=-1.0)
    with pytest.raises(EventExplosionError):
        simulate_wavefronts(truss, [imp], t_max=60.0, front_cap=500)


def test_square_front_growth_stays_merged(square):
    # commensurate arrivals merge into single events: growth is linear, and the
    # first three scattering events reproduce the hand-enumerated front counts
    sim = simulate_wavefronts(square, [fig2_impulse()], t_max=2.5)
    assert [len(e.outgoing) for e in sim.events[:3]] == [3, 1, 1]
    long = simulate_wavefronts(square, [fig2_impulse()], t_max=40.0)
    assert len(long.events) < 40.0 * 4  # far below any exponential blow-up


def test_anchored_joint_reflects_with_velocity_inversion(bridge):
    # clamped end: velocity cancels, stress step doubles in sign convention
    imp = Impulse(rod="12", direction=TOWARD_START, stress_amplitude=-1.0)
    sim = simulate_wavefronts(bridge, [imp], t_max=1.5)
    first = sim.events[0]
    assert first.joint == "1"
    (rod_out, amp_out), = first.outgoing
    assert rod_out == "12"
    assert amp_out == pytest.approx(-1.0)  # anchored wall keeps the stress sign


def _spanning_draw():
    """Conftest draw 16 (seed 0): a planar truss whose every joint spans the plane."""
    rng = np.random.default_rng(0)
    for _ in range(16):
        random_truss(rng)
    return random_truss(rng)


def test_scattering_conserves_power(square, bridge):
    # A sigma^2 / Gamma is the power a step front carries; a joint's T is a
    # Lambda-reflection, so with nothing pruned the power in equals the power out.
    # Each run has a few hundred scattering events at most.
    draw = _spanning_draw()
    draw_tau = max(draw.rod_properties(rod).transit_time for rod in draw.rods)
    lattice = braced_lattice(4)
    cases = [
        (square, [fig2_impulse()], 6.0),
        (bridge, [Impulse("12", TOWARD_START, -1.0), Impulse("34", TOWARD_END, 0.5, 0.25)], 8.0),
        (_rect_with_crossbar(), [Impulse("12", TOWARD_END, -1.0)], 6.0),
        (draw, [Impulse(draw.rods[0].id, TOWARD_END, -1.0)], 3.0 * draw_tau),
        (lattice, [Impulse(lattice.rods[-1].id, TOWARD_START, -1.0)], 10.0),
    ]
    for truss, impulses, t_max in cases:
        weight = {
            rod.id: rod.area / truss.rod_properties(rod).impedance for rod in truss.rods
        }
        sim = simulate_wavefronts(truss, impulses, t_max=t_max, min_amplitude=0.0)
        assert len(sim.events) > len(impulses)
        for ev in sim.events:
            p_in = sum(weight[r] * s * s for r, s in ev.incoming)
            p_out = sum(weight[r] * s * s for r, s in ev.outgoing)
            assert abs(p_out - p_in) <= 1e-12 * p_in, (ev.time, ev.joint)


def _rebuilt_profile(truss, impulses, events, t):
    """Stress profile at t rebuilt from the impulses and the public scattering events.

    Every impulse and every outgoing (rod, sigma) is a step that leaves its
    joint at the rod's wave speed and stops at the rod's far end; once it has
    arrived there it spans the whole rod.
    """
    steps = [(imp.rod, imp.direction == TOWARD_END, imp.start_time, imp.stress_amplitude)
             for imp in impulses]
    for ev in events:
        for rod_id, sigma in ev.outgoing:
            steps.append((rod_id, truss.rod(rod_id).joints[0] == ev.joint, ev.time, sigma))
    spans = {rod.id: [] for rod in truss.rods}
    for rod_id, from_start, launch, sigma in steps:
        if launch > t:
            continue
        props = truss.rod_properties(rod_id)
        if launch + props.transit_time <= t:
            reach = props.length
        else:
            reach = props.wave_speed * (t - launch)
        if from_start:
            lo, hi = 0.0, min(props.length, reach)
        else:
            lo, hi = max(0.0, props.length - reach), props.length
        if hi > lo:
            spans[rod_id].append((lo, hi, sigma))
    profile = {}
    for rod in truss.rods:
        length = truss.rod_properties(rod).length
        breaks = sorted({0.0, length, *(lo for lo, _, _ in spans[rod.id]),
                         *(hi for _, hi, _ in spans[rod.id])})
        segments = []
        for z0, z1 in zip(breaks[:-1], breaks[1:]):
            mid = 0.5 * (z0 + z1)
            covering = [s for lo, hi, s in spans[rod.id] if lo <= mid < hi]
            segments.append((z0, z1, math.fsum(covering) if covering else None))
        profile[rod.id] = segments
    return profile


def test_stress_profile_matches_rebuild_from_events(square, bridge):
    lattice = braced_lattice(4)
    bridge_impulses = [Impulse("12", TOWARD_START, -1.0), Impulse("34", TOWARD_END, 0.5, 0.25)]
    cases = [
        (square, [fig2_impulse()], 6.0, 0.0),
        (bridge, bridge_impulses, 8.0, 0.0),
        (lattice, [Impulse(lattice.rods[-1].id, TOWARD_START, -1.0)], 12.0, 1e-3),
    ]
    for truss, impulses, t_max, min_amplitude in cases:
        sim = simulate_wavefronts(truss, impulses, t_max=t_max, min_amplitude=min_amplitude)
        times = [0.0, 1.0 / 3.0, 1.0, 2.5, 0.5 * t_max + 0.1, t_max]
        for t in times:
            got = sim.stress_profile(t)
            want = _rebuilt_profile(truss, impulses, sim.events, t)
            scale = max((abs(s) for segs in want.values() for *_, s in segs if s is not None),
                        default=1.0)
            for rod in truss.rods:
                length = truss.rod_properties(rod).length
                segs, ref = got[rod.id], want[rod.id]
                assert segs[0][0] == 0.0 and segs[-1][1] == length, (t, rod.id)
                assert all(a[1] == b[0] for a, b in zip(segs, segs[1:])), (t, rod.id)
                assert len(segs) == len(ref), (t, rod.id)
                for (z0, z1, sigma), (r0, r1, r_sigma) in zip(segs, ref):
                    assert abs(z0 - r0) <= 1e-12 * length and abs(z1 - r1) <= 1e-12 * length
                    if r_sigma is None:
                        assert sigma == 0.0 and math.copysign(1.0, sigma) == 1.0, (t, rod.id, z0)
                    else:
                        assert abs(sigma - r_sigma) <= 1e-12 * scale, (t, rod.id, z0)


def test_reverberation_finds_zeros_in_the_end_cells(bridge):
    # the window starts 1e-4 below the bridge's lowest natural frequency and
    # ends 1e-4 above its fourth, so both lie in the end intervals of the count
    network = find_natural_frequencies(bridge, FrequencyWindow(0.05, 3.0)).omegas
    lo, hi = network[0] - 1e-4, network[3] + 1e-4
    found = reverberation_frequencies(bridge, FrequencyWindow(lo, hi))
    assert found == pytest.approx(network[:4], rel=1e-8)


def _stress_along(profile, rod_id, length, pieces, zs):
    """The stress at positions zs along rod rod_id of the given length, read off the profile
    of the truss subdivided into pieces (its rod rod_id itself for one piece)."""
    step = length / pieces
    out = []
    for z in zs:
        k = min(pieces - 1, int(z // step))
        segs = profile[f"{rod_id}/{k + 1}"] if pieces > 1 else profile[rod_id]
        out.append(next(sigma for z0, z1, sigma in segs if z0 <= z - k * step < z1))
    return np.array(out)


def test_simulator_stress_is_invariant_under_subdivision(square):
    # the interior joints of a subdivided rod pass its fronts straight
    # through, so each coarse rod carries the same stress as its pieces
    coarse = simulate_wavefronts(square, [fig2_impulse()], t_max=6.0)
    for pieces in (2, 3):
        fine_truss = subdivide(square, pieces)
        fine = simulate_wavefronts(fine_truss, [Impulse("12/1", TOWARD_END, -1.0)], t_max=6.0)
        for t in (0.5, 1.7, 3.1, 5.9):
            want, got = coarse.stress_profile(t), fine.stress_profile(t)
            scale = max(abs(sigma) for segs in want.values() for *_, sigma in segs)
            for rod in square.rods:
                length = square.rod_properties(rod).length
                cuts = {z for z0, z1, _ in want[rod.id] for z in (z0, z1)}
                for k in range(pieces):
                    cuts |= {z + k * length / pieces
                             for segs in [got[f"{rod.id}/{k + 1}"]] for z0, z1, _ in segs for z in (z0, z1)}
                cuts = sorted(cuts)
                zs = [0.5 * (a + b) for a, b in zip(cuts, cuts[1:]) if b - a > 1e-12 * length]
                diff = (_stress_along(want, rod.id, length, 1, zs)
                        - _stress_along(got, rod.id, length, pieces, zs))
                assert np.max(np.abs(diff)) <= 1e-14 * scale, (pieces, t, rod.id)


def _draw_simulations():
    """(truss, simulation, A/Gamma per rod) for the first 200 draws: an impulse on
    the first rod, run to three times the longest transit time."""
    for truss in _draws(200):
        weight = {rod.id: rod.area / truss.rod_properties(rod).impedance for rod in truss.rods}
        tau = max(truss.rod_properties(rod).transit_time for rod in truss.rods)
        sim = simulate_wavefronts(truss, [Impulse(truss.rods[0].id, TOWARD_END, -1.0)], t_max=3.0 * tau)
        yield truss, sim, weight


def _power_imbalance(event, weight):
    p_in = sum(weight[r] * s * s for r, s in event.incoming)
    p_out = sum(weight[r] * s * s for r, s in event.outgoing)
    return abs(p_out - p_in) / p_in


def test_scattering_conserves_power_at_mechanism_joints():
    # every draw of the first 200 with a mechanism joint: at each event there
    # the joint's T is a Lambda-reflection on its rods' span, so power is kept
    events = 0
    for truss, sim, weight in _draw_simulations():
        mechanisms = set(_span_frames(truss)[1])
        for ev in sim.events:
            if ev.joint not in mechanisms:
                continue
            events += 1
            assert _power_imbalance(ev, weight) <= 1e-12, (ev.time, ev.joint)
    assert events == 543


def test_scattering_conserves_power_at_every_event_of_the_first_200_draws():
    # T comes from a QR factorization, so it is an exact Lambda-reflection to
    # round-off however nearly parallel a joint's rods are (draw 31's j0: the
    # smallest to largest singular value of its rod directions is 1.4e-3)
    for _, sim, weight in _draw_simulations():
        for ev in sim.events:
            assert _power_imbalance(ev, weight) <= 1e-13, (ev.time, ev.joint)


# -- the per-event heap loop the windowed simulator replaced, as its reference ----


class _Port(NamedTuple):
    """One way out of a joint: a rod, seen from the joint a front leaves."""

    rod: int  # rod index
    rod_id: str
    sign: int  # +1 when the rod starts here, so the front heads to its second endpoint
    impedance: float
    z0: float  # launch position along the rod
    transit: float
    far_joint: str
    far_slot: int  # the rod's position among the far joint's neighbors


def _heap_simulation(truss, impulses, t_max, min_amplitude=0.0, front_cap=1_000_000):
    """simulate_wavefronts as one heap pop per arrival and one scattering per event.

    Returns its events, its front columns (rod, sign, stress, t0, z0,
    t_arrive), which the simulator reads off each front's slot, and the
    largest heap length it reached.
    """
    rod_index = {rod.id: i for i, rod in enumerate(truss.rods)}
    slot = {
        (joint.id, rod.id): k
        for joint in truss.joints
        for k, (_, rod) in enumerate(truss.neighbors(joint.id))
    }
    # per joint: its transmission matrix and its ports in neighbor order
    joint_data = {}
    for joint in truss.joints:
        ports = []
        for other, rod in truss.neighbors(joint.id):
            props = truss.rod_properties(rod)
            sign = 1 if rod.joints[0] == joint.id else -1
            ports.append(_Port(rod_index[rod.id], rod.id, sign, props.impedance,
                               0.0 if sign > 0 else props.length, props.transit_time,
                               other, slot[other, rod.id]))
        joint_data[joint.id] = (transmission_matrix(truss, joint.id), ports)

    time_tol = 1e-12 * truss.tau_min
    horizon = t_max + time_tol
    # heap entries: (t_arrive, far joint, rod id, front index, slot at the far
    # joint, velocity step in the far joint's frame, stress step)
    heap = []
    peak = 0
    rod_col, sign_col = array("q"), array("b")
    stress_col, t0_col, z0_col, arrive_col = (array("d") for _ in range(4))
    events = []

    def launch(port, v_far, stress, t0):
        """Record a front leaving by port at t0; queue its arrival if that is within t_max."""
        nonlocal peak
        rod, rod_id, sign, _, z0, transit, far_joint, far_slot = port
        t_arrive = t0 + transit
        rod_col.append(rod)
        sign_col.append(sign)
        stress_col.append(stress)
        t0_col.append(t0)
        z0_col.append(z0)
        arrive_col.append(t_arrive)
        if t_arrive <= horizon:
            entry = (t_arrive, far_joint, rod_id, len(t0_col), far_slot, v_far, stress)
            heapq.heappush(heap, entry)
            peak = max(peak, len(heap))
            if len(heap) > front_cap:
                raise EventExplosionError(
                    f"more than {front_cap} live fronts; min_amplitude={min_amplitude} is too small"
                )

    for imp in impulses:
        rod = truss.rods[rod_index[imp.rod]]
        launch_joint = rod.joints[0] if imp.direction == TOWARD_END else rod.joints[1]
        port = joint_data[launch_joint][1][slot[launch_joint, rod.id]]
        v_far = imp.stress_amplitude / port.impedance  # a front's stress is Gamma * v_far
        launch(port, v_far, port.impedance * v_far, imp.start_time)

    while heap:
        t_first = heap[0][0]  # launch queues no arrival past the horizon
        # everything within the merge tolerance scatters now, grouped per joint
        groups = {}
        while heap and heap[0][0] - t_first <= time_tol:
            entry = heapq.heappop(heap)
            groups.setdefault(entry[1], []).append(entry)

        for joint_id in sorted(groups):
            batch = groups[joint_id]
            t_event = min(entry[0] for entry in batch)
            tm, ports = joint_data[joint_id]
            incoming = [0.0] * len(ports)
            incoming_stress = {}
            for _, _, rod_id, _, k, v_joint, stress in batch:
                incoming[k] += v_joint
                incoming_stress[rod_id] = incoming_stress.get(rod_id, 0.0) + stress

            incoming = np.array(incoming)
            outgoing = tm.entries @ incoming
            # children at round-off of the incoming amplitude are not real fronts
            noise_floor = 1e-14 * max(map(abs, incoming_stress.values()))

            out_log = []
            for port, v_joint in zip(ports, outgoing.tolist()):
                sigma = -port.impedance * v_joint  # outgoing wave leaves the joint
                if abs(sigma) <= noise_floor or abs(sigma) < min_amplitude:
                    continue
                launch(port, -v_joint, sigma, t_event)
                out_log.append((port.rod_id, sigma))

            events.append(
                ScatterEvent(
                    time=t_event,
                    joint=joint_id,
                    incoming=tuple(sorted(incoming_stress.items())),
                    outgoing=tuple(out_log),
                )
            )

    columns = (rod_col, sign_col, stress_col, t0_col, z0_col, arrive_col)
    return events, [np.asarray(col) for col in columns], peak


def _relabelled(truss):
    """The truss with joints and rods renamed, last first, to f"n{7k + 3}" and f"r{7k + 3}",
    and the rod renaming: "r10" < "r3", so a joint's neighbor (slot) order and its
    rods' id order part where the two namings differ."""
    joint_id = {j.id: f"n{7 * k + 3}" for k, j in enumerate(reversed(truss.joints))}
    rod_id = {r.id: f"r{7 * k + 3}" for k, r in enumerate(reversed(truss.rods))}
    joints = [Joint(joint_id[j.id], j.position, j.anchored) for j in truss.joints]
    rods = [Rod(rod_id[r.id], tuple(map(joint_id.get, r.joints)), r.area, r.material) for r in truss.rods]
    return Truss(truss.dimension, joints, rods, truss.materials), rod_id


def _slots_apart_from_rod_ids(truss):
    """The joints whose neighbor rods are not in rod-id order."""
    return [j.id for j in truss.joints
            if [r.id for _, r in truss.neighbors(j.id)] != sorted(r.id for _, r in truss.neighbors(j.id))]


def _reference_cases():
    """(name, truss, impulses, t_max, min_amplitude) the windowed loop must match the heap on."""
    square, bridge = builtin_structure("square"), builtin_structure("bridge")
    lattice = braced_lattice(4)
    # an event's arrivals are recorded by rod id, and summed at its ports in slot order:
    # renamed so that the two orders part at some joints, which no other case does
    bridge_r, bridge_rod = _relabelled(bridge)
    lattice_r, lattice_rod = _relabelled(lattice)
    assert _slots_apart_from_rod_ids(bridge_r) and _slots_apart_from_rod_ids(lattice_r)
    cases = [
        ("square", square, [fig2_impulse()], 6.0, 0.0),
        ("bridge", bridge, [Impulse("12", TOWARD_START, -1.0), Impulse("34", TOWARD_END, 0.5, 0.25)],
         8.0, 0.0),
        # three fronts on one rod merge at one slot, the first launched last
        ("bridge, one rod thrice", bridge, [Impulse("12", TOWARD_START, 0.3, 1e-13),
                                            Impulse("12", TOWARD_START, 0.1),
                                            Impulse("12", TOWARD_START, 0.2)], 6.0, 0.0),
        ("crossbar", _rect_with_crossbar(), [Impulse("12", TOWARD_END, -1.0)], 12.0, 0.3),
        ("lattice", lattice, [Impulse(lattice.rods[-1].id, TOWARD_START, -1.0)], 10.0, 1e-3),
        ("bridge, renamed", bridge_r, [Impulse(bridge_rod["12"], TOWARD_START, -1.0),
                                       Impulse(bridge_rod["34"], TOWARD_END, 0.5, 0.25)], 8.0, 0.0),
        ("lattice, renamed", lattice_r, [Impulse(lattice_rod[lattice.rods[-1].id], TOWARD_START, -1.0),
                                         Impulse(lattice_rod[lattice.rods[3].id], TOWARD_END, 0.5, 0.7)],
         10.0, 1e-3),
    ]
    for k, truss in enumerate(_draws(40)):  # draws with mechanism joints among them
        tau = max(truss.rod_properties(rod).transit_time for rod in truss.rods)
        cases.append((f"draw {k}", truss, [Impulse(truss.rods[0].id, TOWARD_END, -1.0)], 3.0 * tau, 0.0))
    return cases


def test_windowed_simulator_matches_the_heap_loop():
    # the same events in the same order; the stresses agree to round-off, as
    # the window pads each joint's T to the largest degree and a BLAS rounds
    # a padded product apart from the joint's own (on OpenBLAS by at most
    # 1.1e-16 of the largest stress of the run)
    for name, truss, impulses, t_max, min_amplitude in _reference_cases():
        sim = simulate_wavefronts(truss, impulses, t_max, min_amplitude=min_amplitude)
        events, columns, _ = _heap_simulation(truss, impulses, t_max, min_amplitude)
        assert len(sim.events) == len(events) > len(impulses), name
        scale = max(abs(s) for ev in events for _, s in ev.incoming + ev.outgoing)
        for got, want in zip(sim.events, events):
            assert (got.time, got.joint) == (want.time, want.joint), name
            for mine, theirs in ((got.incoming, want.incoming), (got.outgoing, want.outgoing)):
                assert [r for r, _ in mine] == [r for r, _ in theirs], (name, want.time, want.joint)
                diff = max((abs(a - b) for (_, a), (_, b) in zip(mine, theirs)), default=0.0)
                assert diff <= 1e-12 * scale, (name, want.time, want.joint)
        h, (rod, sign, z0, transit) = sim._history, _port_columns(truss)
        derived = (rod[h.port], sign[h.port], h.t0, z0[h.port], h.t0 + transit[h.port])
        for got, want in zip(derived, columns[:2] + columns[3:]):
            assert np.array_equal(got, want), name
        assert np.max(np.abs(h.stress - columns[2]), initial=0.0) <= 1e-12 * scale, name


def _scanned_clusters(times, limit, tol):
    """_window_clusters by a linear scan: a cluster ends at the first later time t with t - s > tol."""
    ends, i = [], 0
    while i < len(times) and (not ends or limit - times[i] > tol):
        s, i = times[i], i + 1
        while i < len(times) and not times[i] - s > tol:
            i += 1
        ends.append(i)
    return ends


def test_window_clusters_match_a_linear_scan():
    # sorted times at s + tol and one ulp either side of it for earlier times
    # s, where s + tol rounds off the merge's test, and limits that cut the
    # window inside a cluster or an ulp from a cluster's own limit
    rng = np.random.default_rng(3)
    rounded = 0
    for trial in range(3000):
        tol = 1e-12 * float(rng.choice([1.0, 0.3, SQRT2]))
        times = [float(rng.choice([0.0, 1.0, 3.7, 1e3 / 3]))]
        for _ in range(int(rng.integers(0, 12))):
            s = float(rng.choice(times))
            edge = s + tol
            times.append(float(rng.choice([np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf),
                                           s, s + rng.uniform(0.0, 3.0) * tol])))
        times.sort()
        edge = float(rng.choice(times)) + tol * float(rng.choice([0.5, 1.0, 1.5, 2.0, 40.0]))
        limit = float(rng.choice([np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]))
        ends = _window_clusters(times, limit, tol)
        assert ends == _scanned_clusters(times, limit, tol), (trial, times, limit, tol)
        starts = [0] + ends[:-1]
        rounded += sum(bisect_right(times, times[i] + tol, i + 1) != end for i, end in zip(starts, ends))
    assert rounded > 0


@pytest.mark.parametrize("case", ["crossbar", "lattice"])
def test_front_cap_binds_where_the_heap_peaks(case):
    # the cap bounds the pending arrivals: the heap's largest length is allowed, one less is not
    if case == "crossbar":
        truss, impulses, t_max, min_amplitude = (
            _rect_with_crossbar(), [Impulse("12", TOWARD_END, -1.0)], 12.0, 0.0)
    else:
        truss = braced_lattice(4)
        impulses, t_max, min_amplitude = [Impulse(truss.rods[-1].id, TOWARD_START, -1.0)], 10.0, 1e-3
    *_, peak = _heap_simulation(truss, impulses, t_max, min_amplitude)
    assert peak > 1
    simulate_wavefronts(truss, impulses, t_max, min_amplitude=min_amplitude, front_cap=peak)
    with pytest.raises(EventExplosionError, match=f"more than {peak - 1} live fronts"):
        simulate_wavefronts(truss, impulses, t_max, min_amplitude=min_amplitude, front_cap=peak - 1)
    with pytest.raises(EventExplosionError, match=f"more than {peak - 1} live fronts"):
        _heap_simulation(truss, impulses, t_max, min_amplitude, front_cap=peak - 1)


# -- the per-rod stress profile the one-pass profile replaced, as its reference ---


def _covering_sums(z_lo, z_hi, lo, hi, stress):
    """For each segment [z_lo, z_hi), the sum of the stress of the spans [lo, hi) that hold it.

    A span holds a segment when lo <= z_lo and z_hi <= hi, compared on the
    segment's ends, never on a midpoint, which can round onto a break. A
    running total from 0.0 over the spans in their given order, so each sum
    is the float that adding its spans one by one gives; a segment no span
    holds reads 0.0. Built a block of segments at a time to bound memory.
    """
    sums = np.empty(z_lo.size)
    rows = max(1, (1 << 20) // (lo.size + 1))
    for start in range(0, z_lo.size, rows):
        a, b = z_lo[start:start + rows, None], z_hi[start:start + rows, None]
        terms = np.zeros((a.shape[0], lo.size + 1))
        terms[:, 1:] = np.where((lo <= a) & (b <= hi), stress, 0.0)
        sums[start:start + rows] = terms.cumsum(axis=1)[:, -1]
    return sums


_NO_EVENTS = tuple(np.empty(0, dtype=int) for _ in range(6))  # a simulation's _events: none


def _port_columns(truss):
    """Each port's rod, sign, launch position and transit time, read off the rod-end and rod tables:
    a front heading to its rod's second endpoint (sign > 0) is launched at 0, any other at the length."""
    ends, table = truss._rod_ends, truss._rod_table
    return ends.rod, ends.sign, np.where(ends.sign > 0, 0.0, table.length[ends.rod]), table.transit_time[ends.rod]


def _leaving_slot(truss, rod, sign):
    """The port a front on each rod leaves by: at the rod's first joint when it heads to its second (sign > 0)."""
    return np.argsort(truss._rod_ends.end)[2 * rod + (sign < 0)]


def _per_rod_profile(sim, t):
    """stress_profile one rod at a time, every segment summing all of its rod's spans."""
    h, (port_rod, port_sign, port_z0, port_transit) = sim._history, _port_columns(sim.truss)
    length = sim.truss._rod_table.length
    launched = h.t0 <= t
    port, t0 = h.port[launched], h.t0[launched]
    rod, sign, z0, t_arrive = port_rod[port], port_sign[port], port_z0[port], t0 + port_transit[port]
    travelled = sim.truss._rod_table.wave_speed[rod] * (np.minimum(t, t_arrive) - t0)
    forward = sign > 0
    lo = np.where(forward, z0, np.maximum(0.0, z0 - travelled))
    hi = np.where(forward, np.minimum(length[rod], z0 + travelled), z0)
    arrived = t_arrive <= t  # an arrived front spans its whole rod
    lo, hi = np.where(arrived, 0.0, lo), np.where(arrived, length[rod], hi)
    span = np.flatnonzero(hi > lo)
    span = span[np.argsort(rod[span], kind="stable")]
    rod, lo, hi, stress = rod[span], lo[span], hi[span], h.stress[launched][span]
    bounds = np.searchsorted(rod, np.arange(len(sim.truss.rods) + 1))
    profiles = {}
    for k, rod_id in enumerate(r.id for r in sim.truss.rods):
        cut = slice(bounds[k], bounds[k + 1])
        breaks = np.unique(np.concatenate(([0.0, length[k]], lo[cut], hi[cut])))
        sigma = _covering_sums(breaks[:-1], breaks[1:], lo[cut], hi[cut], stress[cut])
        profiles[rod_id] = list(zip(breaks[:-1].tolist(), breaks[1:].tolist(), sigma.tolist()))
    return profiles


def _assert_same_profile(got, want, where):
    """Every break and every sum equal as floats, the sign of every zero too."""
    assert list(got) == list(want), where
    for rod_id, segs in want.items():
        assert len(got[rod_id]) == len(segs), (where, rod_id)
        for mine, theirs in zip(got[rod_id], segs):
            assert mine == theirs, (where, rod_id, theirs)
            assert [math.copysign(1.0, x) for x in mine] == [math.copysign(1.0, x) for x in theirs], (
                where, rod_id, theirs)


def _profile_cases():
    """(name, truss, impulses, t_max, min_amplitude): impulses out of start-time order,
    so a rod's fronts in flight can be launched before fronts that have arrived."""
    cases = []
    for name in ("square", "bridge"):
        for pieces in (1, 2, 3):
            truss = builtin_structure(name)
            truss = subdivide(truss, pieces) if pieces > 1 else truss
            first, last = truss.rods[0].id, truss.rods[-1].id
            impulses = [Impulse(first, TOWARD_END, -1.0, 0.5), Impulse(last, TOWARD_START, 0.3),
                        Impulse(first, TOWARD_START, 0.2, 0.25), Impulse(first, TOWARD_END, 0.1)]
            cases.append((f"{name} x{pieces}", truss, impulses, 6.0, 0.0))
    lattice = braced_lattice(4)
    last = lattice.rods[-1].id
    cases.append(("lattice", lattice, [Impulse(last, TOWARD_START, -1.0), Impulse(last, TOWARD_END, 0.5, 0.3),
                                       Impulse(lattice.rods[3].id, TOWARD_END, 0.5, 0.7)], 12.0, 1e-3))
    for k, truss in enumerate(_draws(40)):
        tau = max(truss.rod_properties(rod).transit_time for rod in truss.rods)
        impulses = [Impulse(truss.rods[0].id, TOWARD_END, -1.0, 0.3 * tau),
                    Impulse(truss.rods[-1].id, TOWARD_START, 0.7)]
        cases.append((f"draw {k}", truss, impulses, 3.0 * tau, 0.0))
    return cases


def test_stress_profile_matches_the_per_rod_reference():
    # snapshots at the impulses' start times and at event times, where spans
    # have zero length or have just arrived, and one ulp before event times,
    # where fronts in flight end an ulp short of a joint
    for name, truss, impulses, t_max, min_amplitude in _profile_cases():
        sim = simulate_wavefronts(truss, impulses, t_max, min_amplitude=min_amplitude)
        times = sorted({ev.time for ev in sim.events})
        times = times[::max(1, len(times) // 12)]
        times = {0.0, t_max, *(imp.start_time for imp in impulses), *times,
                 *np.nextafter(times, -np.inf).tolist()}
        for t in sorted(times):
            _assert_same_profile(sim.stress_profile(t), _per_rod_profile(sim, t), (name, t))


def test_stress_profile_matches_the_per_rod_reference_where_midpoints_round():
    # hand-made histories on the square: launch times a few ulps apart put
    # breaks an ulp from each other and from the rod ends, where a segment's
    # midpoint rounds onto its upper break; the segment still lies in every
    # span that holds both of its ends
    square = builtin_structure("square")
    rng = np.random.default_rng(7)
    rounded = 0
    for trial in range(400):
        n = int(rng.integers(1, 30))
        rod = rng.integers(0, len(square.rods), n)
        sign = rng.choice(np.array([-1, 1], dtype=np.int8), n)
        t = float(rng.choice([0.5, 1.0, 1.5, 1.0 - 2.0 ** -53, 2.0]))
        near = rng.choice([0.0, 0.5, 1.0, t - 1.0, t - math.sqrt(2.0)], n)
        t0 = near + rng.integers(-3, 4, n) * np.spacing(np.where(near == 0.0, 1.0, near))
        t0 = np.where(rng.random(n) < 0.5, t0, rng.uniform(-0.5, 2.0, n))
        stress = rng.choice([1.0, -1.0, 0.1, 1e-17, 3.3, -0.0], n) * rng.uniform(0.5, 2.0, n)
        history = _FrontColumns(_leaving_slot(square, rod, sign), stress, t0)
        sim = WavefrontSimulation(square, 2.0, history, _NO_EVENTS)
        want = _per_rod_profile(sim, t)
        _assert_same_profile(sim.stress_profile(t), want, trial)
        rounded += sum(0.5 * (z0 + z1) == z1 for segs in want.values() for z0, z1, _ in segs)
    assert rounded > 0


def test_a_last_segment_whose_midpoint_rounds_onto_the_rod_end_reads_its_spans():
    # rod 12 of the square: a front that arrived at t = 1 and one launched
    # back from z = 1 an ulp of time earlier, which has swept [1 - 2^-53, 1);
    # that segment's midpoint rounds onto the rod's length, yet it lies in both
    square = builtin_structure("square")
    length, transit = square._rod_table.length, square._rod_table.transit_time
    assert (length[0], transit[0]) == (1.0, 1.0)
    history = _FrontColumns(_leaving_slot(square, np.array([0, 0]), np.array([1, -1])), np.array([1.0, 0.5]),
                            np.array([0.0, 1.0 - 2.0 ** -53]))
    profile = WavefrontSimulation(square, 2.0, history, _NO_EVENTS).stress_profile(1.0)
    assert 0.5 * ((1.0 - 2.0 ** -53) + 1.0) == 1.0
    assert profile["12"] == [(0.0, 1.0 - 2.0 ** -53, 1.0), (1.0 - 2.0 ** -53, 1.0, 1.5)]
    assert all(segs == [(0.0, length[k], 0.0)] for k, segs in enumerate(profile.values()) if k)


def test_arrived_fronts_leave_no_end_slivers():
    # an arrived front spans its whole rod, not c * (t_arrive - t0), which
    # rounds to an ulp off the rod's length
    lattice = braced_lattice(4)
    sim = simulate_wavefronts(lattice, [Impulse(lattice.rods[-1].id, TOWARD_START, -1.0)], 12.0,
                              min_amplitude=1e-3)
    for rod_id, segs in sim.stress_profile(12.0).items():
        length = lattice.rod_properties(rod_id).length
        assert min(z1 - z0 for z0, z1, _ in segs) > 1e-12 * length, rod_id


def test_stress_profile_memory_is_bounded_in_blocks(square):
    # 5,000 fronts in flight on one rod, launched at distinct times, cut it
    # into 5,001 segments that hold 12.5M (segment, front) pairs; built at
    # once, their index and stress arrays took 301 MB, in blocks 2.3 MB
    impulses = [Impulse("12", TOWARD_END, 1.0, k * 1e-4) for k in range(5000)]
    sim = simulate_wavefronts(square, impulses, t_max=0.5)  # the rod's transit time is 1
    tracemalloc.start()
    try:
        profile = sim.stress_profile(0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [sigma for *_, sigma in profile["12"]] == [5000.0 - k for k in range(5000)] + [0.0]
    assert peak < 8e6
