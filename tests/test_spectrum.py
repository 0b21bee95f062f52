import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import align_sign, braced_lattice, mode_vector, random_truss
from spectruss import (
    FrequencyWindow,
    Joint,
    Material,
    ModeResult,
    NotARootError,
    Rod,
    SingularAtFrequencyError,
    Truss,
    anchor_forces,
    assemble_laplacian,
    assemble_mass,
    assemble_stiffness,
    builtin_structure,
    extract_modes,
    fem_frequencies,
    find_natural_frequencies,
    laplacian_determinant,
    load_truss,
    pole_set,
    resonant_mode_check,
    reverberation_frequencies,
    solve_forced_response,
    subdivide,
)
from spectruss import _roots
from spectruss.assembly import _pattern, _span_frames, laplacian_evaluator
from spectruss.spectrum import BORDER_RADIUS, MODE_TOL, _chain, _pole_at, _rise, _segments, _window_poles
from spectruss.validation import bridge_reference_modes, closed_form_square_condition, SquareClosedForm


def test_pole_set_square(square):
    window = FrequencyWindow(0.1, 7.0)
    poles = pole_set(square, window)
    expected = sorted(
        [math.pi, 2.0 * math.pi]
        + [n * math.pi / math.sqrt(2.0) for n in (1, 2, 3)]
    )
    assert [p.omega for p in poles] == pytest.approx(expected, rel=1e-12)
    side_pole = next(p for p in poles if abs(p.omega - math.pi) < 1e-9)
    assert sorted(side_pole.rods) == ["12", "13", "24", "34"]
    assert side_pole.orders == (1, 1, 1, 1)


def test_pole_set_bridge_shared(bridge):
    poles = pole_set(bridge, FrequencyWindow(0.1, 7.0))
    assert [p.omega for p in poles] == pytest.approx([math.pi, 2.0 * math.pi], rel=1e-12)
    assert all(len(p.rods) == 7 for p in poles)


def test_pole_at_a_window_end_keeps_all_its_rods(bridge):
    # four of the bridge's seven transit times round to 1 - 2^-53, so their
    # resonance lies one ulp above pi: a window ending at pi still takes them
    # into the pole at pi, and the three modes there are found once
    (pole,) = pole_set(bridge, FrequencyWindow(1.0, math.pi))
    assert len(pole.rods) == 7
    sweep = find_natural_frequencies(bridge, FrequencyWindow(1.0, math.pi))
    assert [m.kind for m in sweep if m.kind != "regular"] == ["resonant", "interior", "interior"]
    assert sweep.warnings == []


def test_pole_set_incommensurate():
    mats = {"m1": Material("m1", 1.0, 1.0), "m3": Material("m3", 1.0, 3.0)}
    joints = [Joint("a", (0.0, 0.0)), Joint("b", (1.0, 0.0)), Joint("c", (1.0, 1.0))]
    rods = [Rod("ab", ("a", "b"), 1.0, "m1"), Rod("bc", ("b", "c"), 1.0, "m3")]
    truss = Truss(2, joints, rods, mats)  # transit times 1 and sqrt(3)
    poles = pole_set(truss, FrequencyWindow(0.1, 7.0))
    assert all(len(p.rods) == 1 for p in poles)


def test_empty_window_below_lowest_root(bridge):
    result = find_natural_frequencies(bridge, FrequencyWindow(0.05, 0.5))
    assert result.modes == []


def test_square_lowest_root_matches_condition_bisection(square):
    # independent oracle: scalar bisection of the closed-form dispersion
    # condition on a pole-free bracket around the first sign change
    cfg = SquareClosedForm.unit()
    lo, hi = 0.8, 1.0
    assert closed_form_square_condition(cfg, lo) * closed_form_square_condition(cfg, hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if closed_form_square_condition(cfg, lo) * closed_form_square_condition(cfg, mid) <= 0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)

    result = find_natural_frequencies(square, FrequencyWindow(0.1, 2.0))
    regular = [m.omega for m in result.modes if m.kind == "regular"]
    assert regular
    assert min(regular) == pytest.approx(oracle, abs=1e-9)


def test_bridge_sweep_roots(bridge):
    window = FrequencyWindow(0.05, 1.05 * math.pi)
    result = find_natural_frequencies(bridge, window)
    regular = sorted(m.omega for m in result.modes if m.kind == "regular")
    expected = sorted(
        math.acos(c)
        for c in ((5 + math.sqrt(5)) / 10, (5 - math.sqrt(5)) / 10,
                  (1 + math.sqrt(13)) / 6, (1 - math.sqrt(13)) / 6, -1 / 3)
    )
    assert len(regular) == 5
    for got, want in zip(regular, expected):
        assert abs(math.cos(got) - math.cos(want)) <= 1e-9
    resonant = [m for m in result.modes if m.kind == "resonant"]
    assert len(resonant) == 1
    assert resonant[0].omega == pytest.approx(math.pi, abs=1e-12)
    assert resonant[0].resonant_order == 1


def test_extract_modes_match_reference(bridge):
    for row in bridge_reference_modes():
        if row.force_free:
            continue
        omega = math.acos(row.cos_omega_tau)
        modes = extract_modes(bridge, omega)
        assert len(modes) == 1
        ref = row.displacement_vector()
        ref /= np.linalg.norm(ref)
        got = align_sign(mode_vector(modes[0], ("2", "3", "4")), ref)
        assert np.max(np.abs(got - ref)) <= 1e-8


def test_extract_modes_self_residual(square):
    from spectruss.assembly import assemble_laplacian

    omega = 0.9201511845297538
    modes = extract_modes(square, omega)
    d = assemble_laplacian(square, omega, reduce_anchors=False)
    for mode in modes:
        vec = mode_vector(mode, [j.id for j in square.joints])
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(d.entries @ vec) <= 1e-6 * np.max(np.abs(d.entries))


def test_extract_modes_not_a_root(bridge, square):
    # the least |eigenvalue| / max of a joint-moving direction lies far outside the modes' window
    for truss, ratio in ((bridge, 0.12382099258269805), (square, 0.038173346703049414)):
        with pytest.raises(NotARootError) as raised:
            extract_modes(truss, 1.0)
        assert raised.value.smallest_relative_sv == pytest.approx(ratio, rel=1e-9)


def test_mode_sign_convention(bridge):
    omega = math.acos(-1.0 / 3.0)
    mode = extract_modes(bridge, omega)[0]
    flat = mode_vector(mode, ("2", "3", "4"))
    first = next(x for x in flat if abs(x) > 1e-8)
    assert first > 0


def test_anchor_forces_unanchored_empty(square):
    mode = extract_modes(square, 0.9201511845297538)[0]
    assert anchor_forces(square, mode) == {}


def test_anchor_forces_resonant_zero(bridge):
    modes = resonant_mode_check(bridge, math.pi)
    modes = [m for m in modes if m.kind == "resonant"]
    assert len(modes) == 1
    forces = anchor_forces(bridge, modes[0])
    assert np.linalg.norm(np.concatenate(list(forces.values()))) <= 1e-10


def test_anchor_forces_stored_equal_recomputed(bridge):
    # extract_modes stores the anchored rows of [F | Q] (u, xi); anchor_forces
    # rebuilds D only for a mode that carries none, taking the x2 bridge's
    # midpoint displacements into their rod-span frames
    import dataclasses

    for truss in (bridge, subdivide(bridge, 2)):
        (mode,) = extract_modes(truss, math.acos(-1.0 / 3.0))
        stored = anchor_forces(truss, mode)
        assert stored.keys() == mode.anchor_forces.keys() == {"1", "5"}
        recomputed = anchor_forces(truss, dataclasses.replace(mode, anchor_forces=None))
        assert recomputed.keys() == stored.keys()
        scale = max(np.max(np.abs(v)) for v in stored.values())
        for jid, force in stored.items():
            assert np.max(np.abs(force - recomputed[jid])) <= 1e-12 * scale


def test_resonant_bridge_matches_reference(bridge):
    row = next(r for r in bridge_reference_modes() if r.force_free)
    modes = resonant_mode_check(bridge, math.pi)
    ref = row.displacement_vector()
    ref /= np.linalg.norm(ref)
    got = align_sign(mode_vector(modes[0], ("2", "3", "4")), ref)
    assert np.max(np.abs(got - ref)) <= 1e-8
    # every resonant rod satisfies the end-motion constraint exactly
    disp = dict(modes[0].displacements)
    disp["1"] = np.zeros(2)
    disp["5"] = np.zeros(2)
    for rod in bridge.rods:
        e = bridge.rod_properties(rod).unit_vector
        a, b = rod.joints
        assert abs(e @ (disp[a] + disp[b])) <= 1e-10


def test_resonant_square_mode_exists(square):
    modes = resonant_mode_check(square, math.pi)
    assert len(modes) >= 1
    for mode in modes:
        assert mode.kind == "resonant"
        flat = mode_vector(mode, [j.id for j in square.joints])
        assert np.linalg.norm(flat) == pytest.approx(1.0, abs=1e-12)


def test_resonant_modes_with_mechanism_joints(square):
    # the x2 square keeps the square's double root at 2*pi, as resonant modes
    # of its half sides (n = 1); every midpoint is a mechanism joint
    fine = subdivide(square, 2)
    pole = next(p for p in pole_set(fine, FrequencyWindow(6.0, 6.5)) if abs(p.omega - 2.0 * math.pi) < 1e-9)
    orders = dict(zip(pole.rods, pole.orders))
    modes = resonant_mode_check(fine, pole.omega)
    assert len(modes) == 2
    for mode in modes:
        u = mode.displacements
        for rod in fine.rods:
            e = fine.rod_properties(rod).unit_vector
            a, b = rod.joints
            for mid in (jid for jid in rod.joints if "#" in jid):
                assert np.linalg.norm(u[mid] - (u[mid] @ e) * e) <= 1e-12
            if rod.id in orders:
                assert abs(((-1.0) ** orders[rod.id]) * (e @ u[a]) - e @ u[b]) <= 1e-10


def test_resonant_modes_of_the_first_200_draws_are_pinned():
    # every pole of the test generator's first 200 draws in the default
    # window; 1,269 modes is what the L'Hopital feasibility test that the
    # bordered matrix replaced found there, and a looser null-space cutoff
    # takes in the regular roots beside some poles
    from test_assembly import _bordered_reference

    rng = np.random.default_rng(0)
    poles = modes = 0
    for _ in range(200):
        truss = random_truss(rng)
        free = [j.id for j in truss.free_joints]
        for pole in pole_set(truss, _default_window(truss)):
            found = resonant_mode_check(truss, pole.omega)
            found = [m for m in found if m.kind == "resonant"]
            poles += 1
            modes += len(found)
            if not found:
                continue
            orders = dict(zip(pole.rods, pole.orders))
            finite, border, _ = _bordered_reference(truss, pole.omega, orders, True)
            scale = np.linalg.norm(finite, 2)
            for mode in found:
                assert mode.kind == "resonant" and mode.resonant_order == min(pole.orders)
                u = dict(mode.displacements)
                u.update((j.id, np.zeros(truss.dimension)) for j in truss.anchored_joints)
                for rod in truss.rods:
                    if rod.id in orders:
                        e = truss.rod_properties(rod).unit_vector
                        a, b = rod.joints
                        assert abs((-1.0) ** orders[rod.id] * (e @ u[a]) - e @ u[b]) <= 1e-10
                # the resonant rods absorb the forces of the rest: F u in span{q_r}
                forced = finite @ mode_vector(mode, free)
                xi, *_ = np.linalg.lstsq(border, forced, rcond=None)
                assert np.linalg.norm(border @ xi - forced) <= 1e-9 * scale
    assert (poles, modes) == (3330, 1269)


def test_resonant_mode_in_si_units_matches_the_unit_bridge(bridge):
    # the border is scaled by Lambda*omega, like F, so one relative cutoff
    # serves steel at omega ~ 1e4 as well as the unit structure at pi
    steel = builtin_structure("bridge", scale=2.0, material=Material("steel", 200e9, 7850.0), area=1e-4)
    pole = pole_set(steel, _default_window(steel))[0]
    (mode,) = [m for m in resonant_mode_check(steel, pole.omega)
               if m.kind == "resonant"]
    (unit,) = [m for m in resonant_mode_check(bridge, math.pi)
               if m.kind == "resonant"]
    free = [j.id for j in bridge.free_joints]
    assert np.max(np.abs(mode_vector(mode, free) - mode_vector(unit, free))) <= 1e-10
    lam_omega = steel.rod_properties(steel.rods[0]).line_impedance * pole.omega
    forces = np.concatenate(list(anchor_forces(steel, mode).values()))
    assert np.max(np.abs(forces)) <= 1e-10 * lam_omega


def _elbow(tau_bc: float) -> Truss:
    """Two perpendicular rods, outer ends anchored; rod ab has unit transit time."""
    mats = {
        "unit": Material("unit", 1.0, 1.0),
        "other": Material("other", 1.0 / tau_bc**2, 1.0),
    }
    joints = [
        Joint("a", (0.0, 0.0), anchored=True),
        Joint("b", (1.0, 0.0)),
        Joint("c", (1.0, 1.0), anchored=True),
    ]
    rods = [Rod("ab", ("a", "b"), 1.0, "unit"), Rod("bc", ("b", "c"), 1.0, "other")]
    return Truss(2, joints, rods, mats)


def test_single_rod_resonance_feasibility():
    # at omega = pi only rod ab is resonant; the constraint forces u_b along y.
    # the non-resonant rod then applies a y-force Lambda*w*cot(w*tau_bc)*u_b
    # that the resonant rod (x-direction only) cannot absorb -- unless that
    # cotangent vanishes, i.e. tau_bc = 1/2.
    infeasible = _elbow(math.sqrt(3.0))
    assert resonant_mode_check(infeasible, math.pi) == []

    feasible = _elbow(0.5)
    modes = resonant_mode_check(feasible, math.pi)
    assert len(modes) == 1
    u_b = modes[0].displacements["b"]
    assert abs(u_b[0]) <= 1e-12
    assert abs(abs(u_b[1]) - 1.0) <= 1e-12


def test_root_set_invariant_under_impedance_rescale(bridge):
    window = FrequencyWindow(0.05, 1.05 * math.pi)
    base = [m.omega for m in find_natural_frequencies(bridge, window).modes]
    scaled_truss = builtin_structure("bridge", area=5.0)
    scaled = [m.omega for m in find_natural_frequencies(scaled_truss, window).modes]
    assert base == pytest.approx(scaled, abs=1e-8)


def test_root_set_scales_with_geometry(bridge):
    window = FrequencyWindow(0.05, 1.05 * math.pi)
    base = [m.omega for m in find_natural_frequencies(bridge, window).modes]
    big = builtin_structure("bridge", scale=2.0)
    window2 = FrequencyWindow(0.025, 1.05 * math.pi / 2.0)
    halved = [m.omega for m in find_natural_frequencies(big, window2).modes]
    assert [w / 2.0 for w in base] == pytest.approx(halved, abs=1e-8)


def test_mechanism_diagnostic(square):
    fine = subdivide(square, 2)
    result = find_natural_frequencies(fine, FrequencyWindow(0.1, 2.0))
    assert sorted(result.mechanisms) == sorted(j.id for j in fine.joints if "#" in j.id)


def _anchored_truss_with_mechanism_joint() -> Truss:
    """Triangle abc anchored at a, plus joint d hanging on the single rod bd."""
    joints = [
        Joint("a", (0.0, 0.0), anchored=True),
        Joint("b", (1.0, 0.0)),
        Joint("c", (0.0, 1.0)),
        Joint("d", (2.0, 0.3)),
    ]
    rods = [Rod(rid, (rid[0], rid[1]), 1.0, "m") for rid in ("ab", "bc", "ac", "bd")]
    return Truss(2, joints, rods, {"m": Material("m", 1.0, 1.0)})


def test_anchored_truss_with_mechanism_joint():
    import dataclasses

    from spectruss.assembly import assemble_laplacian

    truss = _anchored_truss_with_mechanism_joint()
    window = FrequencyWindow(0.1, 3.0)
    result = find_natural_frequencies(truss, window)
    assert result.mechanisms == ["d"]
    # sign changes of det(P^T D P), P the identity on b and c and e_bd at d,
    # bisected to round-off
    expected = [0.6846567072933578, math.pi / 2.0, 2.148055578604051, 2.482009532269207]
    assert [m.kind for m in result.modes] == ["regular"] * 4
    for mode, want in zip(result.modes, expected):
        assert abs(mode.omega - want) <= window.tol_at(want)

    e_bd = truss.rod_properties(truss.rod("bd")).unit_vector
    lift = _pattern(truss, True).lift  # D is in rod-span frames: e_bd at d
    for omega in result.omegas:
        d = assemble_laplacian(truss, omega).entries
        modes = extract_modes(truss, omega)
        assert modes
        for mode in modes:
            u_d = mode.displacements["d"]
            assert np.linalg.norm(u_d - (u_d @ e_bd) * e_bd) <= 1e-12
            vec = lift.T @ mode_vector(mode, ("b", "c", "d"))
            assert np.linalg.norm(d @ vec) <= 1e-8 * np.linalg.norm(d)
            # the unbordered D's anchored rows, d's displacement taken into e_bd
            recovered = anchor_forces(truss, dataclasses.replace(mode, anchor_forces=None))
            assert set(recovered) == set(mode.anchor_forces) == {"a"}
            assert np.max(np.abs(recovered["a"] - mode.anchor_forces["a"])) <= 1e-12


def test_bridge_roots_invariant_under_subdivision(bridge):
    # anchored reduction and interior-joint projection together leave the
    # spectrum untouched, multiplicities included: the 3-fold natural
    # frequency at pi (a pole with one resonant and two interior modes)
    # becomes a plain triple root of the halved rods, which the sweep lists
    # three times, as often as the count rises across it
    window = FrequencyWindow(0.05, 1.05 * math.pi)

    def with_multiplicity(truss):
        sweep = find_natural_frequencies(truss, window)
        assert sweep.warnings == []
        return sweep.omegas

    base = with_multiplicity(bridge)
    fine = subdivide(bridge, 2)
    refined = with_multiplicity(fine)
    assert len(base) == 8
    assert refined == pytest.approx(base, abs=1e-8)
    assert base[-3:] == pytest.approx([math.pi] * 3, abs=1e-8)
    assert [m.kind for m in find_natural_frequencies(fine, window)][-3:] == ["regular"] * 3
    assert len(extract_modes(fine, refined[-1])) == 3


def test_counting_sweep_finds_roots_one_grid_cell_would_merge():
    # the six roots of sin(10 x) in one segment, where a three-point grid
    # merged them into one cell; count(x) is the number of roots below x
    from spectruss._roots import sign_sweep_roots

    def func(xs):
        vals = np.sin(10.0 * np.asarray(xs))
        return np.sign(vals), np.log(np.abs(vals) + 1e-300)

    def count(xs):
        return (np.floor(10.0 * np.asarray(xs) / math.pi).astype(int), *func(xs))

    roots, warnings = sign_sweep_roots(func, count, [(0.1, 2.0)], lambda x: 1e-12)
    assert warnings == []
    expected = [k * math.pi / 10.0 for k in range(1, 7)]
    assert roots == pytest.approx(expected, abs=1e-10)


def test_polish_closes_on_a_point_at_the_root():
    # a secant step lands within rounding of the root at 150.3; the polish
    # then steps half a tolerance across it instead of halving the bracket
    from spectruss._roots import bisect_brackets

    calls = []

    def func(xs):
        calls.append(len(xs))
        vals = 1e3 * np.sin(np.pi * (np.asarray(xs) - 0.3))
        return np.sign(vals), np.log(np.abs(vals))

    tol = lambda x: 1e-10 * abs(x)
    ends = np.array([150.05, 150.9])
    known = dict(zip(ends.tolist(), zip([0, 1], *(v.tolist() for v in func(ends)))))
    calls.clear()
    (root,) = bisect_brackets(func, [(150.05, 150.9)], tol, known)
    assert abs(root - 150.3) <= tol(150.3)
    assert len(calls) <= 7


def test_forced_response_anchor_reactions(bridge):
    # reactions recovered through the anchored rows balance the applied load
    # in the static limit (sum of external + reaction forces is zero); the x2
    # bridge's midpoints are mechanism joints, whose displacements enter D in
    # their rod-span frames
    from spectruss import ModeResult, solve_forced_response

    omega = 1e-6
    applied = {"3": np.array([0.4, -1.0])}
    for truss in (bridge, subdivide(bridge, 2)):
        disp = solve_forced_response(truss, omega, applied)
        state = ModeResult(omega=omega, kind="regular", displacements=disp)
        reactions = anchor_forces(truss, state)
        total = applied["3"] + sum(reactions.values())
        assert np.max(np.abs(total)) <= 1e-6 * np.linalg.norm(applied["3"])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t: FrequencyWindow(0.0, 1.0), "need 0 < omega_min < omega_max, got (0.0, 1.0)"),
        (lambda t: FrequencyWindow(2.0, 1.0), "need 0 < omega_min < omega_max, got (2.0, 1.0)"),
        (lambda t: extract_modes(t, 0.0), "omega must be > 0, got 0.0"),
        (lambda t: laplacian_determinant(t, -1.0), "omega must be > 0, got -1.0"),
        (lambda t: solve_forced_response(t, 0.0, {}), "omega must be > 0, got 0.0"),
        (lambda t: assemble_laplacian(t, -0.5), "omega must be > 0, got -0.5"),
        (lambda t: anchor_forces(t, ModeResult(omega=1.0, kind="regular")),
         "mode carries no displacements; extract modes first"),
        (lambda t: solve_forced_response(t, 1.0, {"3": [1.0, 0.0, 0.0]}),
         "force vector for joint '3' must have 2 components"),
        (lambda t: FrequencyWindow(0.05, math.inf), "omega_max must be finite, got inf"),
        # True was taken for 1, and strings failed the comparison with TypeError
        (lambda t: FrequencyWindow(True, 3.0), "window ends must be numbers, got (True, 3.0)"),
        (lambda t: FrequencyWindow(0.5, True), "window ends must be numbers, got (0.5, True)"),
        (lambda t: FrequencyWindow("1", "2"), "window ends must be numbers, got ('1', '2')"),
        (lambda t: FrequencyWindow(None, 2.0), "window ends must be numbers, got (None, 2.0)"),
    ],
)
def test_invalid_spectrum_input_raises(bridge, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(bridge)


_BAD_OMEGAS = [
    (math.inf, "omega must be finite, got inf"),
    (math.nan, "omega must be > 0, got nan"),
    (-1, "omega must be > 0, got -1"),
    (0, "omega must be > 0, got 0"),
    (True, "omega must be a number, not True"),  # not taken for omega = 1
    ("3", "omega must be a number, not '3'"),
]


@pytest.mark.parametrize("omega, message", _BAD_OMEGAS)
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(laplacian_determinant, id="laplacian_determinant"),
        pytest.param(lambda t, omega: solve_forced_response(t, omega, {"3": [0.0, 1.0]}),
                     id="solve_forced_response"),
        pytest.param(assemble_laplacian, id="assemble_laplacian"),
        pytest.param(extract_modes, id="extract_modes"),
        pytest.param(resonant_mode_check, id="resonant_mode_check"),
    ],
)
def test_single_omega_entry_points_refuse_what_is_no_finite_number_above_zero(bridge, call, omega, message):
    # at inf these returned nan or raised LinAlgError, and resonant_mode_check
    # returned [] with RuntimeWarnings for each of these values
    with pytest.raises(ValueError, match=re.escape(message)):
        call(bridge, omega)


@pytest.mark.parametrize("threads", [0, -1, 2.5, True])
@pytest.mark.parametrize(
    "sweep",
    [
        pytest.param(find_natural_frequencies, id="network"),
        pytest.param(lambda t, w, threads: fem_frequencies(t, w, threads=threads), id="fem"),
        pytest.param(reverberation_frequencies, id="reverberation"),
    ],
)
def test_sweeps_refuse_a_thread_count_that_is_no_integer_of_at_least_one(bridge, sweep, threads):
    # 0 and -1 ran serially, 2.5 and True were taken as counts
    with pytest.raises(ValueError, match=re.escape(f"threads must be an integer >= 1, got {threads!r}")):
        sweep(bridge, FrequencyWindow(0.05, 4.0), threads=threads)


def test_sweep_independent_of_thread_count(bridge, monkeypatch):
    # a window to omega = 10 gives the bridge count and polish calls of 8 points
    # or more (the FEM sweeps' on 4 divisions), which batched_eval splits over two
    # threads; the side-8 lattice's polish factors by banded LU. Every sweep hands
    # its thread count to batched_eval alone, and the roots must not move.
    batched_eval = _roots.batched_eval
    wide, lattice = FrequencyWindow(0.05, 10.0), braced_lattice(8)

    def network(truss, window):
        def sweep(threads):
            return [(m.omega, m.kind) for m in find_natural_frequencies(truss, window, threads).modes]
        return sweep

    sweeps = [
        network(bridge, wide),
        network(lattice, FrequencyWindow(0.05, 2.5)),
        *(lambda threads, kind=kind: fem_frequencies(bridge, wide, kind, 4, threads)
          for kind in ("consistent", "lumped")),
        lambda threads: reverberation_frequencies(bridge, wide, threads),
    ]
    for sweep in sweeps:
        serial = sweep(1)
        calls = []

        def spy(func, xs, threads=1):
            calls.append((len(xs), threads))
            return batched_eval(func, xs, threads)

        monkeypatch.setattr(_roots, "batched_eval", spy)
        threaded = sweep(2)
        monkeypatch.setattr(_roots, "batched_eval", batched_eval)
        assert calls and all(threads == 2 for _, threads in calls)
        assert any(size >= 4 * threads for size, threads in calls)
        assert serial and threaded == serial


def test_pole_bracket_discarded():
    # a simple odd pole changes the sign of f, but the count does not see it,
    # so it is never reported as a root
    from spectruss._roots import sign_sweep_roots

    def pole(xs):
        vals = 1.0 / (np.asarray(xs) - 1.3)
        return np.sign(vals), np.log(np.abs(vals))

    def count(xs):
        return (np.zeros(np.asarray(xs).shape, dtype=int),)

    assert sign_sweep_roots(pole, count, [(1.0, 2.0)], lambda x: 1e-12) == ([], [])


_SEAM_ROOTS = (0.5, 1.95, 1.95, 2.5, 2.51, 2.52)


def _seam_stack(xs):
    """diag(r - x for r in _SEAM_ROOTS, 1 / (x - 1.5)): singular at _SEAM_ROOTS, a pole at 1.5.

    Every eigenvalue falls with x, as those of D(omega) do, so the count of
    negative ones rises by one at each simple root (by two at the double
    root 1.95) and falls by one across the pole, as D's count does.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.column_stack([r - xs for r in _SEAM_ROOTS] + [1.0 / (xs - 1.5)])
    return values[:, :, None] * np.eye(values.shape[1])


def test_sign_sweep_segments_share_one_pass_without_crossing_seams():
    from spectruss._roots import determinant, find_brackets, sign_sweep_roots

    tol = lambda x: 1e-12
    # the pole at 1.5 sits in the first seam, where the count falls; the
    # three close roots near 2.5 lie in the last segment
    segments = [(0.1, 1.4), (1.6, 2.2), (2.3, 3.0)]
    func, count = determinant(_seam_stack, 8 * 7 * 7)
    _, brackets, warnings = find_brackets(count, segments, tol)
    assert len(brackets) == 4
    assert all(any(a <= lo and hi <= b for a, b in segments) for lo, hi in brackets)
    assert warnings == []

    # the double root at 1.95 is listed twice, as often as the count rises there
    both, both_warnings = sign_sweep_roots(func, count, segments, tol)
    assert both == pytest.approx(list(_SEAM_ROOTS), abs=1e-9)
    assert both_warnings == []
    alone = [sign_sweep_roots(func, count, [segment], tol) for segment in segments]
    assert both == sorted(sum((roots for roots, _ in alone), []))

    def never(xs):
        raise AssertionError("no segment, no evaluation")

    assert sign_sweep_roots(never, never, [], tol) == ([], [])


def _spy(fn, seen):
    def wrapped(xs):
        seen.extend(np.asarray(xs).tolist())
        return fn(xs)
    return wrapped


def test_polish_starts_from_the_counted_ends(bridge, monkeypatch):
    # every count gives each point's (count, sign, log|det|), so the polish
    # evaluates no point the count evaluated: on a stack with a double root
    # and a pole, and in the bridge's network, FEM and matching sweeps
    from spectruss._roots import determinant, sign_sweep_roots

    tol = lambda x: 1e-12
    segments = [(0.1, 1.4), (1.6, 2.2), (2.3, 3.0)]
    func, count = determinant(_seam_stack, 8 * 7 * 7)
    counted, polished = [], []
    roots, _ = sign_sweep_roots(_spy(func, polished), _spy(count, counted), segments, tol)
    assert roots == pytest.approx(list(_SEAM_ROOTS), abs=1e-9)
    assert counted and polished and not set(counted) & set(polished)

    sweeps = []

    def spied(func, count, segments, tol_at, known=None):
        known = {} if known is None else known
        counted, polished = list(known), []  # the network sweep pre-counts its ends
        sweeps.append((counted, polished))
        return sign_sweep_roots(_spy(func, polished), _spy(count, counted), segments, tol_at, known)

    monkeypatch.setattr(_roots, "sign_sweep_roots", spied)
    window = _default_window(bridge)
    find_natural_frequencies(bridge, window)
    fem_frequencies(bridge, window, divisions=2)
    reverberation_frequencies(bridge, window)
    assert len(sweeps) == 3
    for counted, polished in sweeps:
        assert counted and polished and not set(counted) & set(polished)


def test_count_that_falls_is_a_warning():
    # an eigenvalue that rises through zero at 1.2 takes the count down, which
    # no root explains; the sweep says so and reports no root for it
    from spectruss._roots import determinant, sign_sweep_roots

    def stack(xs):
        xs = np.asarray(xs, dtype=float)
        values = np.column_stack([xs - 1.2, 2.0 - xs])
        return values[:, :, None] * np.eye(2)

    func, count = determinant(stack, 8 * 2 * 2)
    roots, warnings = sign_sweep_roots(func, count, [(0.5, 1.5), (1.6, 2.5)], lambda x: 1e-12)
    assert roots == pytest.approx([2.0], abs=1e-10)
    assert warnings == ["count falls from 1 to 0 across [0.5, 1.5]"]


def test_fem_and_matching_sweeps_log_a_count_that_falls(monkeypatch, caplog, square):
    # an eigenvalue that rises through zero at 1.2 takes the count down across
    # the window; both single-segment sweeps log it and report no root
    def rising(xs):
        return (np.asarray(xs, dtype=float) - 1.2)[:, None, None]

    falling = _roots.determinant(rising, 8)
    monkeypatch.setattr(_roots, "determinant", lambda build, point_bytes: falling)
    monkeypatch.setattr(_roots, "unitary_determinant", lambda build, point_bytes, delay: falling)
    window = FrequencyWindow(0.5, 2.5)
    with caplog.at_level(logging.WARNING, logger="spectruss"):
        assert fem_frequencies(square, window) == []
        assert reverberation_frequencies(square, window) == []
    message = "count falls from 1 to 0 across [0.5, 2.5]"
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("spectruss", logging.WARNING, message)
    ] * 2


def _default_window(truss):
    return FrequencyWindow(0.05 / truss.tau_min, 1.2 * math.pi / truss.tau_min)


def _bands(truss, window):
    """The (lo, hi) band the sweep cuts out around each of the window's poles."""
    return [band for *_, band in _window_poles(truss, window)]


def _negative_count(truss, omegas):
    """Negative eigenvalues of test_assembly's reference anchor-reduced D(omega), lifted into
    the rod-span frames."""
    from test_assembly import _reference, _spectral

    lift = _pattern(truss, True).lift.toarray()
    d = [lift.T @ _reference(truss, True, *_spectral(truss, w)) @ lift for w in omegas]
    return np.sum(np.linalg.eigvalsh(np.array(d)) < 0.0, axis=1)


def _wittrick_williams_count(truss, omegas):
    """J = sum_r floor(omega*tau_r/pi) + N(B) - N(C), rod by rod and independent of the sweep.

    B is test_assembly's reference D bordered at every rod within 1e-3 rad
    of a resonance, lifted into the rod-span frames; C is its corner.
    """
    from test_assembly import _bordered_reference

    basis = _pattern(truss, True).lift.toarray()
    taus = [truss.rod_properties(rod).transit_time for rod in truss.rods]
    counts = []
    for omega in omegas:
        near = {}
        for rod, tau in zip(truss.rods, taus):
            n = round(omega * tau / math.pi)
            if n >= 1 and abs(omega * tau - n * math.pi) < 1e-3:
                near[rod.id] = n
        finite, border, corner = _bordered_reference(truss, omega, near, True)
        border = basis.T @ border.reshape(len(finite), len(near))
        bordered = np.block([[basis.T @ finite @ basis, border], [border.T, np.diag(corner)]])
        clamped = sum(math.floor(omega * tau / math.pi) for tau in taus)
        counts.append(clamped + np.sum(np.linalg.eigvalsh(bordered) < 0.0) - np.sum(corner < 0.0))
    return np.array(counts)


def test_one_evaluation_mixes_bordered_and_plain_points(square):
    # the square's diagonal resonates at pi/sqrt2 (one rod bordered), its
    # sides at pi (four rods): one call evaluates the points of each border
    # width together and the rest on D itself, and each point gets J and
    # (sign, log|det D|) as on its own and as the reference B gives
    from test_assembly import _bordered_reference
    from spectruss.spectrum import _det_eval

    func, count = _det_eval(square)
    xs = np.array([math.pi / math.sqrt(2) * (1 + 2e-4), 2.0, math.pi * (1 - 3e-4),
                   math.pi * (1 + 1e-11), 3.5, math.pi / math.sqrt(2) * (1 - 1e-10)])
    sign, logabs = func(xs)
    counts = count(xs)[0]
    assert counts.tolist() == _wittrick_williams_count(square, xs).tolist()
    for i, omega in enumerate(xs):
        alone = func(xs[i : i + 1])
        assert alone[0][0] == sign[i] and abs(alone[1][0] - logabs[i]) <= 1e-9
        assert count(xs[i : i + 1])[0][0] == counts[i]
        near = {}
        for rod in square.rods:
            x = omega * square.rod_properties(rod).transit_time
            if abs(x - math.pi * round(x / math.pi)) < 1e-3:
                near[rod.id] = round(x / math.pi)
        finite, border, corner = _bordered_reference(square, omega, near, True)
        border = border.reshape(len(finite), len(near))
        ref_sign, ref_log = np.linalg.slogdet(np.block([[finite, border], [border.T, np.diag(corner)]]))
        assert sign[i] == ref_sign * np.prod(np.sign(corner))
        assert abs(logabs[i] - (ref_log - np.sum(np.log(np.abs(corner))))) <= 1e-9


def test_roots_of_each_segment_match_the_negative_eigenvalue_count():
    # the sweep's roots between two pole bands, each counted as often as it
    # has modes, and the modes at each pole, against the rise of J across
    # the segment or the band (the root tolerance wide)
    from test_assembly import _pattern_cases

    for truss in _pattern_cases():
        window = _default_window(truss)
        sweep = find_natural_frequencies(truss, window)
        assert sweep.warnings == []
        poles = pole_set(truss, window)
        bands = _bands(truss, window)
        segments = _segments(window, bands)
        assert [hi - lo for lo, hi in bands] == pytest.approx(
            [window.tol_at(p.omega) for p in poles], rel=1e-6
        )
        regular = [m.omega for m in sweep if m.kind == "regular"]
        ends = _wittrick_williams_count(truss, np.ravel(segments)).reshape(-1, 2)
        for (lo, hi), (n_lo, n_hi) in zip(segments, ends):
            found = sum(len(extract_modes(truss, w)) for w in regular if lo <= w <= hi)
            assert found == n_hi - n_lo, (lo, hi)
        for pole, (lo, hi) in zip(poles, bands):
            at_pole = [m for m in sweep if m.kind != "regular" and m.omega == pole.omega]
            n_lo, n_hi = _wittrick_williams_count(truss, [lo, hi])
            assert len(at_pole) == n_hi - n_lo, pole.omega


def test_pole_whose_count_disagrees_with_its_modes_is_a_warning(bridge, monkeypatch):
    # the count across the bridge's band at pi rises by 3: one resonant and two
    # interior modes; a mode check that misses one of them is reported
    from spectruss import spectrum

    sweep = find_natural_frequencies(bridge, _default_window(bridge))
    at_pi = [m.kind for m in sweep if m.kind != "regular"]
    assert at_pi == ["resonant", "interior", "interior"]
    assert sweep.warnings == []
    lo, hi = _bands(bridge, _default_window(bridge))[0]
    assert np.ptp(_wittrick_williams_count(bridge, [lo, hi])) == 3

    original = spectrum._pole_modes
    monkeypatch.setattr(spectrum, "_pole_modes", lambda *args: [found[:-1] for found in original(*args)])
    sweep = find_natural_frequencies(bridge, _default_window(bridge))
    assert sweep.warnings == [
        "count rises by 3 across the pole at 3.141592654, but 2 resonant modes were found there"
    ]


def test_interior_modes_of_the_bridge_keep_the_joints_at_rest(bridge):
    # at pi the seven rods' clamped-end standing waves combine, two ways, into
    # end forces that balance at every free joint: u = 0 and Q xi = 0
    from test_assembly import _bordered_reference

    orders = {rod.id: 1 for rod in bridge.rods}
    modes = resonant_mode_check(bridge, math.pi)
    assert [m.kind for m in modes] == ["resonant", "interior", "interior"]
    assert modes[0].rod_amplitudes is None
    _, free_border, _ = _bordered_reference(bridge, math.pi, orders, True)
    _, full_border, _ = _bordered_reference(bridge, math.pi, orders, False)
    anchored = [i for i, j in enumerate(bridge.joints) if j.anchored]
    rows = np.concatenate([np.arange(2 * i, 2 * i + 2) for i in anchored])
    xis = []
    for mode in modes[1:]:
        assert mode.omega == math.pi and mode.resonant_order == 1
        assert all(np.array_equal(u, np.zeros(2)) for u in mode.displacements.values())
        xi = np.array([mode.rod_amplitudes[rod.id] for rod in bridge.rods])
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(free_border @ xi) <= 1e-12 * np.linalg.norm(free_border)
        reactions = np.concatenate([mode.anchor_forces[j.id] for j in bridge.anchored_joints])
        assert np.max(np.abs(reactions - full_border[rows] @ xi)) <= 1e-12 * np.linalg.norm(full_border)
        xis.append(xi)
    assert abs(xis[0] @ xis[1]) <= 1e-12


def test_braced_lattice_has_seven_interior_modes_at_pi():
    lattice = braced_lattice(8)
    pole = next(p for p in pole_set(lattice, FrequencyWindow(3.0, 3.2)))
    modes = resonant_mode_check(lattice, pole.omega)
    assert pole.omega == pytest.approx(math.pi) and len(pole.rods) == 112
    assert [m.kind for m in modes] == ["interior"] * 7


def _star(dim, rods):
    """One free joint at the origin, joined by equal unit rods to anchors on the unit sphere."""
    joints = [Joint("c", (0.0,) * dim)]
    for i in range(rods):
        angle = 2.0 * math.pi * i / rods
        point = np.array([math.cos(angle), math.sin(angle), 0.5 * (-1) ** i][:dim])
        joints.append(Joint(f"a{i}", tuple(point / np.linalg.norm(point)), anchored=True))
    links = [Rod(f"r{i}", ("c", f"a{i}"), 1.0, "unit") for i in range(rods)]
    return Truss(dim, joints, links, {"unit": Material("unit", 1.0, 1.0)})


@pytest.mark.parametrize("dim, rods", [(2, 5), (3, 7)])
def test_star_at_pi_has_an_interior_mode_per_rod_past_its_free_coordinates(dim, rods):
    # the pole's null space (rods - dim interior modes) is larger than the
    # free joint's dim coordinates, so the u-block's rank does not bound it
    from test_assembly import _bordered_reference

    star = _star(dim, rods)
    window = FrequencyWindow(3.0, 3.2)
    (pole,) = pole_set(star, window)
    sweep = find_natural_frequencies(star, window)
    assert sweep.warnings == []
    assert [m.kind for m in sweep] == ["interior"] * (rods - dim)
    n_lo, n_hi = _wittrick_williams_count(star, _bands(star, window)[0])
    assert n_hi - n_lo == rods - dim
    _, border, _ = _bordered_reference(star, pole.omega, dict(zip(pole.rods, pole.orders)), True)
    xis = np.array([[m.rod_amplitudes[rod.id] for rod in star.rods] for m in sweep])
    assert np.allclose(xis @ xis.T, np.eye(rods - dim), atol=1e-12)
    assert np.linalg.norm(border @ xis.T) <= 1e-12 * np.linalg.norm(border)


def _draws(count):
    """The test generator's first `count` draws."""
    rng = np.random.default_rng(0)
    return [random_truss(rng) for _ in range(count)]


def _pole_distance(truss, omega):
    """min over rods and n >= 1 of |omega*tau - n*pi|."""
    taus = [truss.rod_properties(rod).transit_time for rod in truss.rods]
    return min(abs(omega * tau - math.pi * max(1, round(omega * tau / math.pi))) for tau in taus)


def test_every_pole_of_the_first_200_draws_has_its_counted_modes():
    # draws without a mechanism joint: no warning, and the resonant and
    # interior modes at each pole number the rise of J across its band
    poles_checked = 0
    for truss in _draws(200):
        if _span_frames(truss)[1]:
            continue
        window = _default_window(truss)
        sweep = find_natural_frequencies(truss, window)
        assert sweep.warnings == []
        poles = pole_set(truss, window)
        counts = _wittrick_williams_count(truss, np.ravel(_bands(truss, window))).reshape(-1, 2)
        for pole, (n_lo, n_hi) in zip(poles, counts):
            at_pole = [m for m in sweep if m.kind != "regular" and m.omega == pole.omega]
            assert len(at_pole) == n_hi - n_lo, pole.omega
        poles_checked += len(poles)
    assert poles_checked == 1684


def test_roots_within_the_pole_guard_are_found():
    # draws 42, 174 and 190 have regular roots within 1e-5 rad of a pole,
    # where D's entries are too large to sample it
    # alone; extract_modes borders the near rod, and the mode leaves a
    # round-off residual in D itself
    draws = _draws(191)
    for k, expected in ((42, 1), (174, 6), (190, 1)):
        truss = draws[k]
        sweep = find_natural_frequencies(truss, _default_window(truss))
        inside = [m.omega for m in sweep if m.kind == "regular" and _pole_distance(truss, m.omega) < 1e-5]
        assert len(inside) == expected, k
        free = [j.id for j in truss.free_joints]
        pattern = _pattern(truss, True)
        for omega in inside:
            d = laplacian_evaluator(truss, pattern)([omega])[0]
            (mode,) = extract_modes(truss, omega)
            u = pattern.lift.T @ mode_vector(mode, free)
            assert np.linalg.norm(d @ u) <= 1e-9 * np.linalg.norm(d, 2), (k, omega)


def test_root_beside_a_pole_agrees_with_the_subdivided_sweep():
    # draw 174's root 1.4e-5 from a pole (2.6e-4 rad), where D's own count is
    # off by a root tolerance; the x3 sweep's subdivided rods have no pole there
    truss = _draws(175)[174]
    window = _default_window(truss)
    (root,) = [w for w in find_natural_frequencies(truss, window).omegas if abs(w - 14.534117366) < 1e-8]
    fine = find_natural_frequencies(subdivide(truss, 3), FrequencyWindow(14.53, 14.54)).omegas
    (reference,) = [w for w in fine if abs(w - 14.534117366) < 1e-8]
    assert abs(root - reference) <= window.tol_at(root)


# the benchmark's random-trusses seed 31, case 15 (truss_to_json), a truss with
# a mechanism joint j0 and a root 3.3e-4 rad from rod r3's resonance 6 pi
_ROOT_BESIDE_A_THIN_ROD = """{
  "dimension": 2, "dimensionless": false, "materials": {"m": {"youngs_modulus": 1.0, "density": 1.0}},
  "joints": [
    {"id": "j0", "position": [0.4975114500078701, 0.2874095241606207], "anchored": false},
    {"id": "j1", "position": [0.45151537010373977, -0.8343828482070106], "anchored": false},
    {"id": "j2", "position": [-0.2945131686071898, 0.03966614866846352], "anchored": false},
    {"id": "j3", "position": [-0.14655771253951788, -0.9187648762545095], "anchored": false},
    {"id": "j4", "position": [-0.6119450901984136, 0.890049296609253], "anchored": false},
    {"id": "j5", "position": [-0.6748605504933636, 0.7041046649255505], "anchored": false}],
  "rods": [
    {"id": "r0", "joints": ["j0", "j1"], "area": 1.2969569366712022, "material": "m"},
    {"id": "r1", "joints": ["j1", "j2"], "area": 1.50008013498326, "material": "m"},
    {"id": "r2", "joints": ["j2", "j3"], "area": 1.7156533995538723, "material": "m"},
    {"id": "r3", "joints": ["j3", "j4"], "area": 0.6827894142573048, "material": "m"},
    {"id": "r4", "joints": ["j4", "j5"], "area": 1.0752688787857225, "material": "m"},
    {"id": "r1_3", "joints": ["j1", "j3"], "area": 1.1238950105432675, "material": "m"},
    {"id": "r3_5", "joints": ["j3", "j5"], "area": 1.8155301136860547, "material": "m"},
    {"id": "r2_4", "joints": ["j2", "j4"], "area": 1.597120010208612, "material": "m"}]
}"""


def test_mode_beside_a_pole_that_moves_the_joints_less_than_its_rod_is_found():
    # there r3 is bordered, and B's null vector has a displacement block of norm
    # 0.36 against a border amplitude of 0.93, r3's Lambda being small: a split
    # at 0.5 took it for a u = 0 direction, and extract_modes raised NotARootError
    truss = load_truss(_ROOT_BESIDE_A_THIN_ROD)
    (root,) = [w for w in find_natural_frequencies(truss, _default_window(truss)).omegas if abs(w - 10.0924) < 1e-3]
    tau = truss.rod_properties("r3").transit_time
    assert 0.0 < abs(root * tau - 6.0 * math.pi) < BORDER_RADIUS
    (mode,) = extract_modes(truss, root)
    assert mode.kind == "regular"


def test_resonance_check_skipped_where_the_count_shows_no_mode(square, monkeypatch):
    # the square's diagonal resonates at pi/sqrt2 with no mode there: the
    # count across that pole's guard band does not rise, so only pi is checked
    from spectruss import spectrum

    checked = []
    original = spectrum._pole_modes

    def check(truss, poles):
        checked.extend(omega for omega, *_ in poles)
        return original(truss, poles)

    monkeypatch.setattr(spectrum, "_pole_modes", check)
    window = FrequencyWindow(0.05, 1.2 * math.pi)
    sweep = find_natural_frequencies(square, window)
    assert [p.omega for p in pole_set(square, window)] == pytest.approx([math.pi / math.sqrt(2), math.pi])
    assert checked == pytest.approx([math.pi])
    assert [m.omega for m in sweep if m.kind == "resonant"] == pytest.approx([math.pi, math.pi])
    assert sweep.warnings == []


def test_plane_spanning_joint_count_is_not_silent():
    # draw 47: 3D joints that span a plane, where the count is not monotone
    # near the poles and the sweep's roots are wrong (ROADMAP item 2); at the
    # pole 1.481659345, a natural frequency by the x3 count, the count across
    # the guard band rises by 0 while the resonance check finds a mode
    rng = np.random.default_rng(0)
    for _ in range(47):
        random_truss(rng)
    truss = random_truss(rng)
    sweep = find_natural_frequencies(truss, _default_window(truss))
    assert "count rises by 0 across the pole at 1.481659345, but 1 resonant modes were found there" in sweep.warnings


def test_no_root_where_the_count_has_none():
    # draw 148 of the test generator: a |det| dip near 2.96641, beside the pole
    # at 2.964917, that holds no root
    rng = np.random.default_rng(0)
    for _ in range(148):
        random_truss(rng)
    truss = random_truss(rng)
    lo, hi = 2.966, 2.967
    assert np.ptp(_negative_count(truss, [lo, hi])) == 0
    omegas = find_natural_frequencies(truss, _default_window(truss)).omegas
    assert not any(lo <= w <= hi for w in omegas)


def test_extract_modes_agrees_with_the_sweep_at_every_frequency_it_lists(square, bridge):
    # one decision of which rods resonate at omega: at each distinct frequency
    # of the sweep, poles included, extract_modes returns as many modes of
    # each kind as the sweep lists there. Draw 47 is left out: its count is
    # not trusted at its mechanism joints' poles (ROADMAP item 1)
    from collections import Counter

    cases = [t for k, t in enumerate(_draws(200)) if k != 47]
    cases += [square, bridge, subdivide(square, 2), subdivide(bridge, 2)]
    frequencies = 0
    for truss in cases:
        listed = {}
        for m in find_natural_frequencies(truss, _default_window(truss)):
            listed.setdefault(m.omega, Counter())[m.kind] += 1
        for omega, kinds in listed.items():
            assert Counter(m.kind for m in extract_modes(truss, omega)) == kinds, omega
        frequencies += len(listed)
    assert frequencies == 3410 + 35  # the draws' and the four structures'


def test_extract_modes_at_a_pole_and_beside_one(square, bridge):
    assert [m.kind for m in extract_modes(bridge, math.pi)] == ["resonant", "interior", "interior"]
    assert [m.kind for m in extract_modes(square, math.pi)] == ["resonant", "resonant"]
    with pytest.raises(NotARootError, match="rod resonance with no natural mode"):
        extract_modes(square, math.pi / math.sqrt(2.0))
    # simple roots beside a rod 1e-3 to 1e-2 rad from its resonance, which
    # inflates max |eigenvalue|: MODE_TOL of it takes in a second direction,
    # and the rise of J across the root keeps one
    draws = _draws(191)
    for k, root in ((174, 6.592992925), (174, 11.107096530), (190, 1.748509983)):
        truss = draws[k]
        (omega,) = [w for w in find_natural_frequencies(truss, _default_window(truss)).omegas
                    if abs(w - root) < 1e-8]
        assert [m.kind for m in extract_modes(truss, omega)] == ["regular"], (k, root)


def test_a_frequency_in_a_poles_band_gives_the_poles_modes_at_the_pole(square, bridge):
    # pi*(1 +- 1e-11) and the rounded 3.1415926536 lie within half the root
    # tolerance of the pole at pi but off it, where a border built at omega
    # itself would leave no direction below the pole's 1e-13 cutoff: the
    # modes are the pole's own, at its exact frequency
    for truss in (square, bridge):
        at_pole = extract_modes(truss, math.pi)
        for omega in (math.pi * (1.0 + 1e-11), math.pi * (1.0 - 1e-11), 3.1415926536):
            modes = extract_modes(truss, omega)
            assert [m.kind for m in modes] == [m.kind for m in at_pole], omega
            for mode, ref in zip(modes, at_pole):
                assert mode.omega == math.pi
                for jid, u in ref.displacements.items():
                    assert np.array_equal(mode.displacements[jid], u)
    assert resonant_mode_check(square, 3.1415926536)[0].omega == math.pi
    assert resonant_mode_check(square, math.pi * (1.0 + 1e-9)) == []


def _tuned_star(shifts):
    """_star(2, len(shifts)) with rod i resonant at pi*(1 + shifts[i]*h), h half the root tolerance."""
    from spectruss.spectrum import _half_band

    star = _star(2, len(shifts))
    h = _half_band(1.0)
    materials = {f"m{i}": Material(f"m{i}", (1.0 + x * h) ** 2, 1.0) for i, x in enumerate(shifts)}
    rods = [Rod(rod.id, rod.joints, rod.area, f"m{i}") for i, rod in enumerate(star.rods)]
    return Truss(2, star.joints, rods, materials)


def test_each_resonance_has_one_pole_where_two_bands_overlap():
    # resonances at pi, pi*(1 + 0.6h) and pi*(1 + 1.4h): the third is 0.7 of
    # the root tolerance above the first and starts a pole of its own, and
    # the second, within half a band of both poles, is the first's only. The
    # second pole's band starts where the first's ends, so the one interior
    # mode of the three rods is counted and listed once; the single-omega
    # lookup finds each resonance's pole with the band the window's chain gives
    star = _tuned_star([0.0, 0.6, 1.4])
    window = FrequencyWindow(3.0, 3.2)
    poles = pole_set(star, window)
    assert [p.rods for p in poles] == [("r0", "r1"), ("r2",)]
    bands = _bands(star, window)
    (lo1, hi1), (lo2, hi2) = bands
    assert lo1 < poles[0].omega < hi1 == lo2 < poles[1].omega < hi2
    resonances = [math.pi / star.rod_properties(rod).transit_time for rod in star.rods]
    for omega, k in zip(resonances, (0, 0, 1)):
        found, rods, _, band = _pole_at(star, omega)
        assert found == poles[k].omega and band == bands[k]
        assert tuple(star.rods[r].id for r in rods) == poles[k].rods
    sweep = find_natural_frequencies(star, window)
    assert sweep.warnings == []
    assert [(m.omega, m.kind) for m in sweep] == [(poles[0].omega, "interior")]
    counts = _wittrick_williams_count(star, np.ravel(bands)).reshape(-1, 2)
    assert [n_hi - n_lo for n_lo, n_hi in counts] == [1, 0]


def test_a_pole_borders_its_neighbours_rods_and_lists_only_its_bands_modes():
    # at the second pole of the tuned star, bordering r2 alone let r0's and
    # r1's diverging terms inflate max |eigenvalue| past the cutoff and an
    # interior mode appeared that neither J nor the sweep has; bordered at
    # every rod within BORDER_RADIUS the pole has none. The first pole keeps
    # the three rods' interior mode, a root of its band off its frequency
    star = _tuned_star([0.0, 0.6, 1.4])
    first, second = pole_set(star, FrequencyWindow(3.0, 3.2))
    assert resonant_mode_check(star, second.omega) == []
    with pytest.raises(NotARootError):
        extract_modes(star, second.omega)
    (mode,) = resonant_mode_check(star, first.omega)
    assert mode.kind == "interior" and mode.omega == first.omega
    assert [m.kind for m in extract_modes(star, first.omega)] == ["interior"]


def _pole_at_by_full_chain(truss, omega):
    """_pole_at without its early exit: every rod's nearest resonance chained."""
    taus = truss._rod_table.transit_time
    n = np.rint(omega * taus / math.pi).astype(int)
    poles = _chain(n * math.pi / taus, np.arange(taus.size), n)
    found = next((pole for pole in poles if pole[3][1] >= omega), None)
    return found if found and found[3][0] <= omega else None


_LOOKUP_TRUSSES = [
    builtin_structure("square"), builtin_structure("bridge"), _tuned_star([0.0, 0.6, 1.4]), *_draws(8)
]


@given(
    truss=st.sampled_from(_LOOKUP_TRUSSES),
    rod=st.integers(0, 100),
    order=st.integers(1, 3),
    step=st.integers(-4, 4),
)
def test_pole_lookup_exits_early_exactly_where_the_full_chain_finds_no_pole(truss, rod, order, step):
    # omega = r*(1 + step*2.5e-11) around a resonance r: a half band is
    # 5e-11 r, so steps -2..2 lie in or at the edge of r's band and +-4 at
    # the early exit's margin of two half bands
    tau = truss._rod_table.transit_time[rod % len(truss.rods)]
    omega = order * math.pi / tau * (1.0 + step * 2.5e-11)
    assert _pole_at(truss, omega) == _pole_at_by_full_chain(truss, omega)


@given(truss=st.sampled_from(_LOOKUP_TRUSSES), omega=st.floats(1e-3, 20.0))
def test_pole_lookup_matches_the_full_chain_at_any_omega(truss, omega):
    assert _pole_at(truss, omega) == _pole_at_by_full_chain(truss, omega)


def _same_modes(found, expected):
    """Mode lists equal in omega, kind, order and every array by its bytes."""
    assert len(found) == len(expected)
    for a, b in zip(found, expected):
        assert (a.omega, a.kind, a.resonant_order) == (b.omega, b.kind, b.resonant_order)
        for x, y in ((a.displacements, b.displacements), (a.anchor_forces, b.anchor_forces)):
            assert list(x) == list(y)
            assert all(x[key].tobytes() == y[key].tobytes() for key in x)
        assert a.rod_amplitudes == b.rod_amplitudes


@pytest.mark.parametrize("budget", [None, 1], ids=["one-build-per-width", "one-pole-per-build"])
def test_sweeps_pole_modes_equal_those_checked_one_at_a_time(monkeypatch, budget):
    # the sweep reads every checked pole's modes off one bordered build per
    # border width (or, with a one-byte batch budget, one build per pole);
    # resonant_mode_check builds one pole at a time. The x2 and x3 subdivisions
    # have mechanism joints, so every pole of theirs is checked, and the x3
    # square's checked poles have border widths 3 and 12
    from spectruss import spectrum

    if budget is not None:
        monkeypatch.setattr(_roots, "BATCH_BYTES", budget)
    batches = []
    original = spectrum._pole_modes

    def record(truss, poles):
        found = original(truss, poles)
        batches.append((poles, found))
        return found

    monkeypatch.setattr(spectrum, "_pole_modes", record)
    square, bridge = builtin_structure("square"), builtin_structure("bridge")
    trusses = [square, bridge, subdivide(bridge, 2), subdivide(square, 2), subdivide(square, 3), *_draws(40)]
    for truss in trusses:
        find_natural_frequencies(truss, _default_window(truss))
    assert len(batches) == len(trusses)
    x3_poles = np.array([omega for omega, *_ in batches[4][0]])
    near, _ = spectrum._near_resonances(trusses[4]._rod_table.transit_time, x3_poles)
    assert sorted(near.sum(axis=1)) == [3, 12]
    checked = 0
    for truss, (poles, found) in zip(trusses, batches):
        assert len(found) == len(poles)
        for (omega, *_), modes in zip(poles, found):
            _same_modes(modes, resonant_mode_check(truss, omega))
            checked += 1
    assert checked > 300


def test_network_sweep_logs_its_warnings(caplog):
    # draw 47's pole at 1.481659345, where the count rises by 0 but the
    # resonance check finds a mode, is logged as SweepResult.warnings holds it
    truss = _draws(48)[47]
    with caplog.at_level(logging.WARNING, logger="spectruss"):
        sweep = find_natural_frequencies(truss, _default_window(truss))
    message = "count rises by 0 across the pole at 1.481659345, but 1 resonant modes were found there"
    assert message in sweep.warnings
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("spectruss", logging.WARNING, m) for m in sweep.warnings
    ]


# -- the forced response and the determinant on the sweep's matrix -------------------


def _largest(response):
    return max(float(np.max(np.abs(u))) for u in response.values())


@pytest.mark.parametrize("name", ["bridge", "square"])
def test_forced_response_at_the_parent_joints_does_not_move_under_subdivision(name):
    # every interior joint of a subdivided rod is a mechanism joint, which
    # the rod-span frames keep regular
    truss = builtin_structure(name)
    rng = np.random.default_rng(5)
    forces = {j.id: rng.normal(size=2) for j in truss.free_joints}
    for omega in (0.5, 1.3):
        base = solve_forced_response(truss, omega, forces)
        for k in (2, 3):
            fine = solve_forced_response(subdivide(truss, k), omega, forces)
            worst = max(float(np.max(np.abs(fine[jid] - u))) for jid, u in base.items())
            assert worst <= 1e-10 * _largest(base), (omega, k)


@pytest.mark.parametrize("draw", [0, 6, 7])
def test_forced_response_is_finite_at_a_pole_that_is_no_natural_frequency(draw):
    # at its first pole where J does not rise, B is regular: the response
    # there is finite and moves linearly in eps at pole * (1 + eps), on both
    # sides; draws 0 and 7 have a mechanism joint, draw 6 none
    truss = _draws(draw + 1)[draw]
    pole = next(p.omega for p in pole_set(truss, _default_window(truss)) if _rise(truss, p.omega) == 0)
    force = {truss.free_joints[0].id: np.ones(truss.dimension)}
    at = solve_forced_response(truss, pole, force)
    assert np.isfinite(_largest(at))
    steps = []
    for eps in (1e-9, 2e-9, -1e-9):
        moved = solve_forced_response(truss, pole * (1.0 + eps), force)
        steps.append(max(float(np.max(np.abs(moved[jid] - u))) for jid, u in at.items()))
    assert steps[1] / steps[0] == pytest.approx(2.0, rel=1e-3)
    assert steps[2] / steps[0] == pytest.approx(1.0, rel=1e-3)


def test_forced_response_raises_at_every_natural_frequency_of_the_bridge(bridge):
    # J rises by 1 at each regular root and by 3 at pi (one resonant and two
    # interior modes)
    window = FrequencyWindow(0.05, 1.05 * math.pi)
    omegas = sorted(set(find_natural_frequencies(bridge, window).omegas))
    assert [_rise(bridge, omega) for omega in omegas] == [1] * 5 + [3]
    assert omegas[-1] == pytest.approx(math.pi, abs=1e-12)
    for omega in omegas:
        with pytest.raises(SingularAtFrequencyError, match="natural frequency"):
            solve_forced_response(bridge, omega, {"3": [0.0, 1.0]})


def test_forced_response_raises_at_every_matching_root_of_draw_47():
    # draw 47's 3D joints span planes (ROADMAP item 1): J rises at 17 of its
    # 27 matching roots, and the residual test alone refuses the other 10,
    # where the solve returned displacements of 2e15 to 4e16 without it
    truss = _draws(48)[47]
    omegas = reverberation_frequencies(truss, _default_window(truss))
    assert len(omegas) == 27
    forces = {j.id: np.ones(3) for j in truss.free_joints}
    for omega in omegas:
        with pytest.raises(SingularAtFrequencyError):
            solve_forced_response(truss, omega, forces)


@pytest.mark.parametrize("component", [math.nan, math.inf, True, "1"])
def test_forced_response_refuses_a_force_component_that_is_no_finite_number(bridge, component):
    # nan and inf gave nan displacements with a RuntimeWarning; True and "1" were taken for 1.0
    with pytest.raises(ValueError, match=re.escape(
            f"force vector for joint '3' must hold finite numbers, not {component!r}")):
        solve_forced_response(bridge, 1.0, {"3": [component, 0]})


def test_forced_response_takes_numpy_float_and_integer_forces(bridge):
    want = solve_forced_response(bridge, 1.0, {"3": [1.0, 2.0]})["3"]
    for force in (np.array([1.0, 2.0]), np.array([1, 2]), np.array([1.0, 2.0], dtype=np.float32),
                  [np.int64(1), np.float64(2.0)]):
        assert np.array_equal(solve_forced_response(bridge, 1.0, {"3": force})["3"], want)


def test_a_force_outside_a_mechanism_joints_span_moves_nothing(bridge):
    # the rule scattering's force_coupling follows: the response to p equals
    # that to F F^T p, F the joint's rod-span frame
    fine = subdivide(bridge, 2)
    frame = dict(zip((j.id for j in fine.joints), _span_frames(fine)[0]))["13#1"]
    assert frame.shape == (2, 1)
    p = np.array([0.3, 0.8])
    full = solve_forced_response(fine, 0.5, {"13#1": p})
    spanned = solve_forced_response(fine, 0.5, {"13#1": frame @ (frame.T @ p)})
    across = solve_forced_response(fine, 0.5, {"13#1": p - frame @ (frame.T @ p)})
    for jid, u in full.items():
        assert np.max(np.abs(spanned[jid] - u)) <= 1e-13 * _largest(full)
        assert np.max(np.abs(across[jid])) <= 1e-13 * _largest(full)


def test_determinant_of_a_truss_with_mechanism_joints_is_regular(square):
    # det D in rod-span frames: non-zero off the roots, ~0 at one
    fine = subdivide(square, 2)
    det = laplacian_determinant(fine, 0.5)
    assert np.isfinite(det) and det != 0.0
    root = 0.9201511845297538
    near = laplacian_determinant(fine, root)
    assert abs(near) <= 1e-9 * abs(laplacian_determinant(fine, root + 0.1))


def test_consistent_fem_response_converges_to_the_network_response(bridge):
    # the paper's FEM equivalence beyond the roots: (K - w^2 M)^-1 P on the
    # x n subdivided bridge, in its rod-span frames, tends to the network
    # response at the parent joints at the consistent mass's O(h^2) rate
    # (3.2e-4, 8.0e-5 and 2.0e-5 relative)
    omega = 0.5
    forces = {"2": np.array([0.3, 0.1]), "3": np.array([0.0, -1.0])}
    exact = solve_forced_response(bridge, omega, forces)
    errors = []
    for n in (8, 16, 32):
        fine = subdivide(bridge, n)
        k = assemble_stiffness(fine)
        m = assemble_mass(fine, "consistent")
        load = np.zeros(len(k.entries))  # the parent joints' frames are the identity
        for jid, vec in forces.items():
            load[k.index_map[jid] : k.index_map[jid] + 2] = vec
        u = np.linalg.solve(k.entries - omega**2 * m.entries, load)
        errors.append(
            max(float(np.max(np.abs(u[k.index_map[j] : k.index_map[j] + 2] - exact[j]))) for j in exact)
            / _largest(exact)
        )
    assert errors[-1] <= 1e-4
    assert all(0.2 <= fine / coarse <= 0.3 for coarse, fine in zip(errors, errors[1:])), errors


@pytest.mark.parametrize("name", ["bridge", "square"])
def test_mode_shapes_at_the_parent_joints_do_not_move_under_subdivision(name):
    truss = builtin_structure(name)
    parents = [j.id for j in truss.free_joints]

    def shape(structure, omega):
        (mode,) = extract_modes(structure, omega)
        vec = mode_vector(mode, parents)
        return vec / np.linalg.norm(vec)

    sweep = find_natural_frequencies(truss, _default_window(truss))
    regular = [m.omega for m in sweep if m.kind == "regular"]
    assert len(regular) >= 4
    for omega in regular:
        base = shape(truss, omega)
        for k in (2, 3):
            fine = align_sign(shape(subdivide(truss, k), omega), base)
            assert np.max(np.abs(fine - base)) <= 1e-9, (omega, k)


# -- the count's LDL^T kernel ---------------------------------------------------------


def _assert_inertia(stack):
    below, sign, logabs = _roots._ldl_inertia(stack)
    assert below.tolist() == np.count_nonzero(np.linalg.eigvalsh(stack) < 0.0, axis=-1).tolist()
    ref_sign, ref_log = np.linalg.slogdet(stack)
    assert sign.tolist() == ref_sign.tolist()
    assert np.max(np.abs(logabs - ref_log), initial=0.0) <= 1e-9


def test_ldl_inertia_matches_eigvalsh_and_slogdet_on_random_symmetric_stacks():
    rng = np.random.default_rng(7)
    pivots = 0
    for n in (1, 2, 3, 5, 8, 20, 60):
        a = rng.standard_normal((25, n, n))
        for stack in (a + a.transpose(0, 2, 1), a @ a.transpose(0, 2, 1) + n * np.eye(n)):
            _assert_inertia(stack)
            for matrix in stack:
                pivots += np.any(_roots.lapack.dsytrf(matrix)[1] < 0)
    assert pivots >= 50  # most indefinite matrices take a 2 x 2 pivot


def test_ldl_inertia_takes_two_by_two_pivots_and_exact_zeros():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])  # no 1 x 1 pivot: one 2 x 2 block
    assert _roots.lapack.dsytrf(swap)[1].tolist() == [-1, -1]
    blocks = np.zeros((4, 4))
    blocks[:2, :2], blocks[2:, 2:] = swap, -np.array([[1.0, 3.0], [3.0, 1.0]])
    negative = np.array([[-1.0, -3.0, 0.0], [-3.0, -1e-3, 2.0], [0.0, 2.0, -4.0]])
    _assert_inertia(np.array([swap, -swap]))
    _assert_inertia(np.array([blocks, -blocks]))
    _assert_inertia(negative[None])

    singular = np.array([np.diag([2.0, 0.0, -1.0]), np.zeros((3, 3)), np.ones((3, 3))])
    with np.errstate(all="raise"):
        below, sign, logabs = _roots._ldl_inertia(singular)
    assert below.tolist() == [1, 0, 0]
    assert sign.tolist() == [0.0, 0.0, 0.0]
    assert logabs.tolist() == [-math.inf] * 3


def test_ldl_inertia_of_an_empty_stack_and_of_zero_by_zero_matrices():
    # an all-anchored truss leaves D zero by zero: no negative eigenvalue, det 1
    for m in (0, 3):
        below, sign, logabs = _roots._ldl_inertia(np.zeros((m, 0, 0)))
        assert below.tolist() == [0] * m and sign.tolist() == [1.0] * m
        assert logabs.tolist() == [0.0] * m
    below, sign, logabs = _roots._ldl_inertia(np.zeros((0, 4, 4)))
    assert below.shape == sign.shape == logabs.shape == (0,)


# -- the polish's banded LU ------------------------------------------------------------


def _band_stack(matrices, kl):
    """Each matrix's band storage as band_layout lays it out: entry (i, j) at [j, 2 kl + i - j]."""
    m, n = matrices.shape[:2]
    i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= kl)
    stack = np.zeros((m, n, 3 * kl + 1))
    stack[:, j, 2 * kl + i - j] = matrices[:, i, j]
    return stack


def _assert_band_slogdet(matrices, kl):
    sign, logabs = _roots.band_slogdet(_band_stack(matrices, kl))
    ref_sign, ref_log = np.linalg.slogdet(matrices)
    assert sign.tolist() == ref_sign.tolist()
    finite = np.isfinite(ref_log)
    assert logabs[~finite].tolist() == ref_log[~finite].tolist()
    error = np.abs(logabs[finite] - ref_log[finite])
    assert np.all(error <= 1e-12 * np.maximum(np.abs(ref_log[finite]), 1.0))


def test_band_slogdet_matches_slogdet_on_random_banded_stacks():
    rng = np.random.default_rng(3)
    exchanges = 0
    for n in (1, 2, 3, 7, 20):
        for kl in range(n):
            a = rng.standard_normal((6, n, n))
            a[:, np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > kl] = 0.0
            for stack in (a, a + a.transpose(0, 2, 1)):
                _assert_band_slogdet(stack, kl)
                exchanges += sum(
                    np.any(_roots.lapack.dgbtrf(band.T, kl, kl)[1] != np.arange(n))
                    for band in _band_stack(stack, kl)
                )
    assert exchanges >= 100  # the sign takes the row exchanges' parity


def test_band_slogdet_matches_slogdet_on_the_braced_lattice():
    lattice = braced_lattice(8)
    pattern = _pattern(lattice, True)
    omegas = np.linspace(0.05, 1.2 * math.pi, 41)  # across poles, where D's entries are large
    dense = laplacian_evaluator(lattice, pattern)(omegas)
    band = laplacian_evaluator(lattice, pattern.band)(omegas)
    assert np.array_equal(band, _band_stack(dense, 19))  # the band's positions
    _assert_band_slogdet(dense, 19)


def test_band_slogdet_of_singular_one_by_one_and_empty_stacks():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 9, 9))
    a[:, np.abs(np.subtract.outer(np.arange(9), np.arange(9))) > 2] = 0.0
    a[0, :, 4] = 0.0  # an exact zero pivot, at the fifth column
    a[1] = 0.0
    with np.errstate(all="raise"):
        sign, logabs = _roots.band_slogdet(_band_stack(a, 2))
    assert sign[:2].tolist() == [0.0, 0.0] and logabs[:2].tolist() == [-math.inf] * 2
    assert _roots.lapack.dgbtrf(_band_stack(a, 2)[0].T, 2, 2)[2] == 5
    _assert_band_slogdet(a, 2)
    _assert_band_slogdet(np.array([[[2.5]], [[-0.5]], [[0.0]]]), 0)
    sign, logabs = _roots.band_slogdet(np.zeros((0, 5, 4)))
    assert sign.shape == logabs.shape == (0,)


def test_band_rule_takes_the_lattice_and_leaves_small_trusses_dense(square, bridge):
    # the rule reads n and kl off the swept pattern; the benchmark's lattice is
    # narrow, and every truss criterion 07 and the generator's draws sweep stays dense
    assert _pattern(braced_lattice(8), True).band.width == 3 * 19 + 1
    rng = np.random.default_rng(0)
    dense = [square, bridge, braced_lattice(5), *(random_truss(rng) for _ in range(40))]
    assert all(_pattern(truss, True).band is None for truss in dense)


def test_band_polish_finds_the_dense_polish_roots(monkeypatch):
    window = FrequencyWindow(0.05, 1.2 * math.pi)
    points = []
    band_slogdet = _roots.band_slogdet

    def spy(stack):
        points.append(len(stack))
        return band_slogdet(stack)

    monkeypatch.setattr(_roots, "band_slogdet", spy)
    banded = [m.omega for m in find_natural_frequencies(braced_lattice(8), window) if m.kind == "regular"]
    assert sum(points) > len(banded)  # the polish factors its points by banded LU
    # a fresh lattice, whose pattern the rule leaves dense: the same sweep, polished by slogdet
    monkeypatch.setattr(_roots, "band_layout", lambda rows, n: None)
    points.clear()
    dense = [m.omega for m in find_natural_frequencies(braced_lattice(8), window) if m.kind == "regular"]
    assert points == []
    assert len(banded) == len(dense) == 187
    assert all(abs(a - b) <= window.tol_at(a) for a, b in zip(banded, dense))


def test_signed_count_matches_its_parts_on_bordered_stacks():
    # B = [[F, Q], [Q^T, diag(c)]]: the count less N(diag(c)), det B / prod(c),
    # at widths 0, 1 and 3 in one call
    size, widths = 6, np.array([0, 1, 3, 1, 0, 3])

    def bordered(x, k):
        rng = np.random.default_rng(int(x))
        a = rng.standard_normal((size + k, size + k))
        a = a + a.T
        corner = rng.uniform(-2.0, 2.0, k)
        a[size:, size:] = np.diag(corner)
        return a, corner

    def build(xs, k):
        stack, corner = zip(*(bordered(x, k) for x in xs))
        return np.array(stack), np.array(corner).reshape(xs.size, k)

    xs = np.arange(widths.size, dtype=float)
    func, count = _roots.bordered_determinant(build, lambda xs: widths[xs.astype(int)], size)
    below, sign, logabs = count(xs)
    for i, x in enumerate(xs):
        b, corner = bordered(x, widths[i])
        schur = b[:size, :size] - b[:size, size:] @ np.diag(1.0 / corner) @ b[size:, :size]
        assert below[i] == np.count_nonzero(np.linalg.eigvalsh(schur) < 0.0)
        ref_sign, ref_log = np.linalg.slogdet(schur)
        assert sign[i] == ref_sign and abs(logabs[i] - ref_log) <= 1e-9
        assert func(xs[i : i + 1])[0][0] == ref_sign


# -- the modes' partial eigensolve ----------------------------------------------------


def _assert_near_null(matrix):
    """near_null against eigh: smax, the window's count, orthonormal vectors spanning eigh's."""
    smax, values, vectors = _roots.near_null(matrix, MODE_TOL)
    ref_values, ref_vectors = np.linalg.eigh(matrix)
    ref_smax = np.abs(ref_values).max()
    assert abs(smax - ref_smax) <= 1e-14 * ref_smax
    window = np.abs(ref_values) <= MODE_TOL * ref_smax
    assert values.size == np.count_nonzero(window)
    assert vectors.shape == (len(matrix), values.size) and np.all(np.diff(values) >= 0.0)
    assert np.abs(vectors.T @ vectors - np.eye(values.size)).max(initial=0.0) <= 1e-12
    basis = ref_vectors[:, window]
    assert np.abs(basis @ (basis.T @ vectors) - vectors).max(initial=0.0) <= 1e-12
    return values.size


def test_near_null_matches_eigh_on_planted_null_clusters():
    rng = np.random.default_rng(3)
    # multiplicity 1, 2 and 3, exact zeros and +- pairs, among eigenvalues of size 0.5 to 3
    clusters = ([2e-9], [0.0], [1e-10, -4e-10], [3e-9, -3e-9], [0.0, 0.0, 5e-10], [-1e-9, 1e-9, 0.0])
    found = []
    for n in (2, 17, 112):
        for near in clusters:
            if len(near) >= n:
                continue
            far = rng.uniform(0.5, 3.0, n - len(near)) * rng.choice([-1.0, 1.0], n - len(near))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = (q * np.concatenate([near, far])) @ q.T
            found.append(_assert_near_null(0.5 * (a + a.T)))
    assert found == [1, 1] + [1, 1, 2, 2, 3, 3] * 2


def test_near_null_of_matrices_whose_reflectors_vanish():
    # a reflector with tau = 0 is the identity: diagonal, block-diagonal and tridiagonal input
    rng = np.random.default_rng(5)
    diagonal = np.diag([3.0, 0.0, -2.0, 1e-9, 0.0, -1e-9, 2.5])
    a = rng.standard_normal((3, 3))
    blocks = np.zeros((17, 17))
    blocks[:3, :3], blocks[3:5, 3:5] = a + a.T, [[1.0, 1.0], [1.0, 1.0]]  # the second is singular
    blocks[6:, 6:] = np.diag(rng.uniform(1.0, 2.0, 11))  # and row 5 is zero
    path = 2.0 * np.eye(17) - np.eye(17, k=1) - np.eye(17, k=-1)
    path[0, 0] = path[-1, -1] = 1.0  # a path graph's Laplacian: one zero eigenvalue
    for matrix, count, every in ((diagonal, 4, True), (blocks, 2, False), (path, 1, True)):
        tau = _roots.lapack.dsytrd(matrix, lower=1)[3]
        assert (tau == 0.0).all() if every else (tau == 0.0).any()
        assert _assert_near_null(matrix) == count


def test_near_null_of_one_by_one_and_empty_matrices():
    for value, count in ((0.0, 1), (2.0, 0), (-3.0, 0)):
        smax, values, vectors = _roots.near_null(np.array([[value]]), MODE_TOL)
        assert smax == abs(value) and values.tolist() == [value] * count
        assert np.abs(vectors).tolist() == [[1.0] * count]
    smax, values, vectors = _roots.near_null(np.zeros((0, 0)), MODE_TOL)
    assert smax == 0.0 and values.shape == (0,) and vectors.shape == (0, 0)
