import math

import numpy as np
import pytest

from conftest import align_sign, mode_vector
from spectruss import (
    FrequencyWindow,
    Joint,
    Material,
    NotARootError,
    Rod,
    Truss,
    anchor_forces,
    builtin_structure,
    extract_modes,
    find_natural_frequencies,
    pole_set,
    resonant_mode_check,
    subdivide,
)
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


def test_extract_modes_not_a_root(bridge):
    with pytest.raises(NotARootError):
        extract_modes(bridge, 1.0)


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
    modes = resonant_mode_check(bridge, math.pi, [r.id for r in bridge.rods], [1] * 7)
    assert len(modes) == 1
    forces = anchor_forces(bridge, modes[0])
    assert np.linalg.norm(np.concatenate(list(forces.values()))) <= 1e-10


def test_resonant_bridge_matches_reference(bridge):
    row = next(r for r in bridge_reference_modes() if r.force_free)
    modes = resonant_mode_check(bridge, math.pi, [r.id for r in bridge.rods], [1] * 7)
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
    modes = resonant_mode_check(square, math.pi, ("12", "13", "24", "34"), (1, 1, 1, 1))
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
    modes = resonant_mode_check(fine, pole.omega, pole.rods, pole.orders)
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
    assert resonant_mode_check(infeasible, math.pi, ("ab",), (1,)) == []

    feasible = _elbow(0.5)
    modes = resonant_mode_check(feasible, math.pi, ("ab",), (1,))
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
    for omega in result.omegas:
        d = assemble_laplacian(truss, omega).entries
        modes = extract_modes(truss, omega)
        assert modes
        for mode in modes:
            u_d = mode.displacements["d"]
            assert np.linalg.norm(u_d - (u_d @ e_bd) * e_bd) <= 1e-12
            vec = mode_vector(mode, ("b", "c", "d"))
            assert np.linalg.norm(d @ vec) <= 1e-8 * np.linalg.norm(d)
            recovered = anchor_forces(truss, mode)
            assert set(recovered) == set(mode.anchor_forces) == {"a"}
            assert np.max(np.abs(recovered["a"] - mode.anchor_forces["a"])) <= 1e-12


def test_bridge_roots_invariant_under_subdivision(bridge):
    # anchored reduction and interior-joint projection together leave the
    # spectrum untouched; the resonance at pi becomes a plain double root
    window = FrequencyWindow(0.05, 1.05 * math.pi)
    base = [m.omega for m in find_natural_frequencies(bridge, window).modes]
    fine = subdivide(bridge, 2)
    refined = [m.omega for m in find_natural_frequencies(fine, window).modes]
    assert len(refined) == len(base)
    assert refined == pytest.approx(base, abs=1e-8)
    assert any(abs(w - math.pi) <= 1e-8 for w in refined)


def test_grid_too_coarse_warning():
    from spectruss._roots import sign_sweep_roots

    def wiggly(xs):
        vals = np.sin(10.0 * np.asarray(xs))
        return np.sign(vals), np.log(np.abs(vals) + 1e-300)

    roots, warnings = sign_sweep_roots(wiggly, [(0.1, 2.0, 3)], lambda x: 1e-12)
    assert warnings  # several crossings land in one refined cell
    expected = [k * math.pi / 10.0 for k in range(1, 7)]
    assert roots == pytest.approx(expected, abs=1e-10)


def test_resonant_constraint_system_shapes(bridge):
    from spectruss import resonant_constraint_system

    system = resonant_constraint_system(bridge, math.pi, [r.id for r in bridge.rods], [1] * 7)
    assert system.constraint_matrix.shape == (7, 6)  # one row per resonant rod
    assert system.nonresonant_force_operator.shape == (10, 6)
    assert system.limit_force_operator.shape == (10, 6)
    # all rods resonant: no finite-rod forcing remains
    assert np.all(system.nonresonant_force_operator == 0.0)


def test_forced_response_anchor_reactions(bridge):
    # reactions recovered through the anchored rows balance the applied load
    # in the static limit (sum of external + reaction forces is zero)
    from spectruss import ModeResult, solve_forced_response

    omega = 1e-6
    applied = {"3": np.array([0.4, -1.0])}
    disp = solve_forced_response(bridge, omega, applied)
    state = ModeResult(omega=omega, kind="regular", displacements=disp)
    reactions = anchor_forces(bridge, state)
    total = applied["3"] + sum(reactions.values())
    assert np.max(np.abs(total)) <= 1e-6 * np.linalg.norm(applied["3"])


def test_sweep_independent_of_thread_count(bridge):
    window = FrequencyWindow(0.05, 1.05 * math.pi)
    serial = find_natural_frequencies(bridge, window, threads=1)
    threaded = find_natural_frequencies(bridge, window, threads=4)
    assert [m.omega for m in serial.modes] == [m.omega for m in threaded.modes]


def test_pole_bracket_discarded():
    # a simple odd pole produces a sign change but must not be reported as a root
    from spectruss._roots import sign_sweep_roots

    def pole(xs):
        vals = 1.0 / (np.asarray(xs) - 1.3)
        return np.sign(vals), np.log(np.abs(vals))

    roots, _ = sign_sweep_roots(pole, [(1.0, 2.0, 50)], lambda x: 1e-12)
    assert roots == []


def _seam_function():
    """(sign, log|f|) of f = (x-.5)(x-1.95)^2 (x-2.5)(x-2.51)(x-2.52) ((x-2.2)^2 + 1e-12) / (x-1.5).

    Odd roots at 0.5 and three close ones near 2.5, an even root at 1.95
    (seen by the sigma probe) and an odd pole at 1.5. The factor at 2.2 is a
    sharp |f| dip with no root under it.
    """
    probed = []

    def func(xs):
        xs = np.asarray(xs, dtype=float)
        odd = (xs - 0.5) * (xs - 2.5) * (xs - 2.51) * (xs - 2.52) / (xs - 1.5)
        return np.sign(odd), np.log(np.abs(odd) * (xs - 1.95) ** 2 * ((xs - 2.2) ** 2 + 1e-12))

    def sigma(x):
        probed.append(x)
        return abs(x - 1.95), 1.0

    return func, sigma, probed


def test_sign_sweep_segments_share_one_pass_without_crossing_seams():
    from spectruss._roots import find_brackets, sign_sweep_roots

    tol = lambda x: 1e-12
    # the pole at 1.5 sits in the first seam; the second segment ends on the
    # dip at 2.2, and f keeps its sign across the second seam
    segments = [(0.1, 1.4, 40), (1.6, 2.2, 20), (2.3, 3.0, 13)]
    func, sigma, probed = _seam_function()
    _, brackets, warnings = find_brackets(func, segments, sigma_fn=sigma, tol_at=tol)
    assert brackets
    assert all(any(a <= lo and hi <= b for a, b, _ in segments) for lo, hi, _ in brackets)
    assert warnings  # the three close roots share one grid cell
    assert probed and all(abs(x - 1.95) < 0.05 for x in probed)  # 2.2 is never refined

    both, both_warnings = sign_sweep_roots(func, segments, tol, sigma_fn=sigma)
    assert both == pytest.approx([0.5, 1.95, 2.5, 2.51, 2.52], abs=1e-9)
    alone = [sign_sweep_roots(func, [segment], tol, sigma_fn=sigma) for segment in segments]
    assert both == sorted(sum((roots for roots, _ in alone), []))
    assert both_warnings == sum((w for _, w in alone), [])

    def never(xs):
        raise AssertionError("no segment, no evaluation")

    assert sign_sweep_roots(never, [], tol, sigma_fn=sigma) == ([], [])


def test_window_points_share_grid_points_by_width():
    fixed = FrequencyWindow(0.05, 12.0, grid_points=3000)
    assert fixed.points(0.05, 12.0, 0.37) == 3000
    for lo, hi in [(1.0, 2.5), (0.05, 3.1), (7.0, 7.001)]:
        assert fixed.points(lo, hi, 0.37) == max(2, round(3000 * (hi - lo) / 11.95))
    assert fixed.points(7.0, 7.001, 0.37) == 2

    dense = FrequencyWindow(0.05, 12.0)
    for lo, hi, tau_min in [(0.05, 12.0, 1.0), (1.0, 2.5, 0.3), (7.0, 7.001, 1.0)]:
        assert dense.points(lo, hi, tau_min) == max(16, math.ceil(2000.0 * (hi - lo) * tau_min))
    assert dense.points(7.0, 7.001, 1.0) == 16
