import dataclasses
import gc
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import braced_lattice, random_truss
from spectruss import (
    FrequencyWindow,
    Joint,
    Material,
    Rod,
    RodProperties,
    SingularAtFrequencyError,
    Truss,
    assemble_laplacian,
    assemble_mass,
    assemble_stiffness,
    builtin_structure,
    extract_modes,
    fem_frequencies,
    find_natural_frequencies,
    laplacian_determinant,
    pole_set,
    reverberation_frequencies,
    solve_forced_response,
    subdivide,
)
from spectruss import _roots, assembly, scattering, spectrum
from spectruss.scattering import matching_evaluator
from spectruss.validation import SquareClosedForm, closed_form_square_det


def block(matrix, i, j, dim=2):
    return matrix.entries[
        matrix.index_map[i] : matrix.index_map[i] + dim,
        matrix.index_map[j] : matrix.index_map[j] + dim,
    ]


def test_square_diagonal_block(square):
    w = 0.7
    d = assemble_laplacian(square, w, reduce_anchors=False)
    cot = math.cos(w) / math.sin(w)
    assert np.allclose(block(d, "1", "1"), w * cot * np.eye(2), rtol=1e-14)


def test_square_crossbar_block(square):
    w = 0.7
    d = assemble_laplacian(square, w, reduce_anchors=False)
    csc = 1.0 / math.sin(w * math.sqrt(2.0))
    expected = 0.5 * w * csc * np.array([[-1.0, 1.0], [1.0, -1.0]])
    assert np.allclose(block(d, "2", "3"), expected, rtol=1e-14)


def test_square_unconnected_block_zero(square):
    d = assemble_laplacian(square, 0.7, reduce_anchors=False)
    assert np.all(block(d, "1", "4") == 0.0)


def test_static_limit_matches_stiffness(square):
    d = assemble_laplacian(square, 1e-6, reduce_anchors=False)
    k = assemble_stiffness(square, reduce_anchors=False)
    scale = np.max(np.abs(k.entries))
    assert np.max(np.abs(d.entries - k.entries)) <= 1e-9 * scale


def test_single_rod_stiffness_blocks():
    mat = Material("m", 1.0, 1.0)
    truss = Truss(
        2,
        [Joint("a", (0.0, 0.0)), Joint("b", (1.0, 0.0))],
        [Rod("ab", ("a", "b"), 1.0, "m")],
        {"m": mat},
    )
    k = assemble_stiffness(truss, reduce_anchors=False)
    # both ends span the rod's direction only; lifted back to joint coordinates
    lift = assembly._pattern(truss, False).lift.toarray()
    joint = lift @ k.entries @ lift.T
    unit = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(joint[:2, :2], unit)
    assert np.allclose(joint[2:, 2:], unit)
    assert np.allclose(joint[:2, 2:], -unit)


def test_stiffness_from_richardson_extrapolation(square):
    # D(w) = K + w^2 C + O(w^4); (4 D(w/2) - D(w)) / 3 cancels the w^2 term
    k = assemble_stiffness(square, reduce_anchors=False).entries
    d1 = assemble_laplacian(square, 1e-3, reduce_anchors=False).entries
    d2 = assemble_laplacian(square, 5e-4, reduce_anchors=False).entries
    extrapolated = (4.0 * d2 - d1) / 3.0
    assert np.max(np.abs(extrapolated - k)) <= 1e-10 * np.max(np.abs(k))


def test_unanchored_stiffness_annihilates_translations(square):
    k = assemble_stiffness(square, reduce_anchors=False).entries
    for direction in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        rigid = np.tile(direction, len(square.joints))
        assert np.max(np.abs(k @ rigid)) <= 1e-10 * np.max(np.abs(k))


def test_bridge_reduced_stiffness_positive_definite(bridge):
    k = assemble_stiffness(bridge, reduce_anchors=True)
    assert k.entries.shape == (6, 6)
    assert np.linalg.eigvalsh(k.entries).min() > 0.0


def test_determinant_matches_closed_form(square):
    cfg = SquareClosedForm.unit()
    got = laplacian_determinant(square, 0.7)
    assert got == pytest.approx(closed_form_square_det(cfg, 0.7), rel=1e-10)


def test_bridge_determinant_vanishes_at_root(bridge):
    omega = math.acos((5.0 + math.sqrt(5.0)) / 10.0)
    near = laplacian_determinant(bridge, omega)
    away = laplacian_determinant(bridge, omega + 0.1)
    assert abs(near) <= 1e-9 * abs(away)


def test_determinant_sign_matches_static_limit(bridge):
    k = assemble_stiffness(bridge).entries
    assert np.sign(laplacian_determinant(bridge, 1e-3)) == np.sign(np.linalg.det(k))
    assert laplacian_determinant(bridge, 1e-3) > 0.0


def test_symmetry_over_random_structures():
    from conftest import random_truss

    rng = np.random.default_rng(7)
    for _ in range(100):
        truss = random_truss(rng)
        omega = float(rng.uniform(0.1, 2.0)) / truss.tau_min
        d = assemble_laplacian(truss, omega, reduce_anchors=False).entries
        assert np.max(np.abs(d - d.T)) <= 1e-10 * np.max(np.abs(d))


def test_taylor_remainder_ratio(square, bridge):
    # the x2 trusses' midpoints are mechanism joints: D, K and M in rod-span frames
    for truss in (square, bridge, subdivide(square, 2), subdivide(bridge, 2)):
        k = assemble_stiffness(truss, reduce_anchors=False).entries
        m = assemble_mass(truss, "consistent", reduce_anchors=False).entries
        tau_min = truss.tau_min

        def remainder(omega):
            d = assemble_laplacian(truss, omega, reduce_anchors=False).entries
            return np.max(np.abs(d - k + omega**2 * m))

        for x in (0.02, 0.01):
            ratio = remainder(x / tau_min) / remainder(0.5 * x / tau_min)
            assert 8.0 <= ratio <= 32.0


def test_spectral_factor_identity(square):
    # the sweeps' coefficients Lambda*omega*cot(omega*tau) and
    # -Lambda*omega*csc(omega*tau) obey csc^2 - cot^2 = 1 away from the poles
    table = square._rod_table
    taus, lams = table.transit_time, table.line_impedance
    omegas = np.random.default_rng(3).uniform(0.05, 6.0, 200)
    diag, off = assembly._spectral_coefficients(taus, lams, omegas).reshape(2, len(taus), -1)
    scale = lams[:, None] * omegas[None, :]
    x = taus[:, None] * omegas[None, :]
    far = np.abs(x - math.pi * np.maximum(1.0, np.rint(x / math.pi))) > 1e-4
    identity = (off / scale) ** 2 - (diag / scale) ** 2
    assert identity[far] == pytest.approx(np.ones(far.sum()), rel=1e-9)
    assert far.sum() > 100


def test_forced_response_zero_force(bridge):
    out = solve_forced_response(bridge, 0.5, {})
    assert set(out) == {"2", "3", "4"}
    assert all(np.all(v == 0.0) for v in out.values())


def test_forced_response_residual(bridge):
    rng = np.random.default_rng(11)
    forces = {j: rng.normal(size=2) for j in ("2", "3", "4")}
    omega = 0.5
    disp = solve_forced_response(bridge, omega, forces)
    d = assemble_laplacian(bridge, omega)
    rhs = np.concatenate([forces[j] for j in ("2", "3", "4")])
    got = np.concatenate([disp[j] for j in ("2", "3", "4")])
    assert np.linalg.norm(d.entries @ got - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_forced_response_static_limit(bridge):
    forces = {"3": np.array([0.0, -1.0])}
    omega = 1e-6
    disp = solve_forced_response(bridge, omega, forces)
    k = assemble_stiffness(bridge)
    rhs = np.zeros(6)
    rhs[k.index_map["3"] : k.index_map["3"] + 2] = forces["3"]
    static = np.linalg.solve(k.entries, rhs)
    got = np.concatenate([disp[j] for j in ("2", "3", "4")])
    assert np.allclose(got, static, rtol=1e-5)


def test_forced_response_singular_at_natural_frequency(bridge):
    omega = math.acos((5.0 + math.sqrt(5.0)) / 10.0)  # an exact natural frequency
    with pytest.raises(SingularAtFrequencyError):
        solve_forced_response(bridge, omega, {"3": [0.0, 1.0]})


def test_forced_response_rejects_anchored_joint(bridge):
    with pytest.raises(ValueError, match="'1'"):
        solve_forced_response(bridge, 0.5, {"1": [1.0, 0.0]})


def test_subdivision_keeps_static_limit(square):
    # sanity for the mechanism-free static path of a subdivided structure
    fine = subdivide(square, 3)
    k = assemble_stiffness(fine, reduce_anchors=False)
    assert np.allclose(k.entries, k.entries.T)


# -- the scatter pattern against the block formulas ------------------------------


def _reference(truss, reduce_anchors, diag, off):
    """sum_r diag_r e e^T on blocks (a,a), (b,b) and off_r e e^T on (a,b), (b,a), rod by rod."""
    dim = truss.dimension
    kept = [j.id for j in truss.joints if not (reduce_anchors and j.anchored)]
    index = {jid: dim * i for i, jid in enumerate(kept)}
    out = np.zeros((dim * len(kept), dim * len(kept)))
    for r, rod in enumerate(truss.rods):
        e = truss.rod_properties(rod).unit_vector
        a, b = (index.get(jid) for jid in rod.joints)
        for p, q, c in ((a, a, diag[r]), (b, b, diag[r]), (a, b, off[r]), (b, a, off[r])):
            if p is not None and q is not None:
                out[p : p + dim, q : q + dim] += c * np.outer(e, e)
    return out


def _spectral(truss, omega, skip=()):
    """Per-rod D(omega) coefficients from the scalar formulas; rods in skip get zero."""
    diag, off = [], []
    for rod in truss.rods:
        p = truss.rod_properties(rod)
        x = omega * p.transit_time
        lam_omega = p.line_impedance * omega
        live = rod.id not in skip
        diag.append(lam_omega * math.cos(x) / math.sin(x) if live else 0.0)
        off.append(-lam_omega / math.sin(x) if live else 0.0)
    return diag, off


def _bordered_reference(truss, omega, orders, reduce_anchors):
    """F, the columns Lambda*omega*q_r and the corner of D bordered at orders (rod id -> n), rod by rod."""
    diag, off = _spectral(truss, omega, skip=orders)
    dim = truss.dimension
    kept = [j.id for j in truss.joints if not (reduce_anchors and j.anchored)]
    index = {jid: dim * i for i, jid in enumerate(kept)}
    border, corner = [], []
    for r, rod in enumerate(truss.rods):
        if rod.id not in orders:
            continue
        p = truss.rod_properties(rod)
        x, n = omega * p.transit_time, orders[rod.id]
        lam_omega = p.line_impedance * omega
        diag[r] = -lam_omega * math.tan((x - n * math.pi) / 2.0)
        q = np.zeros(dim * len(kept))
        for jid, sign in zip(rod.joints, (1.0, -((-1.0) ** n))):
            if jid in index:
                q[index[jid] : index[jid] + dim] = sign * lam_omega * p.unit_vector
        border.append(q)
        corner.append(-lam_omega * (-1.0) ** n * math.sin(x))
    return _reference(truss, reduce_anchors, diag, off), np.array(border).T, np.array(corner)


def _assert_close(got, expected):
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected), initial=0.0) <= 1e-13 * np.max(
        np.abs(expected), initial=0.0
    )


def _pattern_cases():
    """24 random draws, every other one with its first joint anchored, plus the builtins."""
    rng = np.random.default_rng(2024)
    trusses = []
    for k in range(24):
        t = random_truss(rng)
        if k % 2:
            joints = [dataclasses.replace(t.joints[0], anchored=True), *t.joints[1:]]
            t = Truss(t.dimension, joints, t.rods, t.materials)
        trusses.append(t)
    assert {t.dimension for t in trusses} == {2, 3}
    return trusses + [builtin_structure("square"), builtin_structure("bridge")]


def _derived_record(truss, rod):
    """The rod's RodProperties from its joints and material, one rod at a time."""
    mat = truss.materials[rod.material]
    a, b = (np.array(truss.joint(jid).position, dtype=float) for jid in rod.joints)
    length = float(np.linalg.norm(b - a))
    c = math.sqrt(mat.youngs_modulus / mat.density)
    gamma = math.sqrt(mat.youngs_modulus * mat.density)
    lam = rod.area * gamma
    return RodProperties(length, c, gamma, lam, length / c, lam / (length / c), (b - a) / length)


def test_rod_table_holds_every_rod_property_read_only():
    # the truss's one copy of its rod data: every record is a row of its table,
    # bit for bit, and equals the rod's properties derived one rod at a time;
    # the last case has two materials, keyed by other names than their own
    joints = [Joint("a", (0.0, 0.0, 0.0)), Joint("b", (0.3, 1.1, 0.0)), Joint("c", (0.7, 0.2, 0.9))]
    rods = [Rod("ab", ("a", "b"), 2, "s"), Rod("bc", ("b", "c"), 1e-4, "t"), Rod("ca", ("c", "a"), 0.5, "s")]
    mixed = Truss(3, joints, rods, {"s": Material("steel", 200e9, 7850.0), "t": Material("al", 70e9, 2700.0)})
    for truss in [*_pattern_cases(), mixed]:
        table = truss._rod_table
        for field in dataclasses.fields(RodProperties):
            column = getattr(table, field.name)
            assert not column.flags.writeable
            assert len(column) == len(truss.rods)
        for k, rod in enumerate(truss.rods):
            props = truss.rod_properties(rod.id if k % 2 else rod)  # by id or by Rod
            for field in dataclasses.fields(RodProperties):
                value, row = getattr(props, field.name), getattr(table, field.name)[k]
                assert np.asarray(value).tobytes() == row.tobytes()
                expected = getattr(_derived_record(truss, rod), field.name)
                assert np.asarray(value).tobytes() == np.asarray(expected, dtype=float).tobytes()
            scalars = [getattr(props, f.name) for f in dataclasses.fields(RodProperties)[:-1]]
            assert all(type(value) is float for value in scalars)
            assert np.shares_memory(props.unit_vector, table.unit_vector)
            assert not props.unit_vector.flags.writeable


def _static_references(truss, reduce_anchors):
    """K, consistent M and lumped M (0.5 m I at both ends of every rod) in joint
    coordinates, rod by rod."""
    props = [truss.rod_properties(rod) for rod in truss.rods]
    k = [p.line_impedance / p.transit_time for p in props]
    masses = [truss.materials[rod.material].density * rod.area * p.length for rod, p in zip(truss.rods, props)]
    dim = truss.dimension
    kept = [j.id for j in truss.joints if not (reduce_anchors and j.anchored)]
    index = {jid: dim * i for i, jid in enumerate(kept)}
    lumped = np.zeros((dim * len(kept), dim * len(kept)))
    for rod, m in zip(truss.rods, masses):
        for jid in rod.joints:
            if jid in index:
                lumped[index[jid] : index[jid] + dim, index[jid] : index[jid] + dim] += 0.5 * m * np.eye(dim)
    return {
        "stiffness": _reference(truss, reduce_anchors, k, [-x for x in k]),
        "consistent": _reference(truss, reduce_anchors, [m / 3.0 for m in masses], [m / 6.0 for m in masses]),
        "lumped": lumped,
    }


def _fem_reference(truss, kind, reduce_anchors=True):
    """K and M of the kind from the block formulas, lifted into the rod-span frames: lift^T X lift."""
    references = _static_references(truss, reduce_anchors)
    lift = assembly._pattern(truss, reduce_anchors).lift.toarray()
    return lift.T @ references["stiffness"] @ lift, lift.T @ references[kind] @ lift


def test_truss_without_anchors_builds_one_pattern(square, bridge):
    # reducing the anchors of a truss that has none leaves every entry as it is
    assert assembly._pattern(square, True) is assembly._pattern(square, False)
    fine = subdivide(square, 2)  # with mechanism joints
    assert assembly._pattern(fine, True) is assembly._pattern(fine, False)
    reduced, full = assembly._pattern(bridge, True), assembly._pattern(bridge, False)
    assert reduced is not full and reduced.size < full.size


@pytest.mark.parametrize("reduce_anchors", [True, False])
def test_pattern_matrices_match_block_formulas(reduce_anchors):
    # the builders' and the sweeps' matrices are the block formulas in the
    # rod-span frame of each joint, lift^T X lift, on every truss: the draws'
    # mechanism joints, whose frames are narrower than dim, included
    narrow = 0
    for truss in _pattern_cases():
        omegas = np.array([0.31, 0.77, 1.9]) / truss.tau_min
        pattern = assembly._pattern(truss, reduce_anchors)
        lift = pattern.lift.toarray()
        _assert_close(lift.T @ lift, np.eye(pattern.size))  # orthonormal frames
        narrow += sum(f.shape[1] < truss.dimension for f in pattern.frames.values())
        got = [
            *assembly.laplacian_evaluator(truss, pattern)(omegas),
            *(assemble_laplacian(truss, w, reduce_anchors).entries for w in omegas),
            assemble_stiffness(truss, reduce_anchors).entries,
            assemble_mass(truss, "consistent", reduce_anchors).entries,
            assemble_mass(truss, "lumped", reduce_anchors).entries,
        ]
        dynamic = [_reference(truss, reduce_anchors, *_spectral(truss, w)) for w in omegas]
        references = [*dynamic, *dynamic, *_static_references(truss, reduce_anchors).values()]
        for matrix, reference in zip(got, references, strict=True):
            _assert_close(matrix, lift.T @ reference @ lift)
    assert narrow >= 10


def test_bordered_matrix_matches_block_formulas():
    checked = 0
    for truss in _pattern_cases():
        poles = pole_set(truss, FrequencyWindow(0.05 / truss.tau_min, 7.0 / truss.tau_min))
        if not poles:
            continue
        pole = poles[0]
        orders = dict(zip(pole.rods, pole.orders))
        near = np.array([[rod.id in orders for rod in truss.rods]])
        n = np.array([[orders.get(rod.id, 0) for rod in truss.rods]], dtype=float)
        lift = assembly._pattern(truss, False).lift.toarray()
        free = assembly._pattern(truss, True)
        full, build = spectrum._border_builder(truss, False)
        for omega in pole.omega * np.array([1.0, 1.0 - 1e-3, 1.0 + 1e-3]):
            finite, border, corner = _bordered_reference(truss, omega, orders, False)
            bordered = build(np.array([omega]), near, n)[0][0]
            assert full.size == lift.shape[1]
            assert bordered.shape == (full.size + len(corner),) * 2
            _assert_close(bordered[: full.size, : full.size], lift.T @ finite @ lift)
            _assert_close(bordered[: full.size, full.size :], lift.T @ border)
            assert np.array_equal(bordered[full.size :, : full.size], bordered[: full.size, full.size :].T)
            got_corner = bordered[full.size :, full.size :]
            if omega == pole.omega:  # sin x is round-off: the corner vanishes
                assert np.max(np.abs(got_corner)) <= 1e-13 * np.max(np.abs(border))
                continue
            _assert_close(got_corner, np.diag(corner))

            # Schur identity: det B = det D * prod(corner), D the swept matrix
            kept = np.concatenate([free.embedding, np.arange(full.size, len(bordered))])
            swept = assembly.laplacian_evaluator(truss, free)(np.array([omega]))[0]
            sign_b, log_b = np.linalg.slogdet(bordered[np.ix_(kept, kept)])
            sign_d, log_d = np.linalg.slogdet(swept)
            assert sign_b == sign_d * np.prod(np.sign(corner))
            assert abs(log_b - log_d - np.sum(np.log(np.abs(corner)))) <= 1e-9
        checked += 1
    assert checked >= 20


# -- memory-bounded batches --------------------------------------------------------


def _spy(monkeypatch, owner, name):
    """Byte size of every stack passed to owner.<name>."""
    sizes = []
    real = getattr(owner, name)

    def spy(a):
        sizes.append(np.asarray(a).nbytes)
        return real(a)

    monkeypatch.setattr(owner, name, spy)
    return sizes


@pytest.fixture
def slogdet_sizes(monkeypatch):
    return _spy(monkeypatch, np.linalg, "slogdet")


@pytest.fixture
def inertia_sizes(monkeypatch):
    return _spy(monkeypatch, _roots, "_ldl_inertia")


@pytest.fixture
def eigvals_sizes(monkeypatch):
    return _spy(monkeypatch, np.linalg, "eigvals")


def test_sweep_determinants_are_chunked_within_budget(
    slogdet_sizes, inertia_sizes, eigvals_sizes, monkeypatch
):
    lattice = braced_lattice(5)
    assert assembly._span_frames(lattice)[1] == ()  # no mechanism joints
    network = spectrum.laplacian_evaluator(lattice, assembly._pattern(lattice, True))
    k, m = assemble_stiffness(lattice).entries, assemble_mass(lattice).entries

    def fem(w):
        return k[None] - w[:, None, None] ** 2 * m[None]

    def negative(build, xs):
        return np.sum(np.linalg.eigvalsh(build(xs)) < 0.0, axis=1)

    grid = np.linspace(0.06, 2.0, 4001)  # below the first pole, pi/sqrt(2)

    # (func, count), the stack builder, the count's kernel, the
    # frequencies (four chunks each), the reference count given the count at
    # omegas[0], the budget. D's and K - w^2 M's counts are their negative
    # eigenvalues; the matching count has an arbitrary offset, and it rises
    # from omegas[0] = grid[0] by the natural frequencies D's count passes.
    cases = [
        (spectrum._det_eval(lattice), network, inertia_sizes, grid,
         lambda xs, first: negative(network, xs), _roots.BATCH_BYTES),
        (_roots.determinant(fem, k.nbytes), fem, inertia_sizes, grid,
         lambda xs, first: negative(fem, xs), _roots.BATCH_BYTES),
    ]
    # the matching count (eigvals of a complex 112 x 112 matrix) costs about
    # 50 slogdets, so its four chunks are of a budget of ten matrices
    monkeypatch.setattr(_roots, "BATCH_BYTES", 10 * 16 * 112 * 112)
    matching = matching_evaluator(lattice)
    cases.append((scattering._matching_eval(lattice), matching, eigvals_sizes,
                  np.linspace(0.06, 2.0, 35),
                  lambda xs, first: first + negative(network, xs) - negative(network, grid[:1]),
                  _roots.BATCH_BYTES))
    for (func, count), build, count_sizes, omegas, reference, budget in cases:
        assert omegas.size * build(omegas[:1]).nbytes > 3 * budget
        slogdet_sizes.clear()
        sign, logabs = func(omegas)
        assert len(slogdet_sizes) == 4
        assert max(slogdet_sizes) <= budget
        points = [func(np.array([w])) for w in omegas]
        assert np.array_equal(sign, [s[0] for s, _ in points])
        assert np.array_equal(logabs, [x[0] for _, x in points])
        count_sizes.clear()
        counts = count(omegas)[0]
        assert len(count_sizes) == 4
        assert max(count_sizes) <= budget
        sample = omegas[::20]
        assert np.array_equal(counts[::20], [count(np.array([w]))[0][0] for w in sample])
        assert np.array_equal(counts[::20], reference(sample, counts[0]))

    # the side-8 lattice's D is narrow: its polish factors band stacks
    # (band_slogdet), four chunks of them within the budget, and no dense one
    lattice = braced_lattice(8)
    band_sizes = _spy(monkeypatch, _roots, "band_slogdet")
    func, _ = spectrum._det_eval(lattice)
    omegas = np.linspace(0.06, 2.0, 150)  # below the first pole, pi/sqrt(2)
    width = assembly._pattern(lattice, True).band.width
    assert omegas.size * 8 * 112 * width > 3 * _roots.BATCH_BYTES
    slogdet_sizes.clear()
    sign, logabs = func(omegas)
    assert slogdet_sizes == [] and len(band_sizes) == 4
    assert max(band_sizes) <= _roots.BATCH_BYTES
    points = [func(np.array([w])) for w in omegas]
    assert np.array_equal(sign, [s[0] for s, _ in points])
    assert np.array_equal(logabs, [x[0] for _, x in points])


def test_fem_and_matching_determinants_stay_within_budget(
    slogdet_sizes, inertia_sizes, eigvals_sizes
):
    lattice = braced_lattice(5)
    window = FrequencyWindow(0.06, 2.0)
    roots = fem_frequencies(lattice, window)
    matching = reverberation_frequencies(lattice, window)
    assert inertia_sizes[0] == 2 * 8 * 40 * 40  # the count at the window's two ends
    assert eigvals_sizes[0] == 2 * 16 * 112 * 112
    assert max(slogdet_sizes + inertia_sizes + eigvals_sizes) <= _roots.BATCH_BYTES
    assert matching == pytest.approx(find_natural_frequencies(lattice, window).omegas, rel=1e-8)
    # under a budget of three matrices the counts and the bisection run in
    # full chunks, and the roots stay the same
    for sweep, found, sizes, matrix_bytes in [
        (fem_frequencies, roots, inertia_sizes, 8 * 40 * 40),
        (reverberation_frequencies, matching, eigvals_sizes, 16 * 112 * 112),
    ]:
        budget, _roots.BATCH_BYTES = _roots.BATCH_BYTES, 3 * matrix_bytes
        slogdet_sizes.clear()
        sizes.clear()
        try:
            assert sweep(lattice, window) == found
            assert max(slogdet_sizes) == max(sizes) == _roots.BATCH_BYTES
        finally:
            _roots.BATCH_BYTES = budget


def test_counting_sweep_evaluates_few_points_per_root(monkeypatch):
    # the grid scan this sweep replaced built 153 D matrices per root here
    lattice = braced_lattice(5)
    points = []
    evaluator = spectrum.laplacian_evaluator

    def counted(truss, pattern):
        build = evaluator(truss, pattern)

        def traced(omegas):
            points.append(len(omegas))
            return build(omegas)

        return traced

    monkeypatch.setattr(spectrum, "laplacian_evaluator", counted)
    window = FrequencyWindow(0.05, 1.2 * math.pi)  # tau_min = 1
    sweep = find_natural_frequencies(lattice, window)
    roots = [m for m in sweep if m.kind == "regular"]
    assert len(roots) == 63
    assert sum(points) <= 153 / 2 * len(roots)


# -- per-truss memo ------------------------------------------------------------------


def _mode_arrays(modes):
    return [
        (m.omega, sorted((j, v.tolist()) for j, v in m.displacements.items()),
         sorted((j, v.tolist()) for j, v in m.anchor_forces.items()))
        for m in modes
    ]


def test_memo_keeps_alternating_structures_apart():
    window = FrequencyWindow(0.05, 4.0)
    kept = {name: builtin_structure(name) for name in ("square", "bridge")}
    for _ in range(3):
        for name, truss in kept.items():
            fresh = builtin_structure(name)
            sweep = find_natural_frequencies(truss, window)
            assert sweep.omegas == find_natural_frequencies(fresh, window).omegas
            for omega in (m.omega for m in sweep if m.kind == "regular"):
                assert _mode_arrays(extract_modes(truss, omega)) == _mode_arrays(
                    extract_modes(fresh, omega)
                )
    for truss in kept.values():
        assert assembly._pattern(truss, True) is assembly._pattern(truss, True)


@pytest.mark.parametrize("reduce_anchors", [True, False])
def test_builders_are_the_block_formulas_without_mechanism_joints(reduce_anchors):
    # every frame is the identity there: the builders give the joint-coordinate
    # matrices, bit for bit
    cases = [t for t in _pattern_cases() if not assembly._span_frames(t)[1]]
    assert len(cases) >= 15
    for truss in cases:
        omega = 0.77 / truss.tau_min
        references = _static_references(truss, reduce_anchors)
        for got, expected in [
            (assemble_laplacian(truss, omega, reduce_anchors), _reference(truss, reduce_anchors, *_spectral(truss, omega))),
            (assemble_stiffness(truss, reduce_anchors), references["stiffness"]),
            (assemble_mass(truss, "consistent", reduce_anchors), references["consistent"]),
            (assemble_mass(truss, "lumped", reduce_anchors), references["lumped"]),
        ]:
            assert np.array_equal(got.entries, expected)
    fine = subdivide(builtin_structure("square"), 2)  # midpoints span one direction
    assert assemble_stiffness(fine, reduce_anchors).entries.shape[0] < 2 * len(fine.joints)


def test_memo_does_not_keep_the_truss_alive():
    truss = builtin_structure("bridge")
    sweep = find_natural_frequencies(truss, FrequencyWindow(0.05, 4.0))
    extract_modes(truss, sweep.modes[0].omega)
    ref = weakref.ref(truss)
    del truss, sweep
    gc.collect()
    assert ref() is None


def test_memo_hands_every_thread_the_same_pattern():
    truss = braced_lattice(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(assembly._pattern, truss, True) for _ in range(64)]
            patterns = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(p is patterns[0] for p in patterns)
