import math

import numpy as np
import pytest
from scipy import integrate, linalg

from spectruss import (
    FrequencyWindow,
    Joint,
    Material,
    Rod,
    Truss,
    assemble_laplacian,
    assemble_mass,
    assemble_stiffness,
    builtin_structure,
    fem_determinant,
    fem_frequencies,
    subdivide,
)
from spectruss.assembly import _pattern


def test_shape_function_integrals_match_blocks():
    # oracle: quadrature of the linear shape function integrals
    length, rho, area = 1.7, 2.3, 0.4
    diag_integral, _ = integrate.quad(lambda z: rho * area * (1.0 - z / length) ** 2, 0.0, length)
    cross_integral, _ = integrate.quad(
        lambda z: rho * area * (1.0 - z / length) * (z / length), 0.0, length
    )
    assert diag_integral == pytest.approx(rho * area * length / 3.0, rel=1e-12)
    assert cross_integral == pytest.approx(rho * area * length / 6.0, rel=1e-12)

    mat = Material("m", 1.0, rho)
    truss = Truss(
        2,
        [Joint("a", (0.0, 0.0)), Joint("b", (length, 0.0))],
        [Rod("ab", ("a", "b"), area, "m")],
        {"m": mat},
    )
    m = assemble_mass(truss, "consistent", reduce_anchors=False)
    # both ends span the rod's direction only; lifted back to joint coordinates
    lift = _pattern(truss, False).lift.toarray()
    joint = lift @ m.entries @ lift.T
    unit = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(joint[:2, :2], diag_integral * unit, rtol=1e-12)
    # global-frame coupling block: the two end directions are opposite, so the
    # negated integral comes back positive
    assert np.allclose(joint[:2, 2:], cross_integral * unit, rtol=1e-12)


def test_single_rod_lumped_blocks():
    mat = Material("m", 1.0, 1.0)
    truss = Truss(
        2,
        [Joint("a", (0.0, 0.0)), Joint("b", (1.0, 0.0))],
        [Rod("ab", ("a", "b"), 1.0, "m")],
        {"m": mat},
    )
    m = assemble_mass(truss, "lumped", reduce_anchors=False)
    # each end spans the rod's direction only: half the rod's mass on its one
    # coordinate, none across
    assert m.index_map == {"a": 0, "b": 1}
    assert np.array_equal(m.entries, 0.5 * np.eye(2))


def test_lumped_trace_identity(square, bridge):
    # half of each rod's mass on every coordinate of its two ends; a
    # subdivision joint spans its rod's direction only, so the transverse
    # half-masses at a rod's n - 1 interior joints, (n - 1)/n of its mass, drop out
    for truss, coordinates in ((square, 2.0), (bridge, 2.0), (subdivide(square, 4), 2.0 - 0.75)):
        m = assemble_mass(truss, "lumped", reduce_anchors=False)
        expected = coordinates * truss.total_rod_mass()
        assert np.trace(m.entries) == pytest.approx(expected, rel=1e-12)


def test_consistent_trace_identity(square, bridge):
    # the axial-only coupling gives integral N^2 at both ends: (2/3) m per rod
    for truss in (square, bridge, subdivide(square, 4)):
        m = assemble_mass(truss, "consistent", reduce_anchors=False)
        expected = (2.0 / 3.0) * truss.total_rod_mass()
        assert np.trace(m.entries) == pytest.approx(expected, rel=1e-12)


def test_mass_matrices_symmetric_psd(square, bridge):
    for truss in (square, bridge):
        for kind in ("consistent", "lumped"):
            m = assemble_mass(truss, kind, reduce_anchors=False).entries
            assert np.allclose(m, m.T)
            assert np.linalg.eigvalsh(m).min() >= -1e-12 * np.max(np.abs(m))


def test_fem_determinant_static_limit(bridge):
    k = assemble_stiffness(bridge).entries
    assert fem_determinant(bridge, 0.0, "consistent") == pytest.approx(
        np.linalg.det(k), rel=1e-12
    )
    assert fem_determinant(bridge, 0.0, "consistent") > 0.0


def test_fem_determinant_in_rod_span_frames(square, bridge):
    # mechanism joints leave joint coordinates singular at every omega, but not the sweep's frames
    from test_assembly import _fem_reference

    assert fem_determinant(square, 0.5) == -0.024319285390297412
    assert fem_determinant(subdivide(square, 2), 0.5, reduce_anchors=False) != 0.0
    fine = subdivide(bridge, 2)
    for kind in ("consistent", "lumped"):
        k, m = _fem_reference(fine, kind)
        det = fem_determinant(fine, 0.5, kind)
        assert det != 0.0 and det == pytest.approx(np.linalg.det(k - 0.25 * m), rel=1e-12)


def test_mass_kinds_differ(square):
    d1 = fem_determinant(square, 1.0, "consistent", reduce_anchors=False)
    d2 = fem_determinant(square, 1.0, "lumped", reduce_anchors=False)
    assert d1 != d2


def test_consistent_mass_from_second_derivative(square, bridge):
    # M = -(1/2) d^2 D / dw^2 at w -> 0; central difference with one Richardson step,
    # in rod-span frames at the x2 trusses' midpoints
    for truss in (square, bridge, subdivide(square, 2), subdivide(bridge, 2)):
        h = 1e-3 / truss.tau_min

        def second(hh):
            k = assemble_stiffness(truss, reduce_anchors=False).entries
            d = assemble_laplacian(truss, hh, reduce_anchors=False).entries
            return 2.0 * (d - k) / hh**2  # D is even in omega

        estimate = (4.0 * second(h / 2.0) - second(h)) / 3.0
        m = assemble_mass(truss, "consistent", reduce_anchors=False).entries
        got = -0.5 * estimate
        mask = np.abs(m) > 1e-12 * np.max(np.abs(m))
        assert np.max(np.abs(got[mask] - m[mask]) / np.abs(m[mask])) <= 1e-6
        assert np.max(np.abs(got[~mask])) <= 1e-6 * np.max(np.abs(m))


def test_bridge_lumped_has_six_frequencies(bridge):
    # 6 free DOF and a positive-definite lumped mass: exactly six roots
    k = assemble_stiffness(bridge).entries
    m = assemble_mass(bridge, "lumped").entries
    eigs = np.sqrt(linalg.eigh(k, m, eigvals_only=True))
    window = FrequencyWindow(0.05, float(eigs.max()) * 1.1)
    found = fem_frequencies(bridge, window, kind="lumped", divisions=1)
    assert len(found) == 6
    assert found == pytest.approx(sorted(eigs), abs=1e-8)


def test_fem_frequencies_match_generalized_eigensolve(square):
    # cross-check the determinant sweep against a QZ generalized eigensolve
    from test_assembly import _fem_reference

    divisions = 2
    kp, mp = _fem_reference(subdivide(square, divisions), "consistent")
    vals = linalg.eig(kp, mp, right=False)
    vals = np.real(vals[np.isfinite(vals) & (np.abs(vals.imag) <= 1e-9 * np.abs(vals))])
    vals = np.sqrt(np.sort(vals[vals > 1e-8]))
    window = FrequencyWindow(0.05, 4.0)
    expected = sorted(set(round(v, 9) for v in vals if 0.05 < v < 4.0))
    found = fem_frequencies(square, window, kind="consistent", divisions=divisions)
    assert found == pytest.approx(expected, abs=1e-7)


def test_fem_sweep_finds_even_multiplicity_root(square):
    # the undivided square has a double generalized eigenvalue at 2*sqrt(3)
    window = FrequencyWindow(0.05, 4.0)
    found = fem_frequencies(square, window, kind="consistent", divisions=1)
    assert any(abs(w - 2.0 * math.sqrt(3.0)) <= 1e-8 for w in found)


def test_fem_lowest_exceeds_network_value_at_division_one(square):
    # regression: the consistent-mass lowest frequency approaches from above
    window = FrequencyWindow(0.05, 2.0)
    fem_low = fem_frequencies(square, window, kind="consistent", divisions=1)[0]
    assert fem_low > 0.9201511845297538


def test_invalid_kind_and_divisions(square):
    with pytest.raises(ValueError):
        assemble_mass(square, "other")
    with pytest.raises(ValueError):
        fem_frequencies(square, FrequencyWindow(0.1, 1.0), divisions=0)


def _fem_cases():
    """square, bridge and draws 8 and 38 of the test generator, which hold close root pairs."""
    from conftest import random_truss

    rng = np.random.default_rng(0)
    draws = [random_truss(rng) for _ in range(39)]
    return [builtin_structure("square"), builtin_structure("bridge"), draws[8], draws[38]]


@pytest.mark.parametrize("kind", ["consistent", "lumped"])
def test_fem_roots_are_the_generalized_eigenvalues(kind):
    # oracle: the symmetric-definite eigensolve of the block formulas' K and M
    # in rod-span frames
    from test_assembly import _fem_reference

    divisions = 4
    for truss in _fem_cases():
        window = FrequencyWindow(0.05 / truss.tau_min, 1.2 * math.pi / truss.tau_min)
        k, m = _fem_reference(subdivide(truss, divisions), kind)
        vals = linalg.eigh(k, m, eigvals_only=True)
        omegas = np.sqrt(vals[(vals > window.omega_min**2) & (vals < window.omega_max**2)])
        expected = [w for i, w in enumerate(omegas) if i == 0 or w - omegas[i - 1] > 1e-9 * w]
        found = fem_frequencies(truss, window, kind, divisions)
        assert found == pytest.approx(expected, rel=1e-9)
