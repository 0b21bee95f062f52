import math

import numpy as np
import pytest

from spectruss import laplacian_determinant
from spectruss.validation import (
    BRIDGE_POLYNOMIAL_ROOTS,
    POLE_GUARD,
    PoleProximityError,
    SquareClosedForm,
    bridge_polynomial,
    bridge_reference_modes,
    closed_form_square_condition,
    closed_form_square_det,
    verify_bridge,
    verify_generic,
    verify_square,
    _square_with_lambdas,
)


def test_bridge_polynomial_roots():
    for c in BRIDGE_POLYNOMIAL_ROOTS:
        assert abs(bridge_polynomial(c)) <= 1e-12
    assert all(-1.0 <= c <= 1.0 for c in BRIDGE_POLYNOMIAL_ROOTS)


def test_bridge_polynomial_at_one():
    # direct arithmetic on the printed factors: (27/64) * 1 * 1 * 4 * 2
    assert bridge_polynomial(1.0) == pytest.approx(27.0 / 8.0, rel=1e-15)


def test_square_closed_form_rejects_a_missing_rod():
    unit = SquareClosedForm.unit()
    lambdas = {r: v for r, v in unit.lambdas.items() if r != "23"}
    with pytest.raises(ValueError, match=r"missing square rods \['23'\]"):
        SquareClosedForm(lambdas=lambdas, taus=unit.taus)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_square_closed_form_rejects_a_non_positive_value(value):
    unit = SquareClosedForm.unit()
    with pytest.raises(ValueError, match="must be positive"):
        SquareClosedForm(lambdas=unit.lambdas, taus=dict(unit.taus, **{"13": value}))


def test_square_condition_refuses_omega_within_the_pole_guard():
    # the side rods resonate at pi (n = 1), the diagonal at pi/sqrt2 and 2pi/sqrt2
    unit = SquareClosedForm.unit()
    for omega, rod, order in ((math.pi, "12", 1), (math.pi / math.sqrt(2.0), "23", 1),
                              (2.0 * math.pi / math.sqrt(2.0), "23", 2)):
        for shift in (0.0, 0.5 * POLE_GUARD, -0.5 * POLE_GUARD):
            with pytest.raises(PoleProximityError) as err:
                closed_form_square_condition(unit, omega + shift / unit.taus[rod])
            assert (err.value.rod_id, err.value.order) == (rod, order)
        closed_form_square_condition(unit, omega + 2.0 * POLE_GUARD)


def test_condition_diverges_negative_near_zero():
    cfg = SquareClosedForm.unit()
    assert closed_form_square_condition(cfg, 1e-3) < -1e5


def test_condition_swap_symmetry():
    lambdas = {"12": 1.3, "24": 0.7, "34": 1.9, "13": 0.4, "23": 1.1}
    taus = dict({r: 1.0 for r in lambdas}, **{"23": math.sqrt(2.0)})
    swapped_l = dict(lambdas, **{"12": lambdas["34"], "24": lambdas["13"],
                                 "34": lambdas["12"], "13": lambdas["24"]})
    a = SquareClosedForm(lambdas=lambdas, taus=taus)
    b = SquareClosedForm(lambdas=swapped_l, taus=taus)
    for w in (0.3, 0.77, 1.21):
        assert closed_form_square_condition(a, w) == pytest.approx(
            closed_form_square_condition(b, w), rel=1e-12
        )


def test_det_zero_iff_condition_zero():
    cfg = SquareClosedForm.unit()
    for w in (0.5, 0.9201511845297538, 1.5):
        det = closed_form_square_det(cfg, w)
        cond = closed_form_square_condition(cfg, w)
        assert det == pytest.approx(w**8 * cond, rel=1e-12)


def test_det_scaling_with_impedance():
    # all five impedances scaled by s: product factor s^10, bracket factor s^-2
    cfg = SquareClosedForm.unit()
    scaled = SquareClosedForm(
        lambdas={r: 2.0 for r in cfg.lambdas}, taus=dict(cfg.taus)
    )
    for w in (0.4, 1.1, 2.7):
        ratio = closed_form_square_det(scaled, w) / closed_form_square_det(cfg, w)
        assert ratio == pytest.approx(2.0**8, rel=1e-12)


def test_det_equivalence_random_impedances(square):
    rng = np.random.default_rng(99)
    for _ in range(3):
        lambdas = {r: float(rng.uniform(0.5, 2.0)) for r in SquareClosedForm.unit().lambdas}
        cfg = SquareClosedForm(lambdas=lambdas, taus=SquareClosedForm.unit().taus)
        truss = _square_with_lambdas(square, lambdas)
        for w in np.linspace(0.3, 2.9, 20):
            if any(
                abs(w * cfg.taus[r] - math.pi * round(w * cfg.taus[r] / math.pi)) < 1e-2
                for r in cfg.taus
            ):
                continue
            got = laplacian_determinant(truss, float(w))
            assert got == pytest.approx(closed_form_square_det(cfg, float(w)), rel=1e-10)


def test_reference_table_rows():
    rows = bridge_reference_modes()
    assert [round(r.cos_omega_tau, 12) for r in rows] == [
        round(c, 12)
        for c in (
            (1 + math.sqrt(13)) / 6,
            (5 + math.sqrt(5)) / 10,
            -1 / 3,
            (1 - math.sqrt(13)) / 6,
            (5 - math.sqrt(5)) / 10,
            -1.0,
        )
    ]
    # the printed prefactors normalize u2 (and by mirror symmetry u4)
    for row in rows:
        assert np.linalg.norm(row.u2) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(row.u4) == pytest.approx(1.0, abs=1e-12)


def test_reference_table_force_free_row():
    row = bridge_reference_modes()[-1]
    assert row.force_free
    n = 1.0 / (2.0 * math.sqrt(3.0))
    assert row.u2 == pytest.approx((-3.0 * n, math.sqrt(3.0) * n))
    assert row.u3 == pytest.approx((0.0, -2.0 * math.sqrt(3.0) * n))
    assert row.p1 == (0.0, 0.0)
    assert row.p5 == (0.0, 0.0)


def test_reference_table_minus_third_row():
    row = next(r for r in bridge_reference_modes() if abs(r.cos_omega_tau + 1.0 / 3.0) < 1e-12)
    n = 1.0 / (2.0 * math.sqrt(7.0))
    assert row.u3 == pytest.approx((-6.0 * n, 0.0))


def test_reference_rows_are_null_vectors(bridge):
    # every table row annihilates the reduced network matrix at its frequency
    from spectruss.assembly import assemble_laplacian

    for row in bridge_reference_modes():
        if row.force_free:
            continue
        omega = math.acos(row.cos_omega_tau)
        d = assemble_laplacian(bridge, omega)
        vec = row.displacement_vector()
        assert np.linalg.norm(d.entries @ vec) <= 1e-9 * np.max(np.abs(d.entries))


def test_verify_runners_pass(square, bridge):
    assert all(c.passed for c in verify_square(square))
    assert all(c.passed for c in verify_bridge(bridge))
    assert all(c.passed for c in verify_generic(square))
    assert all(c.passed for c in verify_generic(bridge))


def test_verify_generic_checks_the_involution_at_every_joint(bridge):
    # anchors (T = -I) and the mechanism joints of the subdivided rods included
    from spectruss import subdivide, transmission_matrix

    fine = subdivide(bridge, 2)
    worst = 0.0
    for joint in fine.joints:
        t = transmission_matrix(fine, joint.id).entries
        worst = max(worst, float(np.max(np.abs(t @ t - np.eye(len(t))))))
    checks = {c.name: c for c in verify_generic(fine)}
    involution = checks["transmission involution max |T^2 - I|"]
    assert involution.actual == worst and involution.passed
