"""Closed-form cross-checks for the built-in structures.

These oracles are kept out of every production code path: the sweep never
calls them, they exist so tests and the `verify` command can compare the
assembled matrices against independently derived closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Distance (in omega*tau radians) from a rod resonance n*pi, n >= 1, within which
# the closed forms below, the package's last unbordered cot/csc, refuse omega.
POLE_GUARD = 1e-5

SQUARE_RODS = ("12", "24", "34", "13", "23")


class PoleProximityError(Exception):
    """omega*tau is within POLE_GUARD of a rod resonance n*pi, where the closed forms diverge."""

    def __init__(self, rod_id, order, omega):
        self.rod_id, self.order, self.omega = rod_id, order, omega
        super().__init__(f"omega={omega!r} puts rod '{rod_id}' within {POLE_GUARD} of omega*tau = {order}*pi")


@dataclass(frozen=True)
class SquareClosedForm:
    """Line impedances and transit times of the five square rods."""

    lambdas: dict  # rod id -> Lambda
    taus: dict  # rod id -> tau (tau_23 = sqrt(2) * tau_side for the unit square)

    def __post_init__(self):
        for table in (self.lambdas, self.taus):
            missing = [r for r in SQUARE_RODS if r not in table]
            if missing:
                raise ValueError(f"missing square rods {missing}")
            if any(not (table[r] > 0.0) for r in SQUARE_RODS):
                raise ValueError("all closed-form parameters must be positive")

    @classmethod
    def unit(cls):
        side = {r: 1.0 for r in SQUARE_RODS}
        taus = dict(side, **{"23": math.sqrt(2.0)})
        return cls(lambdas=side, taus=taus)

    @classmethod
    def from_truss(cls, truss):
        lambdas, taus = {}, {}
        for rid in SQUARE_RODS:
            props = truss.rod_properties(rid)
            lambdas[rid] = props.line_impedance
            taus[rid] = props.transit_time
        return cls(lambdas=lambdas, taus=taus)


def _check_regular(cfg: SquareClosedForm, omega: float):
    for rid in SQUARE_RODS:
        x = omega * cfg.taus[rid]
        n = round(x / math.pi)
        if n >= 1 and abs(x - n * math.pi) < POLE_GUARD:
            raise PoleProximityError(rid, n, omega)


def closed_form_square_condition(cfg: SquareClosedForm, omega: float) -> float:
    """Scalar dispersion condition of the cross-braced square; zero at natural
    frequencies. Uses eta_e = cot(omega tau_e) / Lambda_e."""
    _check_regular(cfg, omega)
    eta = {
        rid: math.cos(omega * cfg.taus[rid])
        / math.sin(omega * cfg.taus[rid])
        / cfg.lambdas[rid]
        for rid in SQUARE_RODS
    }
    left = eta["12"] + eta["24"]
    right = eta["34"] + eta["13"]
    return (
        cfg.lambdas["23"] ** -2
        - 0.5 * eta["23"] * (left + right)
        - 0.25 * left * right
    )


def closed_form_square_det(cfg: SquareClosedForm, omega: float) -> float:
    """det(D) of the unreduced square as the product closed form."""
    lam_product = math.prod(cfg.lambdas[r] for r in SQUARE_RODS)
    return omega**8 * lam_product**2 * closed_form_square_condition(cfg, omega)


def bridge_polynomial(c):
    """Sixth-degree frequency condition of the anchored bridge in c = cos(omega tau)."""
    c = np.asarray(c, dtype=float)
    value = (
        (27.0 / 64.0)
        * (5.0 * c**2 - 5.0 * c + 1.0)
        * (3.0 * c**2 - c - 1.0)
        * (3.0 * c + 1.0)
        * (c + 1.0)
    )
    return float(value) if value.ndim == 0 else value


BRIDGE_POLYNOMIAL_ROOTS = (
    (1.0 + math.sqrt(13.0)) / 6.0,
    (5.0 + math.sqrt(5.0)) / 10.0,
    (5.0 - math.sqrt(5.0)) / 10.0,
    -1.0 / 3.0,
    (1.0 - math.sqrt(13.0)) / 6.0,
    -1.0,
)


@dataclass(frozen=True)
class BridgeReferenceMode:
    cos_omega_tau: float
    u2: tuple
    u3: tuple
    u4: tuple
    p1: tuple  # anchor force column, same normalization scale as the u's;
    p5: tuple  # reported up to the positive factor Lambda*omega*csc(omega*tau)
    force_free: bool  # the cos = -1 column: resonant, anchor forces vanish

    def displacement_vector(self) -> np.ndarray:
        return np.array([*self.u2, *self.u3, *self.u4])


def bridge_reference_modes():
    """Exact reference modes of the anchored bridge, one per polynomial root.

    Values are kept as exact radical expressions and evaluated here. The
    x-component of u3 in the cos = (5 - sqrt(5))/10 column is 3/10 + sqrt(5)/5;
    any other value breaks null-space membership and the conjugate-pair
    symmetry with the (5 + sqrt(5))/10 column.
    """
    s3, s5, s13 = math.sqrt(3.0), math.sqrt(5.0), math.sqrt(13.0)
    rows = []

    n = 1.0 / math.sqrt(215.0 / 972.0 - 59.0 / 972.0 * s13)
    rows.append(
        BridgeReferenceMode(
            cos_omega_tau=(1.0 + s13) / 6.0,
            u2=(n * (17.0 / 72.0 - 5.0 / 72.0 * s13), n * (s3 / 4.0) * (31.0 / 54.0 - 7.0 / 54.0 * s13)),
            u3=(0.0, -n * (s3 / 4.0) * (10.0 / 27.0 - 4.0 / 27.0 * s13)),
            u4=(-n * (17.0 / 72.0 - 5.0 / 72.0 * s13), n * (s3 / 4.0) * (31.0 / 54.0 - 7.0 / 54.0 * s13)),
            p1=(n * (-1.0 / 6.0 + s13 / 24.0), -n * (s3 / 4.0) * (2.0 / 3.0 - s13 / 6.0)),
            p5=(n * (1.0 / 6.0 - s13 / 24.0), -n * (s3 / 4.0) * (2.0 / 3.0 - s13 / 6.0)),
            force_free=False,
        )
    )

    n = 1.0 / math.sqrt(9.0 / 20.0 - 7.0 / 60.0 * s5)
    rows.append(
        BridgeReferenceMode(
            cos_omega_tau=(5.0 + s5) / 10.0,
            u2=(n * (-3.0 / 8.0 - s5 / 40.0), -n * (s3 / 4.0) * (5.0 / 6.0 - 13.0 / 30.0 * s5)),
            u3=(n * (3.0 / 10.0 - s5 / 5.0), 0.0),
            u4=(n * (-3.0 / 8.0 - s5 / 40.0), n * (s3 / 4.0) * (5.0 / 6.0 - 13.0 / 30.0 * s5)),
            p1=(n * (-1.0 / 20.0 + s5 / 8.0), n * (s3 / 4.0) * (1.0 - 3.0 / 10.0 * s5)),
            p5=(n * (-1.0 / 20.0 + s5 / 8.0), -n * (s3 / 4.0) * (1.0 - 3.0 / 10.0 * s5)),
            force_free=False,
        )
    )

    n = 1.0 / (2.0 * math.sqrt(7.0))
    rows.append(
        BridgeReferenceMode(
            cos_omega_tau=-1.0 / 3.0,
            u2=(n * 1.0, -n * 3.0 * s3),
            u3=(-n * 6.0, 0.0),
            u4=(n * 1.0, n * 3.0 * s3),
            p1=(n * 12.0, n * 3.0 * s3),
            p5=(n * 12.0, -n * 3.0 * s3),
            force_free=False,
        )
    )

    n = 1.0 / math.sqrt(215.0 / 972.0 + 59.0 / 972.0 * s13)
    rows.append(
        BridgeReferenceMode(
            cos_omega_tau=(1.0 - s13) / 6.0,
            u2=(n * (17.0 / 72.0 + 5.0 / 72.0 * s13), n * (s3 / 4.0) * (31.0 / 54.0 + 7.0 / 54.0 * s13)),
            u3=(0.0, -n * (s3 / 4.0) * (10.0 / 27.0 + 4.0 / 27.0 * s13)),
            u4=(-n * (17.0 / 72.0 + 5.0 / 72.0 * s13), n * (s3 / 4.0) * (31.0 / 54.0 + 7.0 / 54.0 * s13)),
            p1=(n * (-1.0 / 6.0 - s13 / 24.0), -n * (s3 / 4.0) * (2.0 / 3.0 + s13 / 6.0)),
            p5=(n * (1.0 / 6.0 + s13 / 24.0), -n * (s3 / 4.0) * (2.0 / 3.0 + s13 / 6.0)),
            force_free=False,
        )
    )

    n = 1.0 / math.sqrt(9.0 / 20.0 + 7.0 / 60.0 * s5)
    rows.append(
        BridgeReferenceMode(
            cos_omega_tau=(5.0 - s5) / 10.0,
            u2=(n * (-3.0 / 8.0 + s5 / 40.0), -n * (s3 / 4.0) * (5.0 / 6.0 + 13.0 / 30.0 * s5)),
            u3=(n * (3.0 / 10.0 + s5 / 5.0), 0.0),
            u4=(n * (-3.0 / 8.0 + s5 / 40.0), n * (s3 / 4.0) * (5.0 / 6.0 + 13.0 / 30.0 * s5)),
            p1=(n * (-1.0 / 20.0 - s5 / 8.0), n * (s3 / 4.0) * (1.0 + 3.0 / 10.0 * s5)),
            p5=(n * (-1.0 / 20.0 - s5 / 8.0), -n * (s3 / 4.0) * (1.0 + 3.0 / 10.0 * s5)),
            force_free=False,
        )
    )

    n = 1.0 / (2.0 * s3)
    rows.append(
        BridgeReferenceMode(
            cos_omega_tau=-1.0,
            u2=(-n * 3.0, n * s3),
            u3=(0.0, -n * 2.0 * s3),
            u4=(n * 3.0, n * s3),
            p1=(0.0, 0.0),
            p5=(0.0, 0.0),
            force_free=True,
        )
    )
    return rows


# -- verification report ---------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    expected: float
    actual: float
    passed: bool

    @property
    def abs_err(self) -> float:
        return abs(self.actual - self.expected)

    @property
    def rel_err(self) -> float:
        scale = max(abs(self.expected), abs(self.actual), 1e-300)
        return self.abs_err / scale


def verify_square(truss=None):
    """Determinant-equivalence and dispersion-condition checks for the square."""
    from . import spectrum
    from .model import builtin_structure

    if truss is None:
        truss = builtin_structure("square")
    cfg = SquareClosedForm.from_truss(truss)
    checks = []

    rng = np.random.default_rng(20240817)
    samples = [w for w in np.linspace(0.1, 3.0, 137) if _is_regular(cfg, w)][:100]
    worst = 0.0
    for w in samples:
        expected = closed_form_square_det(cfg, w)
        actual = spectrum.laplacian_determinant(truss, w)
        worst = max(worst, abs(actual - expected) / max(abs(expected), 1e-300))
    checks.append(CheckResult("square det(D) vs closed form, max rel err", 0.0, worst, worst <= 1e-10))

    # same equivalence for one random positive-impedance configuration
    lambdas = {r: float(rng.uniform(0.5, 2.0)) for r in SQUARE_RODS}
    cfg_rand = SquareClosedForm(lambdas=lambdas, taus=cfg.taus)
    truss_rand = _square_with_lambdas(truss, lambdas)
    worst = 0.0
    for w in samples:
        expected = closed_form_square_det(cfg_rand, w)
        actual = spectrum.laplacian_determinant(truss_rand, w)
        worst = max(worst, abs(actual - expected) / max(abs(expected), 1e-300))
    checks.append(
        CheckResult("square det(D) vs closed form, random impedances", 0.0, worst, worst <= 1e-10)
    )

    # lowest dispersion-condition zero against the lowest sweep root; the scan
    # skips rod-resonance poles, where the condition flips sign without a root
    oracle_root = float("nan")
    scan = [w for w in np.linspace(0.1, 3.0, 3001) if _is_regular(cfg, w, margin=2e-3)]
    for a, b in zip(scan[:-1], scan[1:]):
        if not _is_regular(cfg, 0.5 * (a + b), margin=2e-3):
            continue  # cell straddles a pole
        if closed_form_square_condition(cfg, a) * closed_form_square_condition(cfg, b) < 0:
            lo, hi = a, b
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if closed_form_square_condition(cfg, lo) * closed_form_square_condition(cfg, mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            oracle_root = 0.5 * (lo + hi)
            break
    window = spectrum.FrequencyWindow(0.1, 3.0)
    sweep = spectrum.find_natural_frequencies(truss, window)
    regular = [m.omega for m in sweep.modes if m.kind == "regular"]
    actual_root = min(regular) if regular else float("nan")
    checks.append(
        CheckResult("square lowest natural frequency", oracle_root, actual_root,
                    abs(actual_root - oracle_root) <= 1e-9)
    )
    return checks


def verify_bridge(truss=None):
    """Polynomial-root, mode-shape and anchor-force checks for the bridge."""
    from . import spectrum
    from .model import builtin_structure

    if truss is None:
        truss = builtin_structure("bridge")
    tau = truss.rod_properties(truss.rods[0]).transit_time
    checks = []

    residual = max(abs(bridge_polynomial(c)) for c in BRIDGE_POLYNOMIAL_ROOTS)
    checks.append(CheckResult("bridge polynomial at exact roots", 0.0, residual, residual <= 1e-12))

    window = spectrum.FrequencyWindow(0.05 / tau, 1.05 * math.pi / tau)
    sweep = spectrum.find_natural_frequencies(truss, window)
    regular = sorted(m.omega for m in sweep.modes if m.kind == "regular")
    expected_cos = sorted(c for c in BRIDGE_POLYNOMIAL_ROOTS if c > -1.0)
    found_cos = sorted(math.cos(w * tau) for w in regular)
    if len(found_cos) == len(expected_cos):
        worst = max(abs(a - b) for a, b in zip(found_cos, expected_cos))
    else:
        worst = float("inf")
    checks.append(CheckResult("bridge sweep cos(omega tau) vs exact roots", 0.0, worst, worst <= 1e-9))

    resonant = [m for m in sweep.modes if m.kind == "resonant"]
    checks.append(
        CheckResult("bridge resonant mode count at omega tau = pi", 1.0, float(len(resonant)),
                    len(resonant) == 1)
    )

    worst_mode = 0.0
    worst_force = 0.0
    for row in bridge_reference_modes():
        ref = row.displacement_vector()
        ref = ref / np.linalg.norm(ref)
        try:
            mode = spectrum.extract_modes(truss, math.acos(row.cos_omega_tau) / tau)[0]
        except spectrum.NotARootError:
            worst_mode = float("inf")
            continue
        raw = np.concatenate([mode.displacements[j] for j in ("2", "3", "4")])
        raw = raw / np.linalg.norm(raw)
        flip = -1.0 if float(raw @ ref) < 0.0 else 1.0
        worst_mode = max(worst_mode, float(np.max(np.abs(flip * raw - ref))))
        forces = flip * np.concatenate([mode.anchor_forces["1"], mode.anchor_forces["5"]])
        if row.force_free:
            worst_force = max(worst_force, float(np.linalg.norm(forces)))
        else:
            ref_forces = np.array([*row.p1, *row.p5])
            forces = forces / np.linalg.norm(forces)
            ref_forces = ref_forces / np.linalg.norm(ref_forces)
            worst_force = max(worst_force, float(np.max(np.abs(forces - ref_forces))))
    checks.append(CheckResult("bridge modes vs reference table, max err", 0.0, worst_mode, worst_mode <= 1e-8))
    checks.append(CheckResult("bridge anchor forces vs reference, max err", 0.0, worst_force, worst_force <= 1e-8))
    return checks


def verify_generic(truss):
    """Structure-independent identities: T^2 = I, D symmetry, Taylor remainder."""
    from . import assembly, fem, scattering

    checks = []
    worst = 0.0
    for joint in truss.joints:
        tm = scattering.transmission_matrix(truss, joint.id)
        dev = np.max(np.abs(tm.entries @ tm.entries - np.eye(tm.entries.shape[0])), initial=0.0)
        worst = max(worst, float(dev))
    checks.append(CheckResult("transmission involution max |T^2 - I|", 0.0, worst, worst <= 1e-12))

    tau_min = truss.tau_min
    worst = 0.0
    for x in (0.37, 0.93, 2.41):
        omega = x / tau_min
        d = assembly.assemble_laplacian(truss, omega, reduce_anchors=False).entries
        scale = np.max(np.abs(d))
        worst = max(worst, float(np.max(np.abs(d - d.T)) / scale))
    checks.append(CheckResult("network matrix symmetry, max rel asymmetry", 0.0, worst, worst <= 1e-10))

    k = assembly.assemble_stiffness(truss, reduce_anchors=False).entries
    m = fem.assemble_mass(truss, "consistent", reduce_anchors=False).entries

    def remainder(omega):
        d = assembly.assemble_laplacian(truss, omega, reduce_anchors=False).entries
        return float(np.max(np.abs(d - k + omega**2 * m)))

    ratio = remainder(0.02 / tau_min) / remainder(0.01 / tau_min)
    checks.append(CheckResult("fourth-order Taylor remainder ratio", 16.0, ratio, 8.0 <= ratio <= 32.0))
    return checks


def _is_regular(cfg: SquareClosedForm, omega: float, margin: float = 1e-2) -> bool:
    return all(
        abs(omega * cfg.taus[r] - math.pi * round(omega * cfg.taus[r] / math.pi)) > margin
        for r in SQUARE_RODS
    )


def _square_with_lambdas(truss, lambdas):
    """Copy of the square with per-rod areas chosen to realize the given impedances."""
    from .model import Rod, Truss

    rods = []
    for rod in truss.rods:
        gamma = truss.rod_properties(rod).impedance
        rods.append(Rod(id=rod.id, joints=rod.joints, area=lambdas[rod.id] / gamma,
                        material=rod.material))
    return Truss(
        dimension=truss.dimension,
        joints=truss.joints,
        rods=rods,
        materials=truss.materials,
        dimensionless=truss.dimensionless,
    )
