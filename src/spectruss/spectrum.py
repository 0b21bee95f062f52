"""Natural-frequency sweep through the rod resonances and null-space mode extraction.

At a rod resonance omega*tau = n*pi the entries of D(omega) diverge, each
resonant rod through a rank-one term. Moved into a border, those terms leave
the matrix

    B = [[F, Q], [Q^T, C]],

finite through the pole, with D as its Schur complement on the border:
det D = det B / det C, and D has N(B) - N(C) negative eigenvalues. One
counting sweep locates every natural frequency with the Wittrick-Williams
count J = J0 + N(D), J0 = sum_r floor(omega*tau_r/pi): J rises by the
multiplicity of each one, at a pole too. Within BORDER_RADIUS of a
resonance the count and the polish's determinant come from B, elsewhere
from D itself, and each pole is cut out of the window by a band as wide as
the root tolerance. One routine reads modes off a null space, from one
symmetric eigendecomposition: of D at a regular root (of B if a rod is near
its resonance), of B at a pole. There a mode either moves the joints, its
displacements u meeting each resonant rod's end-motion constraint

    (-1)^n e^T u_a - e^T u_b = 0        (Q^T u = 0)

while the border amplitudes xi absorb the other rods' forces, F u + Q xi = 0
(kind "resonant"), or keeps them at rest, u = 0 and Q xi = 0, the resonant
rods vibrating between them (kind "interior"). The relative singular-value
cutoff is MODE_TOL at a polished root and 1e-13 at a pole, whose frequency
is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _roots
from .assembly import (
    _assemble,
    _lift,
    _pattern,
    _rod_constants,
    _span_frames,
    _spectral_coefficients,
    assemble_laplacian,
    laplacian_evaluator,
)
from .model import Truss

# Relative singular-value cutoff for null-space membership at a polished root.
MODE_TOL = 1e-7
DEFAULT_ROOT_RTOL = 1e-10  # root tolerance, relative to omega
# Distance in omega*tau (radians) from a rod resonance n*pi, n >= 1, within
# which the sweep and extract_modes border that rod: there D's own count
# and determinant lose accuracy (its count departs from B's up to ~3e-4 away).
BORDER_RADIUS = 1e-3
# Singular value of a null direction's displacement part above which it
# moves the joints (_null_modes). At the poles of the test generator's first
# 200 draws and of the benchmark trusses, and at their roots beside a pole,
# those that move them read >= 0.97 and u = 0 directions <= 3e-15.
MOVING_U = 0.5


class NotARootError(Exception):
    """omega is not a natural frequency of the structure."""

    def __init__(self, omega, smallest_relative_sv):
        self.omega = omega
        self.smallest_relative_sv = smallest_relative_sv
        super().__init__(
            f"D({omega!r}) has no null space: smallest relative singular value "
            f"{smallest_relative_sv:.3e}"
        )


@dataclass(frozen=True)
class FrequencyWindow:
    """A sweep window and its root tolerance, tol_at; every sweep counts roots and lays no grid."""

    omega_min: float
    omega_max: float

    def __post_init__(self):
        if not (0.0 < self.omega_min < self.omega_max):
            raise ValueError(
                f"need 0 < omega_min < omega_max, got ({self.omega_min}, {self.omega_max})"
            )

    def tol_at(self, omega: float) -> float:
        return DEFAULT_ROOT_RTOL * max(abs(omega), self.omega_min)


@dataclass(frozen=True)
class Pole:
    omega: float
    rods: tuple  # rod ids resonant at this frequency
    orders: tuple  # matching n of omega*tau = n*pi


@dataclass
class ModeResult:
    omega: float
    kind: str  # "regular" | "resonant" (joints move) | "interior" (joints at rest)
    displacements: dict | None = None  # free joint id -> vector, unit overall norm
    anchor_forces: dict | None = None  # anchored joint id -> vector, mode scale
    resonant_order: int | None = None
    rod_amplitudes: dict | None = None  # "interior": rod id -> xi, unit overall norm


@dataclass
class SweepResult:
    modes: list
    warnings: list = field(default_factory=list)
    mechanisms: list = field(default_factory=list)  # free joints whose rods span < dim

    def __iter__(self):
        return iter(self.modes)

    def __len__(self):
        return len(self.modes)

    @property
    def omegas(self):
        return [m.omega for m in self.modes]


def pole_set(truss: Truss, window: FrequencyWindow):
    """All rod resonances omega*tau = n*pi inside the window, grouped and sorted.

    Resonances within half the root tolerance of a pole's first share it, so
    the band the sweep cuts around the pole (_bands) holds all of them. The
    window is widened by as much at each end, so that a pole at an end keeps
    the rods whose resonance rounds to just outside it.
    """
    lo = window.omega_min - 0.5 * window.tol_at(window.omega_min)
    hi = window.omega_max + 0.5 * window.tol_at(window.omega_max)
    events = []
    for rod in truss.rods:
        tau = truss.rod_properties(rod).transit_time
        n_lo = max(1, math.ceil(lo * tau / math.pi))
        n_hi = math.floor(hi * tau / math.pi)
        for n in range(n_lo, n_hi + 1):
            events.append((n * math.pi / tau, rod.id, n))
    events.sort()
    poles = []
    for omega, rod_id, n in events:
        if poles and omega - poles[-1][0] <= 0.5 * window.tol_at(poles[-1][0]):
            poles[-1][1].append(rod_id)
            poles[-1][2].append(n)
        else:
            poles.append((omega, [rod_id], [n]))
    return [Pole(om, tuple(rods), tuple(orders)) for om, rods, orders in poles]


# -- deficient-joint handling -------------------------------------------------


def _free_basis(truss: Truss):
    """Rod-span basis of the free joints, dense, and the mechanism joint ids.

    basis.T @ X @ basis projects an anchor-reduced joint matrix X onto the
    rod-span frames (assembly._span_frames) that the sweeps solve in.
    """
    frames, mechanisms = _span_frames(truss)
    free = [f for j, f in zip(truss.joints, frames) if not j.anchored]
    return _lift(free), list(mechanisms)


def _near_resonances(taus, omegas):
    """(near, n) over omegas x rods: rod r lies within BORDER_RADIUS of omega*tau_r = n*pi, n >= 1."""
    y = np.multiply.outer(omegas, taus / math.pi)
    n = np.rint(y)
    return (np.abs(y - n) < BORDER_RADIUS / math.pi) & (n > 0), n


def _border_builder(truss: Truss, reduce_anchors: bool):
    """(pattern, build): build(omegas, near, n) -> (B, c), D bordered per point, batched.

    Point i is bordered at the rods near[i] marks, each resonant at
    omega*tau_r = n[i, r]*pi (sigma = (-1)^n); every point must mark the
    same number k of rods. Such a rod contributes to D(omega)
    (Lambda*omega*sigma / sin x) q q^T, with q = B_a^T e at a and
    -sigma*B_b^T e at b, plus a diagonal term -Lambda*omega*tan((x - n*pi)/2)
    that is finite through the pole. F is D without the rank-one terms,
    column r of Q is Lambda_r*omega*q_r and the corner is diag(c),
    c_r = -Lambda_r*omega*sigma_r*sin x_r, so B = [[F, Q], [Q^T, diag(c)]] is
    analytic through the pole and its Schur complement on the border is D.
    The Lambda*omega scaling puts both blocks in force units. With no near
    given, or none marked, B is D itself, built by laplacian_evaluator. F is
    on the rod-span pattern, reduced or not; q is zero at reduced-away
    joints. B_a^T e and B_b^T e of every rod are kept with the truss as
    (index, value) entries, padded to dim with index size, which build drops.
    """
    pattern = _pattern(truss, reduce_anchors, span=True)
    taus, lams = _rod_constants(truss)
    size = pattern.size
    plain = laplacian_evaluator(truss, pattern)

    def border_ends():
        index = np.full((2, len(taus), truss.dimension), size)
        value = np.zeros((2, len(taus), truss.dimension))
        for r, rod in enumerate(truss.rods):
            e = truss.rod_properties(rod).unit_vector
            for side, jid in enumerate(rod.joints):
                if jid in pattern.index_map:
                    frame = pattern.frames[jid]
                    index[side, r, : frame.shape[1]] = pattern.index_map[jid] + np.arange(frame.shape[1])
                    value[side, r, : frame.shape[1]] = e @ frame
        return index, value

    index, value = truss._cached(("border_ends", reduce_anchors), border_ends)

    def build(omegas, near=None, n=None):
        if near is None or not near.any():
            return plain(omegas), np.zeros((omegas.size, 0))
        point, rod = np.nonzero(near)  # row-major: each point's k rods in turn
        k = point.size // omegas.size
        order = n[point, rod]
        sigma = 1.0 - 2.0 * (order % 2)
        x = omegas[point] * taus[rod]
        lam_omega = omegas[point] * lams[rod]
        coefficients = _spectral_coefficients(taus, lams, omegas)
        coefficients[rod, point] = -lam_omega * np.tan(0.5 * (x - order * math.pi))
        coefficients[len(taus) + rod, point] = 0.0
        border = np.zeros((point.size, size + 1))
        at = np.arange(point.size)[:, None]
        border[at, index[0, rod]] = value[0, rod] * lam_omega[:, None]
        border[at, index[1, rod]] = value[1, rod] * (-sigma * lam_omega)[:, None]
        slot = size + at[:, 0] % k
        corner = -sigma * lam_omega * np.sin(x)
        stack = np.zeros((omegas.size, size + k, size + k))
        stack[:, :size, :size] = _assemble(pattern, coefficients)
        stack[point, :size, slot] = border[:, :size]
        stack[point, slot, :size] = border[:, :size]
        stack[point, slot, slot] = corner
        return stack, corner.reshape(-1, k)

    return pattern, build


def _det_eval(truss: Truss):
    """(func, count) of the network sweep: (sign, log|det D|) and the Wittrick-Williams count J.

    D is the anchored structure's, in rod-span frames, so mechanism joints
    leave it regular. J = J0 + N(D): J0 = sum_r floor(omega*tau_r/pi) counts
    the rods' clamped-end modes below omega and N(D) the negative eigenvalues
    of D, so J rises by the multiplicity of every natural frequency, at a pole
    too. Each point is evaluated on D bordered at exactly the rods within
    BORDER_RADIUS of a resonance (_border_builder, through
    _roots.bordered_determinant), the points of each border width together;
    with no rod near, that is the swept D itself. Near a pole D's own
    numbers lose their accuracy, B's do not.
    """
    pattern, build = _border_builder(truss, True)
    taus, _ = _rod_constants(truss)
    func, negative = _roots.bordered_determinant(
        lambda xs, k: build(xs, *_near_resonances(taus, xs)) if k else build(xs),
        lambda xs: _near_resonances(taus, xs)[0].sum(axis=1),
        pattern.size,
    )

    def count(xs):
        xs = np.asarray(xs, dtype=float)
        clamped = np.floor(np.multiply.outer(xs, taus) / math.pi).sum(axis=1).astype(int)
        return (negative(xs)[0] + clamped,)

    return func, count


def _bands(window: FrequencyWindow, poles):
    """(lo, hi) of the band cut out around each pole: the root tolerance wide, centred on it."""
    return [(p.omega - 0.5 * window.tol_at(p.omega), p.omega + 0.5 * window.tol_at(p.omega)) for p in poles]


def _segments(window: FrequencyWindow, poles):
    """(lo, hi) of the intervals between the pole bands (_bands)."""
    cuts = [window.omega_min, *(x for band in _bands(window, poles) for x in band), window.omega_max]
    return [(lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2]) if hi > lo]


def find_natural_frequencies(truss: Truss, window: FrequencyWindow, threads: int = 1) -> SweepResult:
    """Locate every natural frequency in the window.

    One counting sweep of the Wittrick-Williams count J (_det_eval) runs over
    the segments between the poles' bands, each band as wide as the root
    tolerance: J rises by one at each simple root, and a pole's multiplicity
    is the rise of J across its band. Each pole is dispatched to
    resonant_mode_check, except where that rise is 0 in a truss without
    mechanism joints (at mechanism joints the count near a pole is not yet
    trusted). A count that falls, or a rise that differs from the modes
    found at the pole, is reported in the warnings. Output is sorted by
    frequency and deduplicated within the root tolerance.
    """
    poles = pole_set(truss, window)
    bands = _bands(window, poles)
    segments = _segments(window, poles)
    mechanisms = list(_span_frames(truss)[1])
    func, count = _det_eval(truss)
    points = np.unique(np.ravel(segments + bands))
    counted = dict(zip(points.tolist(), _roots.batched_eval(count, points, threads)[0].tolist()))
    ends = np.array([counted[x] for x in np.ravel(segments).tolist()], dtype=int)
    roots, warnings = _roots.sign_sweep_roots(
        func, count, segments, window.tol_at, threads=threads, ends=ends
    )

    modes = [ModeResult(omega=r, kind="regular") for r in roots]
    for pole, (lo, hi) in zip(poles, bands):
        rise = counted[hi] - counted[lo]
        if rise == 0 and not mechanisms:
            continue
        found = resonant_mode_check(truss, pole.omega, pole.rods, pole.orders)
        modes.extend(found)
        if rise != len(found):
            warnings.append(
                f"count rises by {rise} across the pole at {pole.omega:.10g}, "
                f"but {len(found)} resonant modes were found there"
            )
    modes.sort(key=lambda m: m.omega)
    return SweepResult(modes=modes, warnings=warnings, mechanisms=mechanisms)


# -- mode extraction -----------------------------------------------------------


def _unit_mode(truss: Truss, pattern, vec: np.ndarray) -> tuple:
    """vec scaled to a unit displacement part (its first pattern.size entries) and the
    lifted joint displacements; first clear coordinate > 0."""
    vec = vec / np.linalg.norm(vec[: pattern.size])
    joint = pattern.lift @ vec[: pattern.size]
    if next((x < 0 for x in joint if abs(x) > 1e-8), False):
        vec, joint = -vec, -joint
    return vec, dict(zip(pattern.index_map, joint.reshape(-1, truss.dimension)))


def _anchor_rows(truss: Truss, index_map, forces):
    """Force vectors at anchored joints, read off the unreduced system's forces."""
    dim = truss.dimension
    return {
        j.id: forces[index_map[j.id] : index_map[j.id] + dim].copy() for j in truss.anchored_joints
    }


def _null_modes(truss: Truss, omega: float, near, n, cutoff: float, order=None):
    """Modes at omega from the null space of D bordered at the rods near marks.

    B (_border_builder) is built on the unreduced pattern, so the anchored
    rows of [F | Q] give reactions. Without those rows and columns B is
    symmetric, and the eigenvectors (one eigh) of its eigenvalues at or below
    cutoff * max |eigenvalue| span its null space, each a displacement u and
    border amplitudes xi with F u + Q xi = 0. With a border, the right
    singular vectors of the null space's u-block split it: those of singular
    value > MOVING_U move the joints, carried with their xi; the rest, those
    past the u-block's rank included, have u = 0 and Q xi = 0. At a pole
    (order given) they are kinds "resonant" and "interior", the latter with
    xi as rod amplitudes. At a regular root only the moving ones are modes of
    D, kind "regular": beside a resonance c is small, and a u = 0 direction
    can fall below the cutoff without being a mode. Anchor forces are the
    anchored rows of [F | Q] times (u, xi). Raises NotARootError when no mode
    is below the cutoff.
    """
    full, build = _border_builder(truss, False)
    bordered = build(np.array([float(omega)]), near[None], n[None])[0][0]
    free = _pattern(truss, reduce_anchors=True, span=True)
    kept = np.concatenate([free.embedding, np.arange(full.size, len(bordered))])
    values, vectors = np.linalg.eigh(bordered[kept][:, kept])
    svals = np.abs(values)  # B's singular values
    smax = svals.max(initial=0.0)
    null = vectors[:, svals <= cutoff * smax].T
    interior = null[:0]
    if len(kept) > free.size:  # a border: split off the u = 0 directions
        _, s, right = np.linalg.svd(null[:, : free.size].T)
        s = np.concatenate([s, np.zeros(len(right) - s.size)])
        moving = s > MOVING_U
        null, interior = (right[moving] / s[moving, None]) @ null, right[~moving] @ null
        if order is None:
            interior = interior[:0]
    if not (len(null) or len(interior)):
        joints = np.linalg.norm(vectors[: free.size], axis=0) > MOVING_U
        raise NotARootError(omega, float(svals[joints].min(initial=smax) / smax) if smax else 0.0)

    kind = "regular" if order is None else "resonant"
    rows = bordered[: full.size, kept]  # [F | Q] on every row, anchors included
    modes = []
    for vec in null:
        vec, displacements = _unit_mode(truss, free, vec)
        modes.append(
            ModeResult(
                omega=omega,
                kind=kind,
                displacements=displacements,
                anchor_forces=_anchor_rows(truss, full.index_map, rows @ vec),
                resonant_order=order,
            )
        )
    rods = [rod.id for rod, hit in zip(truss.rods, near) if hit]
    for vec in interior:
        xi = vec[free.size :] / np.linalg.norm(vec[free.size :])
        if next((x < 0 for x in xi if abs(x) > 1e-8), False):
            xi = -xi
        modes.append(
            ModeResult(
                omega=omega,
                kind="interior",
                displacements={jid: np.zeros(truss.dimension) for jid in free.index_map},
                anchor_forces=_anchor_rows(truss, full.index_map, rows[:, free.size :] @ xi),
                resonant_order=order,
                rod_amplitudes=dict(zip(rods, xi.tolist())),
            )
        )
    return modes


def extract_modes(truss: Truss, omega_star: float):
    """Null-space mode shapes of the anchored structure's D(omega*).

    One unreduced D(omega*), in rod-span frames (the identity at anchors),
    serves both the null space (its free block, the matrix the sweep solves)
    and the anchor forces (its anchored rows). Rods within BORDER_RADIUS of a
    resonance are bordered, as in the sweep, so a root beside a pole is
    taken from the finite B. Shapes are in joint coordinates.
    """
    if not (omega_star > 0.0):
        raise ValueError(f"omega must be > 0, got {omega_star}")
    near, n = _near_resonances(_rod_constants(truss)[0], np.array([float(omega_star)]))
    return _null_modes(truss, omega_star, near[0], n[0], MODE_TOL)


def resonant_mode_check(truss: Truss, omega_pole: float, resonant_rods, n_values):
    """Every natural mode at a rod resonance, or an empty list when none exists.

    They are the null space of D bordered at the resonant rods (_border_builder).
    Kind "resonant": the joints move, meeting the end-motion constraint
    (-1)^n e^T u_a - e^T u_b = 0 of every resonant rod, and the border
    absorbs the forces of the rest. Kind "interior": the joints stay at rest
    and the resonant rods vibrate as sin(n*pi*z/L), scaled by rod_amplitudes,
    with end forces that balance at every free joint (Q xi = 0). The motions
    are those of the rod-span frames, as in the sweep.
    """
    # a pole's omega is exact, so its null singular values are round-off
    # (~1e-16 s_max); extract_modes' MODE_TOL allows for a polished root,
    # known only to the sweep's tolerance, and at a pole it would also take
    # in regular roots just beside it
    orders = dict(zip(resonant_rods, n_values))
    near = np.array([rod.id in orders for rod in truss.rods])
    n = np.array([orders.get(rod.id, 0) for rod in truss.rods], dtype=float)
    try:
        return _null_modes(truss, omega_pole, near, n, 1e-13, order=min(n_values))
    except NotARootError:
        return []


def anchor_forces(truss: Truss, mode: ModeResult) -> dict:
    """Reaction forces at anchored joints for a mode, at the mode's scale.

    A mode from the sweep or from extract_modes carries them already. For
    any other free-joint displacement state at a regular frequency -- a
    forced-response result wrapped in a ModeResult -- they are recovered via
    the anchored rows of the unreduced matrix.
    """
    if mode.displacements is None:
        raise ValueError("mode carries no displacements; extract modes first")
    if mode.anchor_forces is not None:
        return dict(mode.anchor_forces)
    if not truss.anchored_joints:
        return {}
    full = assemble_laplacian(truss, mode.omega, reduce_anchors=False)
    dim = truss.dimension
    vec = np.zeros(full.entries.shape[0])
    for jid, u in mode.displacements.items():
        vec[full.index_map[jid] : full.index_map[jid] + dim] = u
    return _anchor_rows(truss, full.index_map, full.entries @ vec)
