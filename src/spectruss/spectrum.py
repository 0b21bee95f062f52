"""Pole-aware natural-frequency sweep and null-space mode extraction.

Away from rod resonances the natural frequencies are the roots of det(D(omega))
between consecutive poles, located by the Wittrick-Williams count: the number
of negative eigenvalues of D rises by one at each of them. At a pole
omega*tau = n*pi the entries of D diverge, each resonant rod through a
rank-one term. Moved into a border, those terms leave the matrix

    B = [[F, Q], [Q^T, C]],

finite through the pole, with D as its Schur complement on the border (the
J0 term of Wittrick & Williams made explicit). One routine reads modes off a
null space by SVD: of D at a regular root, of B at a pole, where a mode's
displacements u meet each resonant rod's end-motion constraint

    (-1)^n e^T u_a - e^T u_b = 0        (Q^T u = 0)

and the border amplitudes xi absorb the other rods' forces, F u + Q xi = 0.
Its relative singular-value cutoff is MODE_TOL at a polished root and 1e-13
at a pole, whose frequency is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _roots
from .assembly import (
    POLE_GUARD,
    _assemble,
    _lift,
    _pattern,
    _rod_constants,
    _span_frames,
    _spectral_coefficients,
    assemble_laplacian,
    check_pole_guard,
    laplacian_evaluator,
)
from .model import Truss

# Relative singular-value cutoff for null-space membership at a polished root.
MODE_TOL = 1e-7
DEFAULT_ROOT_RTOL = 1e-10  # root tolerance, relative to omega


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
    kind: str  # "regular" | "resonant"
    displacements: dict | None = None  # free joint id -> vector, unit overall norm
    anchor_forces: dict | None = None  # anchored joint id -> vector, mode scale
    resonant_order: int | None = None


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
    """All rod resonances omega*tau = n*pi inside the window, grouped and sorted."""
    events = []
    for rod in truss.rods:
        tau = truss.rod_properties(rod).transit_time
        n_lo = max(1, math.ceil(window.omega_min * tau / math.pi))
        n_hi = math.floor(window.omega_max * tau / math.pi)
        for n in range(n_lo, n_hi + 1):
            events.append((n * math.pi / tau, rod.id, n))
    events.sort()
    poles = []
    for omega, rod_id, n in events:
        if poles and abs(omega - poles[-1][0]) <= 1e-9 * omega:
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


def _det_eval(truss: Truss):
    """_roots.determinant's (func, count) of the swept D: anchor-reduced, in rod-span frames."""
    pattern = _pattern(truss, reduce_anchors=True, span=True)
    return _roots.determinant(laplacian_evaluator(truss, pattern), 8 * pattern.size**2)


def guard_width(truss: Truss, pole: Pole) -> float:
    """Half-width in omega of the band the sweep leaves unsampled around a pole.

    The widest POLE_GUARD / tau among the pole's resonant rods.
    """
    return max(POLE_GUARD / truss.rod_properties(rid).transit_time for rid in pole.rods)


def _segments(window: FrequencyWindow, truss: Truss, poles):
    """(lo, hi) of the intervals between poles, clipped by the pole guard."""
    cuts = [(window.omega_min, 0.0)]
    cuts.extend((pole.omega, guard_width(truss, pole)) for pole in poles)
    cuts.append((window.omega_max, 0.0))
    segments = []
    for (x0, g0), (x1, g1) in zip(cuts[:-1], cuts[1:]):
        lo, hi = x0 + g0, x1 - g1
        if hi > lo:
            segments.append((lo, hi))
    return segments


def find_natural_frequencies(truss: Truss, window: FrequencyWindow, threads: int = 1) -> SweepResult:
    """Locate every natural frequency in the window.

    Regular roots come from one counting sweep of D over the segments between
    poles: inside a segment the rod term of the Wittrick-Williams count is
    constant, so the roots an interval holds are the rise of the number of
    negative eigenvalues of D across it. Across a pole's guard band the count
    rises by the resonant rods (each has one clamped-end mode at the pole)
    plus the rise of the D count: the modes at the pole and the roots inside
    the band. Each pole is dispatched to resonant_mode_check, except where
    that rise is 0 in a truss without mechanism joints (at mechanism joints
    the count near a pole is not yet trusted, ROADMAP item 2). A count that
    falls, or a rise that differs from the resonant modes found, is reported
    in the warnings. D is the anchored structure's, in rod-span frames, so
    mechanism joints leave it regular. Output is sorted by frequency and
    deduplicated within the root tolerance.
    """
    poles = pole_set(truss, window)
    segments = _segments(window, truss, poles)
    mechanisms = list(_span_frames(truss)[1])
    func, count = _det_eval(truss)
    edges = np.ravel(segments)
    ends = _roots.batched_eval(count, edges, threads)[0] if segments else edges
    roots, warnings = _roots.sign_sweep_roots(
        func, count, segments, window.tol_at, threads=threads, ends=ends
    )

    modes = [ModeResult(omega=r, kind="regular") for r in roots]
    # a guard end is a segment end: pole.omega -/+ guard_width, as _segments computes it
    counted = dict(zip(edges.tolist(), ends.tolist()))
    for pole in poles:
        g = guard_width(truss, pole)
        below, above = counted.get(pole.omega - g), counted.get(pole.omega + g)
        rise = None if below is None or above is None else len(pole.rods) + above - below
        if rise == 0 and not mechanisms:
            continue
        found = resonant_mode_check(truss, pole.omega, pole.rods, pole.orders)
        modes.extend(found)
        if rise is not None and rise != len(found):
            warnings.append(
                f"count rises by {rise} across the pole at {pole.omega:.10g}, "
                f"but {len(found)} resonant modes were found there"
            )
    modes.sort(key=lambda m: m.omega)
    return SweepResult(modes=modes, warnings=warnings, mechanisms=mechanisms)


# -- mode extraction -----------------------------------------------------------


def _bordered(truss: Truss, omega: float, resonant: dict):
    """D(omega) bordered at the resonant rods: B = [[F, Q], [Q^T, corner]], unreduced.

    Rod r of `resonant` (rod id -> n, sigma = (-1)^n) contributes to D(omega)
    (Lambda*omega*sigma / sin x) q q^T, with q = B_a^T e at a and -sigma*B_b^T e
    at b, plus a diagonal term -Lambda*omega*tan((x - n*pi)/2) that is finite
    through the pole. F is D without the rank-one terms, column r of Q is
    Lambda_r*omega*q_r and the corner is -diag(Lambda_r*omega*sigma_r*sin x_r),
    so B is analytic through the pole and its Schur complement on the border
    is D. The Lambda*omega scaling puts both blocks in force units. F is on
    the unreduced rod-span pattern, anchors included, so the anchored rows of
    [F | Q] give reactions. Returns (that pattern, B); with no resonant rod B
    is D.
    """
    full = _pattern(truss, reduce_anchors=False, span=True)
    taus, lams = _rod_constants(truss)
    coefficients = _spectral_coefficients(taus, lams, np.array([float(omega)]))
    hit = np.array([i for i, rod in enumerate(truss.rods) if rod.id in resonant], dtype=int)
    orders = np.array([resonant[truss.rods[i].id] for i in hit], dtype=float)
    offset = omega * taus[hit] - orders * math.pi  # sin x = sigma * sin(offset)
    lam_omega = lams[hit] * omega
    coefficients[hit, 0] = -lam_omega * np.tan(offset / 2.0)
    coefficients[len(truss.rods) + hit, 0] = 0.0

    border = np.zeros((full.size, hit.size))
    for col, i in enumerate(hit):
        rod = truss.rods[i]
        e = truss.rod_properties(rod).unit_vector
        for jid, sign in zip(rod.joints, (1.0, -((-1.0) ** orders[col]))):
            frame = full.frames[jid]
            start = full.index_map[jid]
            border[start : start + frame.shape[1], col] = sign * lam_omega[col] * (e @ frame)
    matrix = _assemble(full, coefficients)[0]
    if hit.size:
        matrix = np.block([[matrix, border], [border.T, np.diag(-lam_omega * np.sin(offset))]])
    return full, matrix


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


def _null_modes(truss: Truss, omega: float, resonant: dict, cutoff: float):
    """Modes at omega from the null space of the bordered D on the free joints, via SVD.

    The matrix is B (_bordered) without the anchored rows and columns;
    singular vectors at or below cutoff * s_max span its null space, each a
    displacement u and border amplitudes xi with F u + Q xi = 0. With a border,
    the null space also holds rod-interior modes (u = 0: Q xi = 0); the
    joint-moving modes are the left singular vectors of its u-block with
    singular value > 0.5, carried with their xi. With no border this is the
    SVD of the swept D itself. Anchor forces are the anchored rows of [F | Q]
    times (u, xi). Raises NotARootError when nothing is below the cutoff.
    """
    full, bordered = _bordered(truss, omega, resonant)
    free = _pattern(truss, reduce_anchors=True, span=True)
    kept = np.concatenate([free.embedding, np.arange(full.size, len(bordered))])
    _, svals, vt = np.linalg.svd(bordered[np.ix_(kept, kept)])
    smax = svals[0] if svals.size else 0.0
    selected = np.nonzero(svals <= cutoff * smax)[0]
    if selected.size == 0:
        raise NotARootError(omega, float(svals[-1] / smax) if smax else 0.0)

    null = vt[selected]
    if resonant:
        _, s, right = np.linalg.svd(null[:, : free.size].T, full_matrices=False)
        moving = s > 0.5
        null = (right[moving] / s[moving, None]) @ null
    kind, order = ("resonant", min(resonant.values())) if resonant else ("regular", None)
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
    return modes


def extract_modes(truss: Truss, omega_star: float):
    """Null-space mode shapes of the anchored structure's D(omega*), via SVD.

    One unreduced D(omega*), in rod-span frames (the identity at anchors),
    serves both the null space (its free block, the matrix the sweep solves)
    and the anchor forces (its anchored rows). Shapes are in joint coordinates.
    """
    if not (omega_star > 0.0):
        raise ValueError(f"omega must be > 0, got {omega_star}")
    check_pole_guard(truss, omega_star)
    return _null_modes(truss, omega_star, {}, MODE_TOL)


def resonant_mode_check(truss: Truss, omega_pole: float, resonant_rods, n_values):
    """Joint-moving natural modes at a rod resonance, or an empty list when none exists.

    They are the null space of D bordered at the resonant rods (_bordered):
    each mode's displacements meet the end-motion constraint
    (-1)^n e^T u_a - e^T u_b = 0 of every resonant rod, and the border
    absorbs the forces of the rest. The motions are those of the rod-span
    frames, as in the sweep.
    """
    # a pole's omega is exact, so its null singular values are round-off
    # (~1e-16 s_max); extract_modes' MODE_TOL allows for a polished root,
    # known only to the sweep's tolerance, and at a pole it would also take
    # in regular roots just beside it
    try:
        return _null_modes(truss, omega_pole, dict(zip(resonant_rods, n_values)), 1e-13)
    except NotARootError:
        return []


def anchor_forces(truss: Truss, mode: ModeResult) -> dict:
    """Reaction forces at anchored joints for a mode, at the mode's scale.

    Works for any free-joint displacement state at a regular frequency -- a
    forced-response result wrapped in a ModeResult recovers its reactions the
    same way, via the anchored rows of the unreduced matrix.
    """
    if mode.displacements is None:
        raise ValueError("mode carries no displacements; extract modes first")
    if mode.kind == "resonant":
        return {} if mode.anchor_forces is None else dict(mode.anchor_forces)
    if not truss.anchored_joints:
        return {}
    full = assemble_laplacian(truss, mode.omega, reduce_anchors=False)
    dim = truss.dimension
    vec = np.zeros(full.entries.shape[0])
    for jid, u in mode.displacements.items():
        vec[full.index_map[jid] : full.index_map[jid] + dim] = u
    return _anchor_rows(truss, full.index_map, full.entries @ vec)
