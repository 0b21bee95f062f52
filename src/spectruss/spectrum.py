"""Pole-aware natural-frequency sweep, mode extraction and the rod-resonance path.

Away from rod resonances the natural frequencies are the roots of det(D(omega))
between consecutive poles, located by the Wittrick-Williams count: the number
of negative eigenvalues of D rises by one at each of them. At a pole
omega*tau = n*pi the matrix entries diverge and finite joint forces require

    (-1)^n e^T u_a + e_ba^T u_b = 0

per resonant rod; candidate motions from that constraint are kept when the
diverging rod terms (resolved by L'Hopital into a linear operator on the
frequency derivative of the motion) can absorb the forces the remaining rods
apply. Feasible candidates are resonant natural modes.
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

# Relative singular-value cutoff for null-space membership in mode extraction.
MODE_TOL = 1e-7
FEAS_TOL = 1e-8  # relative residual cutoff for resonant feasibility
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


def _unit_mode(truss: Truss, pattern, vec: np.ndarray) -> tuple:
    """vec at unit norm and its lifted joint displacements; first clear coordinate > 0."""
    vec = vec / np.linalg.norm(vec)
    joint = pattern.lift @ vec
    if next((x < 0 for x in joint if abs(x) > 1e-8), False):
        vec, joint = -vec, -joint
    return vec, dict(zip(pattern.index_map, joint.reshape(-1, truss.dimension)))


def _anchor_rows(truss: Truss, index_map, forces):
    """Force vectors at anchored joints, read off the unreduced system's forces."""
    dim = truss.dimension
    return {
        j.id: forces[index_map[j.id] : index_map[j.id] + dim].copy() for j in truss.anchored_joints
    }


def extract_modes(truss: Truss, omega_star: float):
    """Null-space mode shapes of the anchored structure's D(omega*), via SVD.

    One unreduced D(omega*), in rod-span frames (the identity at anchors),
    serves both the null space (its free block, the matrix the sweep solves)
    and the anchor forces (its anchored rows). Shapes are in joint coordinates.
    """
    if not (omega_star > 0.0):
        raise ValueError(f"omega must be > 0, got {omega_star}")
    check_pole_guard(truss, omega_star)
    full = _pattern(truss, reduce_anchors=False, span=True)
    free = _pattern(truss, reduce_anchors=True, span=True)
    d = laplacian_evaluator(truss, full)(np.array([omega_star]))[0]
    _, svals, vt = np.linalg.svd(d[np.ix_(free.embedding, free.embedding)])
    smax = svals[0] if svals.size else 0.0
    selected = np.nonzero(svals <= MODE_TOL * smax)[0]
    if selected.size == 0:
        raise NotARootError(omega_star, float(svals[-1] / smax) if smax else 0.0)

    modes = []
    for i in selected:
        vec, displacements = _unit_mode(truss, free, vt[i])
        modes.append(
            ModeResult(
                omega=omega_star,
                kind="regular",
                displacements=displacements,
                anchor_forces=_anchor_rows(truss, full.index_map, d[:, free.embedding] @ vec),
            )
        )
    return modes


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


# -- rod resonance path --------------------------------------------------------


def _resonant_operators(truss: Truss, omega_pole: float, resonant: dict, full, free):
    """Constraint matrix plus force operators split into resonant/non-resonant rods.

    `full` and `free` are the unreduced and anchor-reduced patterns, in the
    same frames. Returns (constraint, finite_op, limit_op). finite_op is the
    unreduced D(omega) restricted to non-resonant rods, with free-joint
    columns; limit_op maps frequency-derivative parameters at free joints to
    forces via the per-rod factor Lambda*omega/tau, with coupling -(-1)^n.
    """
    taus, lams = _rod_constants(truss)

    hit = np.array([rod.id in resonant for rod in truss.rods])
    odd = np.array([resonant.get(rod.id, 0) % 2 == 1 for rod in truss.rods])
    finite = _spectral_coefficients(taus, lams, np.array([float(omega_pole)]))[:, 0]
    finite[np.tile(hit, 2)] = 0.0
    coeff = np.where(hit, lams * omega_pole / taus, 0.0)
    limit = np.concatenate([coeff, np.where(odd, coeff, -coeff)])
    finite_op, limit_op = _assemble(full, np.column_stack([finite, limit]))

    rods = [rod for rod in truss.rods if rod.id in resonant]
    constraint = np.zeros((len(rods), free.size))
    for row, rod in zip(constraint, rods):
        e = truss.rod_properties(rod).unit_vector
        for jid, sign in zip(rod.joints, ((-1.0) ** resonant[rod.id], -1.0)):
            if jid in free.index_map:
                frame = free.frames[jid]
                offset = free.index_map[jid]
                row[offset : offset + frame.shape[1]] = sign * (e @ frame)
    cols = free.embedding
    return constraint, finite_op[:, cols], limit_op[:, cols]


@dataclass
class ResonantConstraintSystem:
    constraint_matrix: np.ndarray  # one row per resonant rod, free-joint columns
    nonresonant_force_operator: np.ndarray  # free displacements -> joint forces
    limit_force_operator: np.ndarray  # frequency-derivative params -> joint forces


def resonant_constraint_system(
    truss: Truss, omega_pole: float, resonant_rods, n_values
) -> ResonantConstraintSystem:
    resonant = dict(zip(resonant_rods, n_values))
    patterns = _pattern(truss, reduce_anchors=False), _pattern(truss, reduce_anchors=True)
    return ResonantConstraintSystem(*_resonant_operators(truss, omega_pole, resonant, *patterns))


def _null_basis(matrix: np.ndarray, rtol: float):
    if matrix.shape[0] == 0:
        return np.eye(matrix.shape[1])
    _, svals, vt = np.linalg.svd(matrix, full_matrices=True)
    smax = svals[0] if svals.size else 0.0
    keep = np.sum(svals > rtol * smax) if smax > 0 else 0
    return vt[keep:].T


def resonant_mode_check(truss: Truss, omega_pole: float, resonant_rods, n_values):
    """Natural modes at a rod resonance, or an empty list when none exists.

    Candidates are the null space of the per-rod end-motion constraints;
    a candidate survives when the forces contributed by the non-resonant rods
    lie in the range of the resonant rods' L'Hopital limit operator, i.e. the
    least-squares residual is ~zero relative to the forcing. The motions are
    those of the rod-span frames, as in the sweep.
    """
    resonant = dict(zip(resonant_rods, n_values))
    full = _pattern(truss, reduce_anchors=False, span=True)
    free = _pattern(truss, reduce_anchors=True, span=True)
    constraint, finite, limit = _resonant_operators(truss, omega_pole, resonant, full, free)
    if free.size == 0:
        return []

    candidates = _null_basis(constraint, 1e-10)
    if candidates.shape[1] == 0:
        return []

    finite_free = finite[free.embedding]
    limit_free = limit[free.embedding]

    forced = finite_free @ candidates  # forces each candidate needs absorbed
    u_l, s_l, _ = np.linalg.svd(limit_free, full_matrices=False)
    rank = int(np.sum(s_l > 1e-10 * s_l[0])) if s_l.size and s_l[0] > 0 else 0
    residual_op = forced - u_l[:, :rank] @ (u_l[:, :rank].T @ forced)

    scale = np.linalg.norm(forced) + np.linalg.norm(limit_free)
    _, s_m, vt_m = np.linalg.svd(residual_op, full_matrices=True)
    smax = s_m[0] if s_m.size else 0.0
    cutoff = max(FEAS_TOL * smax, 1e-13 * scale)
    keep = np.sum(s_m > cutoff) if smax > 0 else 0
    coeffs = vt_m[keep:].T
    if coeffs.shape[1] == 0:
        return []

    modes = []
    order = min(n_values) if n_values else None
    for c in coeffs.T:
        vec = candidates @ c
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            continue
        vec, displacements = _unit_mode(truss, free, vec)
        rhs = -(finite_free @ vec)
        xi, *_ = np.linalg.lstsq(limit_free, rhs, rcond=1e-10)
        # relative residual test, with an absolute floor for rhs that is pure
        # round-off of the zero vector (the trivially feasible case)
        residual = np.linalg.norm(limit_free @ xi - rhs)
        if residual > FEAS_TOL * np.linalg.norm(rhs) + 1e-12 * scale:
            continue
        modes.append(
            ModeResult(
                omega=omega_pole,
                kind="resonant",
                displacements=displacements,
                anchor_forces=_anchor_rows(truss, full.index_map, finite @ vec + limit @ xi),
                resonant_order=order,
            )
        )
    return modes
