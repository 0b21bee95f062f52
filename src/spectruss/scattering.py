"""Joint transmission matrices, the wave-amplitude matching baseline, and an
event-driven simulator for step stress fronts.

At a joint the outgoing wave amplitudes follow from the incoming ones via

    T = 2 e^T (e L e^T)^{-1} e L - I

with e the matrix of outgoing rod directions and L the diagonal of line
impedances. T is an involution; when the rods exactly span the ambient
dimension it collapses to the identity and the joint is purely reflective.

The global matching system couples one forward amplitude per rod end through
the per-rod phase factors exp(-i w tau); its singular frequencies coincide with
the zeros of det(D) but over twice as many unknowns.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import _roots
from .model import Truss
from .spectrum import FrequencyWindow

TOWARD_END = "toward_end"  # toward the rod's second endpoint
TOWARD_START = "toward_start"

# a refined |det| minimum counts as a zero when the matrix is this singular
_ZERO_SV_RATIO = 1e-8


class DegenerateJointError(Exception):
    """The rods at a joint do not span the ambient dimension."""

    def __init__(self, joint_id):
        self.joint_id = joint_id
        super().__init__(f"rods at joint '{joint_id}' do not span the ambient dimension")


class EventExplosionError(Exception):
    """Live wavefront count exceeded the cap; raise min_amplitude."""


@dataclass
class TransmissionMatrix:
    joint: str
    entries: np.ndarray  # |N| x |N|, velocity-amplitude map incoming -> outgoing
    column_order: tuple  # neighbor joint ids defining the rod ordering
    force_coupling: np.ndarray  # e^T (e Lambda e^T)^{-1}, |N| x dim


def transmission_matrix(truss: Truss, joint_id: str) -> TransmissionMatrix:
    edges = truss.neighbors(joint_id)
    dim = truss.dimension
    e_cols = []
    lams = []
    for other, rod in edges:
        props = truss.rod_properties(rod)
        e = props.unit_vector if rod.joints[0] == joint_id else -props.unit_vector
        e_cols.append(e)
        lams.append(props.line_impedance)
    e_mat = np.array(e_cols).T  # dim x |N|
    lam = np.diag(lams)
    gram = e_mat @ lam @ e_mat.T
    if e_mat.shape[1] < dim or np.linalg.matrix_rank(gram, tol=1e-12 * np.trace(gram)) < dim:
        raise DegenerateJointError(joint_id)
    coupling = e_mat.T @ np.linalg.inv(gram)
    entries = 2.0 * coupling @ e_mat @ lam - np.eye(len(edges))
    return TransmissionMatrix(
        joint=joint_id,
        entries=entries,
        column_order=tuple(other for other, _ in edges),
        force_coupling=coupling,
    )


def scatter(tm: TransmissionMatrix, incoming, force=None, omega=None):
    """Outgoing amplitudes T * incoming (+ force injection at frequency omega)."""
    incoming = np.asarray(incoming)
    if incoming.shape != (tm.entries.shape[0],):
        raise ValueError(
            f"expected {tm.entries.shape[0]} incoming amplitudes, got {incoming.shape}"
        )
    out = tm.entries @ incoming
    if force is not None:
        if omega is None or omega == 0.0:
            raise ValueError("force injection requires a nonzero omega")
        out = out + tm.force_coupling @ np.asarray(force) / (1j * omega)
    return out


# -- global amplitude-matching system ------------------------------------------


def _matching_layout(truss: Truss):
    """Directed-edge index and per-joint scattering data for the global system."""
    edge_index = {}
    for i, rod in enumerate(truss.rods):
        a, b = rod.joints
        edge_index[(a, b)] = 2 * i
        edge_index[(b, a)] = 2 * i + 1
    joints = []
    for joint in truss.joints:
        edges = truss.neighbors(joint.id)
        tm = None if joint.anchored else transmission_matrix(truss, joint.id)
        joints.append((joint, edges, tm))
    return edge_index, joints


def matching_evaluator(truss: Truss):
    """Reusable batched builder of the complex matching system.

    Rows: for each directed rod end (a, b), the outgoing amplitude F_ab minus
    the scattered incoming amplitudes; incoming waves are the index-exchanged
    opposite-end amplitudes delayed by exp(-i w tau). Anchored joints pin the
    joint velocity to zero, so each incident rod reflects with F = -B.
    """
    edge_index, joints = _matching_layout(truss)
    size = 2 * len(truss.rods)
    entries = []  # (row, col, coefficient, tau) of every phase-carrying term
    for joint, edges, tm in joints:
        for row_pos, (other, rod) in enumerate(edges):
            row = edge_index[(joint.id, other)]
            for col_pos, (other2, rod2) in enumerate(edges):
                if tm is None:
                    coeff = -1.0 if col_pos == row_pos else 0.0
                else:
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
        np.add.at(out, (slice(None), rows, cols), terms)
        return out

    return build


def matching_matrix_batch(truss: Truss, omegas) -> np.ndarray:
    """Stacked complex matching system over a frequency grid."""
    return matching_evaluator(truss)(omegas)


def reverberation_determinant(truss: Truss, omega: float) -> float:
    """|det| of the global amplitude-matching system at one frequency."""
    matrix = matching_matrix_batch(truss, np.array([omega]))[0]
    sign, logabs = np.linalg.slogdet(matrix)
    return float(abs(sign) * np.exp(logabs))


def reverberation_dof(truss: Truss) -> int:
    """Real degrees of freedom of the matching system (2 per complex unknown)."""
    return 4 * len(truss.rods)


def reverberation_frequencies(truss: Truss, window: FrequencyWindow, threads: int = 1):
    """Frequencies where the matching system is singular, refined from |det| minima."""
    build = matching_evaluator(truss)
    size = 2 * len(truss.rods)
    sign_logdet = _roots.chunked(lambda xs: np.linalg.slogdet(build(xs)), 16 * size * size)

    def logdet(omegas):
        return sign_logdet(omegas)[1]

    lo, hi = window.omega_min, window.omega_max
    minima = _roots.modulus_minima(
        logdet, lo, hi, window.points(lo, hi, truss.tau_min), window.tol_at, threads=threads
    )
    roots = []
    for x, _ in minima:
        svals = np.linalg.svd(build(np.array([x]))[0], compute_uv=False)
        if svals[-1] <= _ZERO_SV_RATIO * svals[0]:
            roots.append(x)
    return _roots.dedupe_sorted(sorted(roots), window.tol_at)


# -- event-driven wavefront simulator -------------------------------------------


@dataclass(frozen=True)
class Impulse:
    rod: str
    direction: str  # TOWARD_END or TOWARD_START
    stress_amplitude: float  # signed step, tensile > 0
    start_time: float = 0.0


@dataclass(frozen=True)
class Wavefront:
    rod: str
    direction: str
    position: float  # m along the rod, measured from its first endpoint
    event_time: float
    stress_amplitude: float


@dataclass(frozen=True)
class ScatterEvent:
    time: float
    joint: str
    incoming: tuple  # (rod id, stress amplitude) pairs
    outgoing: tuple


@dataclass
class _Front:
    rod_idx: int
    sign: int  # +1 toward the rod's second endpoint
    v_jump: float  # velocity step in the rod's canonical frame
    t0: float
    z0: float
    t_arrive: float


def _stress(front: _Front, truss: Truss) -> float:
    gamma = truss.rod_properties(truss.rods[front.rod_idx]).impedance
    return -front.sign * gamma * front.v_jump


@dataclass
class WavefrontSimulation:
    truss: Truss
    t_max: float
    events: list
    _history: list = field(default_factory=list)

    def active_fronts(self, t: float):
        """Fronts still travelling at time t, as public Wavefront records."""
        out = []
        for f in self._history:
            if f.t0 <= t < f.t_arrive:
                rod = self.truss.rods[f.rod_idx]
                c = self.truss.rod_properties(rod).wave_speed
                out.append(
                    Wavefront(
                        rod=rod.id,
                        direction=TOWARD_END if f.sign > 0 else TOWARD_START,
                        position=f.z0 + f.sign * c * (t - f.t0),
                        event_time=t,
                        stress_amplitude=_stress(f, self.truss),
                    )
                )
        return out

    def stress_profile(self, t: float):
        """Piecewise-constant stress per rod at time t: (z_lo, z_hi, sigma) spans."""
        if t > self.t_max:
            raise ValueError(f"snapshot time {t} exceeds simulated horizon {self.t_max}")
        per_rod = {rod.id: [] for rod in self.truss.rods}
        for f in self._history:
            if f.t0 > t:
                continue
            rod = self.truss.rods[f.rod_idx]
            length = self.truss.rod_properties(rod).length
            c = self.truss.rod_properties(rod).wave_speed
            travelled = c * (min(t, f.t_arrive) - f.t0)
            if f.sign > 0:
                lo, hi = f.z0, min(length, f.z0 + travelled)
            else:
                lo, hi = max(0.0, f.z0 - travelled), f.z0
            if hi > lo:
                per_rod[rod.id].append((lo, hi, _stress(f, self.truss)))
        profiles = {}
        for rod in self.truss.rods:
            length = self.truss.rod_properties(rod).length
            spans = per_rod[rod.id]
            breaks = sorted({0.0, length, *(s[0] for s in spans), *(s[1] for s in spans)})
            segments = []
            for z0, z1 in zip(breaks[:-1], breaks[1:]):
                mid = 0.5 * (z0 + z1)
                sigma = sum(s[2] for s in spans if s[0] <= mid < s[1])
                segments.append((z0, z1, sigma))
            profiles[rod.id] = segments
        return profiles


def simulate_wavefronts(
    truss: Truss,
    impulses,
    t_max: float,
    min_amplitude: float = 0.0,
    front_cap: int = 1_000_000,
) -> WavefrontSimulation:
    """Propagate step stress fronts through the structure up to t_max.

    Fronts travel at their rod's wave speed; on arrival at a joint the incoming
    velocity steps scatter through the joint's transmission matrix (anchored
    joints reflect with inverted velocity). Children whose |stress| falls below
    min_amplitude are dropped. Simultaneous arrivals at one joint merge into a
    single scattering event.
    """
    if t_max < 0.0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    rod_index = {rod.id: i for i, rod in enumerate(truss.rods)}
    joint_data = {}
    for joint in truss.joints:
        edges = truss.neighbors(joint.id)
        tm = None if joint.anchored else transmission_matrix(truss, joint.id)
        joint_data[joint.id] = (edges, tm)

    time_tol = 1e-12 * truss.tau_min
    heap = []
    counter = 0
    history = []
    events = []

    def schedule(front: _Front):
        nonlocal counter
        history.append(front)
        rod = truss.rods[front.rod_idx]
        target = rod.joints[1] if front.sign > 0 else rod.joints[0]
        if front.t_arrive <= t_max + time_tol:
            heapq.heappush(heap, (front.t_arrive, target, rod.id, counter, front))
            counter += 1
        if len(heap) > front_cap:
            raise EventExplosionError(
                f"more than {front_cap} live fronts; min_amplitude={min_amplitude} is too small"
            )

    for imp in impulses:
        if imp.rod not in rod_index:
            raise ValueError(f"impulse references unknown rod '{imp.rod}'")
        if imp.direction not in (TOWARD_END, TOWARD_START):
            raise ValueError(f"impulse direction must be toward_end/toward_start, got {imp.direction!r}")
        idx = rod_index[imp.rod]
        props = truss.rod_properties(truss.rods[idx])
        sign = 1 if imp.direction == TOWARD_END else -1
        v_jump = -sign * imp.stress_amplitude / props.impedance
        z0 = 0.0 if sign > 0 else props.length
        schedule(
            _Front(
                rod_idx=idx,
                sign=sign,
                v_jump=v_jump,
                t0=imp.start_time,
                z0=z0,
                t_arrive=imp.start_time + props.transit_time,
            )
        )

    while heap:
        t0 = heap[0][0]
        if t0 > t_max + time_tol:
            break
        # everything within the merge tolerance scatters now, grouped per joint
        groups = {}
        while heap and heap[0][0] - t0 <= time_tol:
            _, joint_id, _, _, front = heapq.heappop(heap)
            groups.setdefault(joint_id, []).append(front)

        for joint_id in sorted(groups):
            batch = groups[joint_id]
            t_event = min(f.t_arrive for f in batch)
            edges, tm = joint_data[joint_id]
            order = {other: k for k, (other, _) in enumerate(edges)}
            incoming = np.zeros(len(edges))
            incoming_stress = {}
            for f in batch:
                rod = truss.rods[f.rod_idx]
                other = rod.joints[0] if rod.joints[1] == joint_id else rod.joints[1]
                joint_frame = f.v_jump if rod.joints[0] == joint_id else -f.v_jump
                incoming[order[other]] += joint_frame
                incoming_stress[rod.id] = incoming_stress.get(rod.id, 0.0) + _stress(f, truss)

            outgoing = -incoming if tm is None else tm.entries @ incoming
            # children at round-off of the incoming amplitude are not real fronts
            noise_floor = 1e-14 * max(abs(s) for s in incoming_stress.values())

            out_log = []
            for (other, rod), v_joint in zip(edges, outgoing):
                props = truss.rod_properties(rod)
                sigma = -props.impedance * v_joint  # outgoing wave leaves the joint
                if abs(sigma) <= noise_floor or abs(sigma) < min_amplitude:
                    continue
                leaves_start = rod.joints[0] == joint_id
                front = _Front(
                    rod_idx=rod_index[rod.id],
                    sign=1 if leaves_start else -1,
                    v_jump=v_joint if leaves_start else -v_joint,
                    t0=t_event,
                    z0=0.0 if leaves_start else props.length,
                    t_arrive=t_event + props.transit_time,
                )
                schedule(front)
                out_log.append((rod.id, sigma))

            events.append(
                ScatterEvent(
                    time=t_event,
                    joint=joint_id,
                    incoming=tuple(sorted(incoming_stress.items())),
                    outgoing=tuple(out_log),
                )
            )

    return WavefrontSimulation(truss=truss, t_max=t_max, events=events, _history=history)
