"""Joint transmission matrices, the wave-amplitude matching baseline, and an
event-driven simulator for step stress fronts.

At a joint the outgoing wave amplitudes follow from the incoming ones via

    T = 2 e_S^T G^{-1} e_S L - I,    e_S = F^T e,    G = e_S L e_S^T

with e the matrix of outgoing rod directions, L the diagonal of line
impedances and F the frame of the directions the joint moves in: the sweeps'
rod-span frame (assembly._span_frames) at a free joint, none at an anchor,
where T = -I. T is a Lambda-reflection (Kottos & Smilansky, Ann. Phys. 274
(1999) 76-124); when the rods are a basis of F it is the identity, a purely
reflective joint. It is formed as T = L^{-1/2} (2 Q Q^T - I) L^{1/2}, with
L^{1/2} e_S^T = QR and no G^{-1}, so T^2 = I to round-off however nearly
parallel the rods. A force couples through F too, by e_S^T G^{-1} F^T =
L^{-1/2} Q R^{-T} F^T; its part outside F does not.

The global matching system couples one forward amplitude per rod end through
the per-rod phase factors exp(-i w tau); its singular frequencies coincide with
the zeros of det(D) but over twice as many unknowns.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _roots
from .assembly import _span_frames
from .model import Truss
from .spectrum import FrequencyWindow

TOWARD_END = "toward_end"  # toward the rod's second endpoint
TOWARD_START = "toward_start"


class EventExplosionError(Exception):
    """Live wavefront count exceeded the cap; raise min_amplitude."""


@dataclass
class TransmissionMatrix:
    joint: str
    entries: np.ndarray  # |N| x |N|, velocity-amplitude map incoming -> outgoing
    column_order: tuple  # neighbor joint ids defining the rod ordering
    force_coupling: np.ndarray  # e_S^T G^{-1} F^T, |N| x dim: a force outside F does not couple


def transmission_matrix(truss: Truss, joint_id: str) -> TransmissionMatrix:
    """T and the force coupling of one joint, in its frame F (see the module docstring)."""
    edges = truss.neighbors(joint_id)
    dim = truss.dimension
    props = [truss.rod_properties(rod) for _, rod in edges]
    e_mat = np.array([p.unit_vector if rod.joints[0] == joint_id else -p.unit_vector
                      for p, (_, rod) in zip(props, edges)]).reshape(-1, dim).T  # dim x |N|
    root = np.sqrt([p.line_impedance for p in props])  # Lambda^(1/2)
    anchored = truss.joint(joint_id).anchored
    frame = np.zeros((dim, 0)) if anchored else _span_frames(truss)[0][truss._joint_index[joint_id]]
    q, r = np.linalg.qr(root[:, None] * (frame.T @ e_mat).T)
    return TransmissionMatrix(
        joint=joint_id,
        entries=(2.0 * q @ q.T - np.eye(len(edges))) * root[None, :] / root[:, None],
        column_order=tuple(other for other, _ in edges),
        force_coupling=(q / root[:, None]) @ np.linalg.solve(r.T, frame.T),
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


def matching_evaluator(truss: Truss):
    """Reusable batched builder of the complex matching system.

    Rows: for each directed rod end (a, b), the outgoing amplitude F_ab minus
    the scattered incoming amplitudes; incoming waves are the index-exchanged
    opposite-end amplitudes delayed by exp(-i w tau). An anchor's T is -I, so
    each incident rod reflects with F = -B.
    """
    edge_index = {}  # directed rod end (a, b) -> unknown
    for i, rod in enumerate(truss.rods):
        a, b = rod.joints
        edge_index[(a, b)] = 2 * i
        edge_index[(b, a)] = 2 * i + 1
    size = 2 * len(truss.rods)
    entries = []  # (row, col, coefficient, tau) of every phase-carrying term
    for joint in truss.joints:
        edges = truss.neighbors(joint.id)
        tm = transmission_matrix(truss, joint.id)
        for row_pos, (other, rod) in enumerate(edges):
            row = edge_index[(joint.id, other)]
            for col_pos, (other2, rod2) in enumerate(edges):
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
        out[:, rows, cols] = terms  # every (row, col) is distinct and off the diagonal
        return out

    return build


def reverberation_determinant(truss: Truss, omega: float) -> float:
    """|det| of the global amplitude-matching system at one frequency."""
    matrix = matching_evaluator(truss)([omega])[0]
    sign, logabs = np.linalg.slogdet(matrix)
    return float(abs(sign) * np.exp(logabs))


def reverberation_dof(truss: Truss) -> int:
    """Real degrees of freedom of the matching system (2 per complex unknown)."""
    return 4 * len(truss.rods)


def _matching_eval(truss: Truss):
    """_roots.unitary_determinant's (func, count) of the matching system I - V(omega).

    V(omega) = V(0) diag(exp(-i omega tau_k)) is unitary up to the impedance
    scaling, each joint's T being a Lambda-reflection; nothing comes from D.
    """
    delay = 2.0 * sum(truss.rod_properties(rod).transit_time for rod in truss.rods)
    point_bytes = 16 * (2 * len(truss.rods)) ** 2
    return _roots.unitary_determinant(matching_evaluator(truss), point_bytes, delay)


def reverberation_frequencies(truss: Truss, window: FrequencyWindow, threads: int = 1):
    """Frequencies where the matching system is singular: one counting sweep of _matching_eval."""
    func, count = _matching_eval(truss)
    return _roots.window_roots(func, count, window, threads=threads)


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


class ScatterEvent(NamedTuple):
    """One scattering at a joint: the fronts that arrived at time and those it launched.

    A NamedTuple, as a pass makes tens of thousands and a tuple builds faster
    than a frozen dataclass; it stays tracked by the garbage collector all
    the same, as a subclass of tuple.
    """

    time: float
    joint: str
    incoming: tuple  # (rod id, stress amplitude) pairs
    outgoing: tuple


@dataclass(frozen=True)
class _FrontColumns:
    """Every front the simulator launched, in launch order, one array per field.

    rod: rod index; sign: +1 toward the rod's second endpoint, -1 toward its
    first; stress: the signed step it carries; t0, z0: launch time and
    position along the rod; t_arrive: when it reaches the rod's far end.
    """

    rod: np.ndarray
    sign: np.ndarray
    stress: np.ndarray
    t0: np.ndarray
    z0: np.ndarray
    t_arrive: np.ndarray

    def __len__(self) -> int:
        return self.rod.size


_COVER_BLOCK = 1 << 20  # span-by-point entries built at once


def _covering_sums(points, lo, hi, stress):
    """At each point, the sum of the stress of the spans [lo, hi) that cover it.

    A running total from 0.0 over the spans in their given order, so each sum
    is the float that adding its covering spans one by one gives; a point no
    span covers reads 0.0. Built a block of points at a time to bound memory.
    """
    sums = np.empty(points.size)
    rows = max(1, _COVER_BLOCK // (lo.size + 1))
    for start in range(0, points.size, rows):
        at = points[start:start + rows, None]
        terms = np.zeros((at.shape[0], lo.size + 1))
        terms[:, 1:] = np.where((lo <= at) & (at < hi), stress, 0.0)
        sums[start:start + rows] = terms.cumsum(axis=1)[:, -1]
    return sums


class _Port(NamedTuple):
    """One way out of a joint: a rod, seen from the joint a front leaves."""

    rod: int  # rod index
    rod_id: str
    sign: int  # +1 when the rod starts here, so the front heads to its second endpoint
    impedance: float
    z0: float  # launch position along the rod
    transit: float
    far_joint: str
    far_slot: int  # the rod's position among the far joint's neighbors


def _rod_column(truss: Truss, name: str) -> np.ndarray:
    return np.array([getattr(truss.rod_properties(rod), name) for rod in truss.rods])


@dataclass
class WavefrontSimulation:
    truss: Truss
    t_max: float
    events: list
    _history: _FrontColumns

    def active_fronts(self, t: float):
        """Fronts still travelling at time t, as public Wavefront records."""
        h = self._history
        live = (h.t0 <= t) & (t < h.t_arrive)
        rod, sign = h.rod[live], h.sign[live]
        position = h.z0[live] + sign * _rod_column(self.truss, "wave_speed")[rod] * (t - h.t0[live])
        return [
            Wavefront(
                rod=self.truss.rods[r].id,
                direction=TOWARD_END if s > 0 else TOWARD_START,
                position=z,
                event_time=t,
                stress_amplitude=sigma,
            )
            for r, s, z, sigma in zip(
                rod.tolist(), sign.tolist(), position.tolist(), h.stress[live].tolist()
            )
        ]

    def stress_profile(self, t: float):
        """Piecewise-constant stress per rod at time t: (z_lo, z_hi, sigma) spans."""
        if t > self.t_max:
            raise ValueError(f"snapshot time {t} exceeds simulated horizon {self.t_max}")
        h = self._history
        length = _rod_column(self.truss, "length")
        launched = h.t0 <= t
        rod, sign, z0 = h.rod[launched], h.sign[launched], h.z0[launched]
        travelled = _rod_column(self.truss, "wave_speed")[rod] * (
            np.minimum(t, h.t_arrive[launched]) - h.t0[launched]
        )
        forward = sign > 0
        lo = np.where(forward, z0, np.maximum(0.0, z0 - travelled))
        hi = np.where(forward, np.minimum(length[rod], z0 + travelled), z0)
        span = np.flatnonzero(hi > lo)
        span = span[np.argsort(rod[span], kind="stable")]
        rod, lo, hi, stress = rod[span], lo[span], hi[span], h.stress[launched][span]
        bounds = np.searchsorted(rod, np.arange(len(self.truss.rods) + 1))
        profiles = {}
        for k, rod_id in enumerate(r.id for r in self.truss.rods):
            cut = slice(bounds[k], bounds[k + 1])
            breaks = np.unique(np.concatenate(([0.0, length[k]], lo[cut], hi[cut])))
            sigma = _covering_sums(0.5 * (breaks[:-1] + breaks[1:]), lo[cut], hi[cut], stress[cut])
            profiles[rod_id] = list(zip(breaks[:-1].tolist(), breaks[1:].tolist(), sigma.tolist()))
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
    velocity steps scatter through the joint's transmission matrix (-I at an
    anchor, which inverts the velocity). Children whose |stress| falls below
    min_amplitude are dropped. Simultaneous arrivals at one joint merge into a
    single scattering event.
    """
    if t_max < 0.0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    rod_index = {rod.id: i for i, rod in enumerate(truss.rods)}
    slot = {
        (joint.id, rod.id): k
        for joint in truss.joints
        for k, (_, rod) in enumerate(truss.neighbors(joint.id))
    }
    # per joint: its transmission matrix and its ports in neighbor order
    joint_data = {}
    for joint in truss.joints:
        ports = []
        for other, rod in truss.neighbors(joint.id):
            props = truss.rod_properties(rod)
            sign = 1 if rod.joints[0] == joint.id else -1
            ports.append(_Port(rod_index[rod.id], rod.id, sign, props.impedance,
                               0.0 if sign > 0 else props.length, props.transit_time,
                               other, slot[other, rod.id]))
        joint_data[joint.id] = (transmission_matrix(truss, joint.id), ports)

    time_tol = 1e-12 * truss.tau_min
    horizon = t_max + time_tol
    # heap entries: (t_arrive, far joint, rod id, front index, slot at the far
    # joint, velocity step in the far joint's frame, stress step)
    heap = []
    rod_col, sign_col = array("q"), array("b")
    stress_col, t0_col, z0_col, arrive_col = (array("d") for _ in range(4))
    events = []

    def launch(port, v_far, stress, t0):
        """Record a front leaving by port at t0; queue its arrival if that is within t_max."""
        rod, rod_id, sign, _, z0, transit, far_joint, far_slot = port
        t_arrive = t0 + transit
        rod_col.append(rod)
        sign_col.append(sign)
        stress_col.append(stress)
        t0_col.append(t0)
        z0_col.append(z0)
        arrive_col.append(t_arrive)
        if t_arrive <= horizon:
            entry = (t_arrive, far_joint, rod_id, len(t0_col), far_slot, v_far, stress)
            heapq.heappush(heap, entry)
            if len(heap) > front_cap:
                raise EventExplosionError(
                    f"more than {front_cap} live fronts; min_amplitude={min_amplitude} is too small"
                )

    for imp in impulses:
        if imp.rod not in rod_index:
            raise ValueError(f"impulse references unknown rod '{imp.rod}'")
        if imp.direction not in (TOWARD_END, TOWARD_START):
            raise ValueError(f"impulse direction must be toward_end/toward_start, got {imp.direction!r}")
        rod = truss.rods[rod_index[imp.rod]]
        launch_joint = rod.joints[0] if imp.direction == TOWARD_END else rod.joints[1]
        port = joint_data[launch_joint][1][slot[launch_joint, rod.id]]
        v_far = imp.stress_amplitude / port.impedance  # a front's stress is Gamma * v_far
        launch(port, v_far, port.impedance * v_far, imp.start_time)

    while heap:
        t_first = heap[0][0]  # launch queues no arrival past the horizon
        # everything within the merge tolerance scatters now, grouped per joint
        groups = {}
        while heap and heap[0][0] - t_first <= time_tol:
            entry = heapq.heappop(heap)
            groups.setdefault(entry[1], []).append(entry)

        for joint_id in sorted(groups):
            batch = groups[joint_id]
            t_event = min(entry[0] for entry in batch)
            tm, ports = joint_data[joint_id]
            incoming = [0.0] * len(ports)
            incoming_stress = {}
            for _, _, rod_id, _, k, v_joint, stress in batch:
                incoming[k] += v_joint
                incoming_stress[rod_id] = incoming_stress.get(rod_id, 0.0) + stress

            incoming = np.array(incoming)
            outgoing = tm.entries @ incoming
            # children at round-off of the incoming amplitude are not real fronts
            noise_floor = 1e-14 * max(map(abs, incoming_stress.values()))

            out_log = []
            for port, v_joint in zip(ports, outgoing.tolist()):
                sigma = -port.impedance * v_joint  # outgoing wave leaves the joint
                if abs(sigma) <= noise_floor or abs(sigma) < min_amplitude:
                    continue
                launch(port, -v_joint, sigma, t_event)
                out_log.append((port.rod_id, sigma))

            events.append(
                ScatterEvent(
                    time=t_event,
                    joint=joint_id,
                    incoming=tuple(sorted(incoming_stress.items())),
                    outgoing=tuple(out_log),
                )
            )

    history = _FrontColumns(*(np.asarray(col) for col in (
        rod_col, sign_col, stress_col, t0_col, z0_col, arrive_col)))
    return WavefrontSimulation(truss=truss, t_max=t_max, events=events, _history=history)
