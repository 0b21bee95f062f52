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

Both wave methods read the truss's rod-end table (model._RodEnds): a port
per rod end, joint by joint in neighbor order, which is the order of the
joint's T, each port knowing its rod end and the rod's port at the other
joint (far), and their rod data through each port's rod off the rod table.
Every joint's T is kept in one stack zero-padded to the largest joint
degree, built once per truss and read at (joint, leaving port, arriving
port) (_transmission). The global matching system has one unknown per port,
the amplitude leaving by it, coupled through the per-rod phase factors
exp(-i w tau); its singular frequencies coincide with the zeros of det(D)
but over twice as many unknowns.

The wavefront simulator steps one lookahead window at a time (the lookahead
of conservative discrete-event simulation, Chandy & Misra, IEEE TSE 5
(1979)). Every front takes at least tau_min to cross its rod, so a front
launched in a window that opens at the earliest pending arrival t arrives at
or after t + tau_min: it can neither join nor precede a merged cluster that
starts more than the merge tolerance before then. All of the window's
arrivals therefore scatter at once, in one matrix product over its events,
through the padded T stack. Padding costs events x degree^2 a window,
small for the joint degrees of 1 to 6 of the trusses the tests and
benchmark run, so one path serves them all; a hub joint of many rods would
make every event pay for its degree. Merging and ordering are those of one
event at a time: clusters of arrivals within 1e-12 tau_min of their first,
events in (cluster, joint id) order, arrivals summed in (time, rod id,
launch) order, fronts launched in (event, rod) order. One three-key sort
puts a window's arrivals in that order; one bincount over (event, port)
cells then sums them, which adds each cell's arrivals one by one from 0.0
and so gives the floats of one-by-one addition. The record of an event's
arrivals, by rod id, is read row by row off an events x ports grid marked
at each arrival's place among its joint's rods in rod-id order.

A run keeps of each front only what the run decides: the port it leaves by,
its launch time and its stress (_FrontColumns). The port fixes the rest, its
rod and direction, and through the rod its launch position and transit time,
which the views read off the rod-end and rod tables; it arrives at its
launch time plus its rod's transit. Each window copies its arrays once into
columns that grow in place, their room doubling when full (_Growing).
Per-window arrays kept in lists and joined once the run ends would copy as
often, but their freed blocks stay resident: on the benchmark's lattice
drive that raised a process's peak memory.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _roots
from .assembly import _finite, _span_frames
from .model import Truss, _check_count, _is_number, _ranks
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
    dim = truss.dimension
    ends = truss._rod_ends
    j = truss._joint_index[joint_id]
    port = slice(ends.start[j], ends.start[j + 1])  # the joint's rods, in neighbor order
    rod, table = ends.rod[port], truss._rod_table
    e_mat = (ends.sign[port, None] * table.unit_vector[rod]).T  # dim x |N|, away from the joint
    root = np.sqrt(table.line_impedance[rod])  # Lambda^(1/2)
    frame = np.zeros((dim, 0)) if truss.joints[j].anchored else _span_frames(truss)[0][j]
    q, r = np.linalg.qr(root[:, None] * (frame.T @ e_mat).T)
    return TransmissionMatrix(
        joint=joint_id,
        entries=(2.0 * q @ q.T - np.eye(rod.size)) * root[None, :] / root[:, None],
        column_order=tuple(other for other, _ in truss.neighbors(joint_id)),
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

    One unknown per port of the rod-end table (model._RodEnds), the
    amplitude leaving by it, numbered by the port's rod end. Row of a port:
    its amplitude minus its joint's T applied to the amplitudes arriving at
    the joint, each the one that left the far port, delayed by
    exp(-i w tau). An anchor's T is -I, so each incident rod reflects with
    F = -B.
    """
    ends = truss._rod_ends
    size = ends.end.size
    # each leaving port's row of its joint's T, by port; exact zeros, the padding's too, drop out
    row = _transmission(truss)[ends.joint, np.arange(size) - ends.start[ends.joint]]
    leave, port = np.nonzero(row)
    arrive = ends.start[ends.joint[leave]] + port
    rows, cols = ends.end[leave], ends.end[ends.far[arrive]]
    coeffs, taus = row[leave, port], truss._rod_table.transit_time[ends.rod[arrive]]

    def build(omegas) -> np.ndarray:
        omegas = np.asarray(omegas, dtype=float)
        out = np.zeros((omegas.size, size, size), dtype=complex)
        out[:, np.arange(size), np.arange(size)] = 1.0
        terms = coeffs[None, :] * np.exp(-1j * omegas[:, None] * taus[None, :])
        out[:, rows, cols] = terms  # every (row, col) is distinct and off the diagonal
        return out

    return build


def reverberation_determinant(truss: Truss, omega: float) -> float:
    """|det| of the global amplitude-matching system at one frequency, a finite number."""
    matrix = matching_evaluator(truss)([_finite(omega)])[0]
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
    delay = 2.0 * sum(truss._rod_table.transit_time.tolist())
    point_bytes = 16 * (2 * len(truss.rods)) ** 2
    return _roots.unitary_determinant(matching_evaluator(truss), point_bytes, delay)


def reverberation_frequencies(truss: Truss, window: FrequencyWindow, threads: int = 1):
    """Frequencies where the matching system is singular: one counting sweep of _matching_eval.
    threads must be an integer >= 1."""
    return _roots.window_roots(*_roots.threaded(threads, *_matching_eval(truss)), window)


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
    """One scattering at a joint: the fronts that arrived at time and those it launched."""

    time: float
    joint: str
    incoming: tuple  # (rod id, stress amplitude) pairs
    outgoing: tuple


@dataclass(frozen=True)
class _FrontColumns:
    """Every front the simulator launched, in launch order, one array per field.

    port: the port it leaves by (model._RodEnds), which fixes its rod and
    its direction (sign: +1 toward the rod's second endpoint), so that it
    is launched at the rod's first endpoint (sign > 0) or its second;
    stress: the signed step it carries; t0: its launch time, so it reaches
    the rod's far end at t0 plus the rod's transit time.
    """

    port: np.ndarray
    stress: np.ndarray
    t0: np.ndarray

    def __len__(self) -> int:
        return self.port.size


class _Growing:
    """Columns of one length that a run extends a window at a time, in place: each
    window's arrays are copied in once, and a column's room doubles when it is full."""

    def __init__(self, *dtypes):
        self.size, self.columns = 0, [np.empty(0, dtype) for dtype in dtypes]

    def extend(self, *parts) -> None:
        end = self.size + parts[0].size
        for column, part in zip(self.columns, parts):
            if end > column.size:  # unchecked: no view of a column exists before arrays() hands them out
                column.resize(2 * end, refcheck=False)
            column[self.size:end] = part
        self.size = end

    def arrays(self) -> list:
        """The columns, cut to their length in place; the run extends them no further."""
        for column in self.columns:
            column.resize(self.size, refcheck=False)
        return self.columns


_COVER_BLOCK = 1 << 15  # (segment, span) pairs added at once


@dataclass
class WavefrontSimulation:
    """A run up to t_max, kept only as columns: every view is read off them and the truss's tables."""

    truss: Truss
    t_max: float
    _history: _FrontColumns
    # arrays: each event's time, joint index, arrival and launch counts, then
    # each arrival's rod index and summed stress, by rod id within its event
    _events: tuple

    @cached_property
    def events(self) -> list:
        """Every scattering event as a ScatterEvent, built on first access and kept."""
        time, joint, arrivals, launches, rod, stress = self._events
        h, ends = self._history, self.truss._rod_ends
        first = len(h) - int(launches.sum())  # the events' fronts follow the impulses', in launch order
        rod_ids = [r.id for r in self.truss.rods]
        joint_ids = [j.id for j in self.truss.joints]

        def grouped(rods, stresses, counts):  # (rod id, stress) pairs, one tuple per event
            pairs = list(zip(map(rod_ids.__getitem__, rods.tolist()), stresses.tolist()))
            cut = np.cumsum(counts).tolist()
            return [tuple(pairs[a:b]) for a, b in zip([0] + cut, cut)]

        return list(map(ScatterEvent, time.tolist(), map(joint_ids.__getitem__, joint.tolist()),
                        grouped(rod, stress, arrivals), grouped(ends.rod[h.port[first:]], h.stress[first:], launches)))

    def _check_time(self, t: float) -> None:
        """Refuse a time the run does not cover: not a number, nan, or past its horizon."""
        if not _is_number(t) or math.isnan(t):
            raise ValueError(f"snapshot time must be a number, got {t!r}")
        if t > self.t_max:
            raise ValueError(f"snapshot time {t} exceeds simulated horizon {self.t_max}")

    def active_fronts(self, t: float):
        """Fronts still travelling at time t, as public Wavefront records."""
        self._check_time(t)
        h, ends, table = self._history, self.truss._rod_ends, self.truss._rod_table
        rod = ends.rod[h.port]
        live = (h.t0 <= t) & (t < h.t0 + table.transit_time[rod])
        rod, sign = rod[live], ends.sign[h.port[live]]
        travelled = table.wave_speed[rod] * (t - h.t0[live])
        position = np.where(sign > 0, travelled, table.length[rod] - travelled)  # launched at 0 or the length
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
        """Piecewise-constant stress per rod at time t: (z_lo, z_hi, sigma) spans.

        A launched front spans the part of its rod it has swept, the whole
        rod once it has arrived. The rod's breaks are its ends and the ends
        of its spans in flight; each segment [z_lo, z_hi) between two breaks
        carries the stress of the spans [lo, hi) that hold it, lo <= z_lo and
        z_hi <= hi, added one by one from 0.0 in launch order. All rods go at
        once. The arrived fronts launched before a rod's first front in flight
        are summed once per rod (np.add.at adds in index order), and each
        segment starts from that sum. Every other span holds the run of its
        rod's segments from the break at its lo to the break at its hi, read
        off the break indices, and adds its stress to each, launch by launch,
        in blocks of at most _COVER_BLOCK (segment, span) pairs.
        """
        self._check_time(t)
        h, ends, table = self._history, self.truss._rod_ends, self.truss._rod_table
        rods = len(self.truss.rods)
        length = table.length
        front = np.flatnonzero(h.t0 <= t)  # launched, in launch order
        rod, stress = ends.rod[h.port[front]], h.stress[front]
        arrived = h.t0[front] + table.transit_time[rod] <= t
        flying = np.flatnonzero(~arrived)
        f = front[flying]
        travelled = table.wave_speed[rod[flying]] * (t - h.t0[f])
        # a front heading to its rod's second endpoint was launched at 0, any other at the length
        forward, far_end = ends.sign[h.port[f]] > 0, length[rod[flying]]
        lo = np.where(forward, 0.0, np.maximum(0.0, far_end - travelled))
        hi = np.where(forward, np.minimum(far_end, travelled), far_end)
        swept = hi > lo
        flying, lo, hi = flying[swept], lo[swept], hi[swept]

        # each rod's sum of the arrived fronts launched before its first in flight
        first = np.full(rods, front.size)
        np.minimum.at(first, rod[flying], flying)
        summed = arrived & (np.arange(front.size) < first[rod])
        prefix = np.zeros(rods)
        np.add.at(prefix, rod[summed], stress[summed])

        # the breaks, as entries: every rod's 0, every rod's length, each flying span's lo, its hi
        entry_rod = np.concatenate((np.arange(rods), np.arange(rods), rod[flying], rod[flying]))
        z = np.concatenate((np.zeros(rods), length, lo, hi))
        order = np.lexsort((z, entry_rod))
        distinct = np.ones(z.size, dtype=bool)
        distinct[1:] = (entry_rod[order[1:]] != entry_rod[order[:-1]]) | (z[order[1:]] != z[order[:-1]])
        entry_break = np.empty(z.size, dtype=int)
        entry_break[order] = np.cumsum(distinct) - 1
        break_rod, z = entry_rod[order[distinct]], z[order[distinct]]
        seg = np.flatnonzero(break_rod[1:] == break_rod[:-1])
        seg_rod, z_lo, z_hi = break_rod[seg], z[seg], z[seg + 1]
        # the segment each break starts: a rod's breaks run one ahead of its
        # segments per rod before it, and its far end starts the next rod's first
        seg_from = np.arange(z.size) - break_rod
        sigma = prefix[seg_rod]

        # every other span, in launch order, holds the segments [k0, k1) from the
        # break at its lo to the one at its hi: its rod's ends once it has arrived
        lo_entry, hi_entry = rod.copy(), rods + rod
        lo_entry[flying] = 2 * rods + np.arange(flying.size)
        hi_entry[flying] = lo_entry[flying] + flying.size
        rest = arrived & ~summed
        rest[flying] = True
        rest = np.flatnonzero(rest)
        k0, k1 = (seg_from[entry_break[entry[rest]]] for entry in (lo_entry, hi_entry))
        add = stress[rest]
        pairs = k1 - k0
        pair_end = np.cumsum(pairs)
        a = 0
        while a < pairs.size:
            base = pair_end[a] - pairs[a]
            b = max(a + 1, int(np.searchsorted(pair_end, base + _COVER_BLOCK, "right")))
            # the block's pairs span by span: pair j of span i is segment k0[i] + j
            shift = np.repeat(k0[a:b] - pair_end[a:b] + pairs[a:b] + base, pairs[a:b])
            np.add.at(sigma, np.arange(pair_end[b - 1] - base) + shift, np.repeat(add[a:b], pairs[a:b]))
            a = b

        segments = list(zip(z_lo.tolist(), z_hi.tolist(), sigma.tolist()))
        bounds = np.searchsorted(seg_rod, np.arange(rods + 1)).tolist()
        return {r.id: segments[bounds[k]:bounds[k + 1]] for k, r in enumerate(self.truss.rods)}


def _transmission(truss: Truss) -> np.ndarray:
    """Every joint's T, in joint order, zero-padded to the largest joint degree:
    (joints, degree, degree), built once and kept with the truss, read-only."""

    def build():
        degree = np.diff(truss._rod_ends.start)
        stack = np.zeros((degree.size, degree.max(), degree.max()))
        for j, joint in enumerate(truss.joints):
            stack[j, :degree[j], :degree[j]] = transmission_matrix(truss, joint.id).entries
        stack.setflags(write=False)
        return stack

    return truss._cached("transmission", build)


def _window_clusters(times, limit: float, tol: float) -> list:
    """The ends of the merged clusters of sorted arrival times that one window scatters.

    A cluster runs from its first time s up to the first later time with
    times[k] - s > tol, found by bisection on the merge's own test (x - s is
    monotone in x, where s + tol would round). The first cluster is always
    taken, as its own fronts are launched after it, and the next ones while
    limit - s > tol: every front the window launches arrives at or after
    limit, so it can neither join nor precede these clusters.
    """
    ends = []
    i = 0
    while i < len(times) and (not ends or limit - times[i] > tol):
        s = times[i]
        i = bisect_right(times, tol, i + 1, key=lambda x: x - s)
        ends.append(i)
    return ends


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
    single scattering event. Time advances one lookahead window at a time (see
    the module docstring): its arrivals are summed per event and port by one
    bincount in merge order, the floats of one-by-one addition, and each
    event's arrivals are recorded by rod id off an events x ports grid. A
    front is recorded as its port, launch time and stress, and a pending
    arrival as its time, arriving port, front and velocity step; the rest is
    read off the rod-end and rod tables. More than front_cap pending
    arrivals raise EventExplosionError.
    """
    for name, value in (("t_max", t_max), ("min_amplitude", min_amplitude)):
        if not _is_number(value):  # a bool would count as 0 or 1, a string fail the comparisons below
            raise ValueError(f"{name} must be a number, not {value!r}")
    _check_count(front_cap, "front_cap")
    t_max = float(t_max)
    if not (t_max >= 0.0):
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if math.isinf(t_max):  # no horizon: the record could grow without end
        raise ValueError(f"t_max must be finite, got {t_max}")
    if not (min_amplitude >= 0.0):  # nan too, which would keep every child
        raise ValueError(f"min_amplitude must be >= 0, got {min_amplitude}")
    ends, table = truss._rod_ends, truss._rod_table
    impedance, transit = table.impedance[ends.rod], table.transit_time[ends.rod]  # each port's rod's
    joint_rank = _ranks([joint.id for joint in truss.joints])
    rod_rank = _ranks([rod.id for rod in truss.rods])
    degree = np.diff(ends.start)
    padded = _transmission(truss)
    ports = np.arange(padded.shape[1])
    # each port's place among its joint's ports in rod-id order, and the port at each place
    at_place = np.lexsort((rod_rank[ends.rod], ends.joint))
    by_rod = np.empty_like(at_place)
    by_rod[at_place] = np.arange(at_place.size) - ends.start[ends.joint[at_place]]

    tau_min = truss.tau_min
    time_tol = 1e-12 * tau_min
    horizon = t_max + time_tol
    # the _FrontColumns (port, stress, t0) and the simulation's _events: each
    # event's (time, joint, arrivals, launches), each arrival's (rod, stress)
    fronts, events, incoming = _Growing(int, float, float), _Growing(float, int, int, int), _Growing(int, float)
    explosion = EventExplosionError(f"more than {front_cap} live fronts; min_amplitude={min_amplitude} is too small")

    def launch(port, t0, velocity):
        """Record a front leaving by each of the ports port at t0 with its velocity step
        (in the far joint's frame; its stress is Gamma * velocity) and return the
        pending arrivals of those that reach the far joint by the horizon: time,
        port at the far joint, front index and velocity step."""
        t_arrive = t0 + transit[port]
        live = np.flatnonzero(t_arrive <= horizon)
        front = fronts.size + live
        fronts.extend(port, impedance[port] * velocity, t0)
        return t_arrive[live], ends.far[port[live]], front, velocity[live]

    impulses = tuple(impulses)  # a generator too: it is read more than once below
    for imp in impulses:
        if imp.rod not in truss._rod_index:
            raise ValueError(f"impulse references unknown rod '{imp.rod}'")
        if imp.direction not in (TOWARD_END, TOWARD_START):
            raise ValueError(f"impulse direction must be toward_end/toward_start, got {imp.direction!r}")
        for field in ("stress_amplitude", "start_time"):
            value = getattr(imp, field)
            if not (_is_number(value) and math.isfinite(value)):
                raise ValueError(f"impulse on rod '{imp.rod}': {field} must be a finite number, not {value!r}")
    # an impulse toward a rod's end leaves by the port at its first joint, rod end 2 * rod
    end = [2 * truss._rod_index[imp.rod] + (imp.direction == TOWARD_START) for imp in impulses]
    port = np.argsort(ends.end)[np.array(end, dtype=int)]
    amplitude = np.array([imp.stress_amplitude for imp in impulses], dtype=float)
    start_time = np.array([imp.start_time for imp in impulses], dtype=float)
    pending = launch(port, start_time, amplitude / impedance[port])
    if pending[0].size > front_cap:
        raise explosion

    while pending[0].size:
        t, far, front, velocity = pending
        limit = float(t.min()) + tau_min
        near = np.flatnonzero(t <= limit)
        near = near[np.argsort(t[near], kind="stable")]
        cluster_ends = _window_clusters(t[near].tolist(), limit, time_tol)
        take = near[:cluster_ends[-1]]
        cluster = np.searchsorted(cluster_ends, np.arange(cluster_ends[-1]), side="right")
        # the window's arrivals in the order the merge meets them: by cluster,
        # joint id and time, then rod id and launch
        arriving = far[take]
        joint = ends.joint[arriving]
        # rods x fronts, like clusters x joints, stays far below 2**63 for any run that fits in memory
        order = np.lexsort((rod_rank[ends.rod[arriving]] * fronts.size + front[take], t[take],
                            cluster * joint_rank.size + joint_rank[joint]))
        take, arriving, joint, cluster = take[order], arriving[order], joint[order], cluster[order]
        starts = np.concatenate(([True], (cluster[1:] != cluster[:-1]) | (joint[1:] != joint[:-1])))
        first, event = np.flatnonzero(starts), np.cumsum(starts) - 1
        ev_joint, ev_time, ev_cluster = joint[first], t[take[first]], cluster[first]

        # one row per event, its joint's ports in neighbor order and zeros past its degree;
        # bincount adds each cell's arrivals one by one from 0.0, in the order above;
        # an arrival's stress is Gamma * velocity, Gamma the rod's at either port
        cell = event * ports.size + arriving - ends.start[joint]
        v_in, stress_in = (np.bincount(cell, weights=w, minlength=first.size * ports.size)
                           .reshape(first.size, ports.size)
                           for w in (velocity[take], impedance[arriving] * velocity[take]))
        port_event, local = np.nonzero(ports < degree[ev_joint, None])
        port = ends.start[ev_joint[port_event]] + local
        v_out = np.matmul(padded[ev_joint], v_in[..., None])[port_event, local, 0]
        sigma = -impedance[port] * v_out  # outgoing waves leave the joint
        # children at round-off of the incoming amplitude are not real fronts
        noise_floor = 1e-14 * np.abs(stress_in).max(axis=1)
        size = np.abs(sigma)
        kept = np.flatnonzero(~((size <= noise_floor[port_event]) | (size < min_amplitude)))

        child, child_event = port[kept], port_event[kept]
        arrivals = launch(child, ev_time[child_event], -v_out[kept])
        live = arrivals[2] - (fronts.size - child.size)  # the children that arrive by the horizon
        pushes = np.bincount(ev_cluster[child_event[live]], minlength=len(cluster_ends))
        # pending at each cluster's end: before the window, less the pops, plus the pushes
        if (t.size - np.array(cluster_ends) + np.cumsum(pushes)).max() > front_cap:
            raise explosion

        # the window's events, each one's arrivals by rod id (the fronts they launched are recorded):
        # an events x ports grid marked at each arrival's place in rod-id order, read row by row
        hit = np.zeros((first.size, ports.size), dtype=bool)
        hit[event, by_rod[arriving]] = True
        inc_event, place = np.nonzero(hit)
        inc_start = ends.start[ev_joint[inc_event]]
        inc_port = at_place[inc_start + place]
        events.extend(ev_time, ev_joint, np.bincount(inc_event, minlength=first.size),
                      np.bincount(child_event, minlength=first.size))
        incoming.extend(ends.rod[inc_port], stress_in[inc_event, inc_port - inc_start])

        rest = np.ones(t.size, dtype=bool)
        rest[take] = False
        pending = tuple(np.concatenate((old[rest], new)) for old, new in zip(pending, arrivals))

    return WavefrontSimulation(truss, t_max, _FrontColumns(*fronts.arrays()),
                               tuple(events.arrays() + incoming.arrays()))
