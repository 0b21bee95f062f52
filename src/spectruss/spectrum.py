"""Natural-frequency sweep, null-space modes and forced response, through the rod resonances.

At a rod resonance omega*tau = n*pi the entries of D(omega) diverge, each
resonant rod through a rank-one term. Moved into a border, those terms leave
the matrix

    B = [[F, Q], [Q^T, C]],

finite through the pole, with D as its Schur complement on the border:
det D = det B / det C, and D has N(B) - N(C) negative eigenvalues. One
counting sweep locates every natural frequency with the Wittrick-Williams
count J = J0 + N(D), J0 = sum_r floor(omega*tau_r/pi): J rises by the
multiplicity of each one, at a pole too. N is the inertia of one LDL^T
factorization per counted point, which also gives the sign and log|det| at
the bracket ends the polish starts from. Within BORDER_RADIUS of a
resonance the count and the polish's determinant come from B, elsewhere
from D itself, and each pole is cut out of the window by a band as wide as
the root tolerance; which resonances make a pole, which rods resonate there
and its band are decided in one place (_chain), for the window's poles and
for the pole whose band holds one omega alike. One routine reads modes off a
null space, from a partial symmetric eigensolve (_roots.near_null: one
tridiagonal reduction, bisection for the spectrum's ends and the eigenvalues
within MODE_TOL of zero, eigenvectors for those only): of D at a regular
root (of B if a rod is near its resonance), of B at a pole. The poles a
sweep checks are built together, one bordered stack per border width, and
each one's modes read off its own B (_pole_modes), as resonant_mode_check
and extract_modes read one pole's. There a mode either moves the joints, its
displacements u meeting each resonant rod's end-motion constraint

    (-1)^n e^T u_a - e^T u_b = 0        (Q^T u = 0)

while the border amplitudes xi absorb the other rods' forces, F u + Q xi = 0
(kind "resonant"), or keeps them at rest, u = 0 and Q xi = 0, the resonant
rods vibrating between them (kind "interior"). The relative singular-value
cutoff is MODE_TOL at a polished root and 1e-13 at a pole, whose frequency
is exact; there, where J rises across the pole's band by more than that
null space holds, a root of the band off the pole's frequency, the nearest
directions within MODE_TOL make up the difference.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import _roots
from .assembly import (
    _assemble,
    _frequency,
    _pattern,
    _span_frames,
    _spectral_coefficients,
    assemble_laplacian,
    laplacian_evaluator,
)
from .model import Truss, _is_number

# Relative singular-value cutoff for null-space membership at a polished root.
MODE_TOL = 1e-7
DEFAULT_ROOT_RTOL = 1e-10  # root tolerance, relative to omega
# Distance in omega*tau (radians) from a rod resonance n*pi, n >= 1, within
# which the sweep and extract_modes border that rod: there D's own count
# and determinant lose accuracy (its count departs from B's up to ~3e-4 away).
BORDER_RADIUS = 1e-3
# Singular value of a null direction's displacement part above which it
# moves the joints (_null_modes), at round-off scale: at the poles of the test
# generator's first 200 draws and of the benchmark trusses, and at their roots
# beside a pole, u = 0 directions read <= 3e-15. Those that move the joints
# can read well below 1 beside a pole, where a rod of small Lambda makes its
# border amplitude large against u: 0.36 at a root of a benchmark truss.
MOVING_U = 1e-8


class NotARootError(Exception):
    """omega is not a natural frequency of the structure."""

    def __init__(self, omega, smallest_relative_sv=None):
        self.omega = omega
        self.smallest_relative_sv = smallest_relative_sv  # None at a rod resonance
        super().__init__(
            f"omega={omega:.17g} is a rod resonance with no natural mode" if smallest_relative_sv is None
            else f"D({omega!r}) has no null space: smallest relative singular value {smallest_relative_sv:.3e}"
        )


class SingularAtFrequencyError(Exception):
    """omega is a natural frequency: the forced response is undefined there."""


@dataclass(frozen=True)
class FrequencyWindow:
    """A sweep window and its root tolerance, tol_at; every sweep counts roots and lays no grid."""

    omega_min: float
    omega_max: float

    def __post_init__(self):
        if not (_is_number(self.omega_min) and _is_number(self.omega_max)):  # True would be taken for 1
            raise ValueError(f"window ends must be numbers, got ({self.omega_min!r}, {self.omega_max!r})")
        if not (0.0 < self.omega_min < self.omega_max):
            raise ValueError(
                f"need 0 < omega_min < omega_max, got ({self.omega_min}, {self.omega_max})"
            )
        if not math.isfinite(self.omega_max):
            raise ValueError(f"omega_max must be finite, got {self.omega_max}")

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
    """All rod resonances omega*tau = n*pi inside the window, grouped into poles (_chain), sorted."""
    return [Pole(pole, tuple(truss.rods[r].id for r in rods), orders)
            for pole, rods, orders, _ in _window_poles(truss, window)]


def _window_poles(truss: Truss, window: FrequencyWindow):
    """_chain's poles in the window, widened by half a band at each end, so that a pole
    at an end keeps the rods whose resonance rounds to just outside it; the resonances
    up to half a band past the top are chained too, as members of a pole there."""
    lo = window.omega_min - _half_band(window.omega_min)
    hi = window.omega_max + _half_band(window.omega_max)
    taus = truss._rod_table.transit_time
    top = hi + _half_band(hi)
    rods, orders = np.array([
        (r, n) for r, tau in enumerate(taus.tolist())
        for n in range(max(1, math.ceil(lo * tau / math.pi)), math.floor(top * tau / math.pi) + 1)
    ], dtype=int).reshape(-1, 2).T
    return [pole for pole in _chain(orders * math.pi / taus[rods], rods, orders) if pole[0] <= hi]


def _half_band(omega: float) -> float:
    """Half the width of the band the sweep cuts around a pole at omega: half the root tolerance."""
    return 0.5 * DEFAULT_ROOT_RTOL * omega


def _chain(omegas, rods, orders):
    """The poles among resonances given as arrays listed rod by rod, rod rods[k]'s
    orders[k]*pi/tau at omegas[k]: (pole, rods, orders, (lo, hi)) in order of omega,
    each pole's rods in rod order.

    The lowest resonance is a pole, then each one more than half a band above
    the pole before it, and a pole holds the resonances up to half a band
    above it. Its band, cut out of the sweep, runs half a band either side of
    it, but from the band below's end where they overlap, so no resonance
    lies in two. An order of 0 is no resonance. Which resonances make a pole,
    and its band, is decided here only.
    """
    by_omega = np.argsort(omegas, kind="stable")  # ties stay in rod order
    omegas, rods, orders = omegas[by_omega].tolist(), rods[by_omega].tolist(), orders[by_omega].tolist()
    start, below = bisect_right(omegas, 0.0), 0.0
    while start < len(omegas):
        pole = omegas[start]
        half = _half_band(pole)
        end = bisect_right(omegas, half, start + 1, key=lambda omega: omega - pole)
        members = rods[start:end], orders[start:end]
        if omegas[end - 1] != pole:  # else they tie, in rod order already
            members = zip(*sorted(zip(*members)))
        band = (max(pole - half, below), pole + half)
        yield pole, *map(tuple, members), band
        start, below = end, band[1]


def _pole_at(truss: Truss, omega: float):
    """_chain's pole whose band holds omega, or None.

    Chained are each rod's nearest resonance n*pi/tau: a resonance more than
    half a band above the one below starts a pole, so these alone find the
    poles near omega. A band holds omega only within half a band of its
    pole, one of those resonances, so where none with n >= 1 lies within
    two half bands of omega (a margin for rounding) there is no pole to
    chain.
    """
    taus = truss._rod_table.transit_time
    n = np.rint(omega * taus / math.pi)
    resonances = n * math.pi / taus
    if not ((np.abs(resonances - omega) <= 2.0 * _half_band(omega)) & (n > 0)).any():
        return None
    poles = _chain(resonances, np.arange(taus.size), n.astype(int))
    # the first pole whose band reaches omega holds it, unless that band starts above omega
    found = next((pole for pole in poles if pole[3][1] >= omega), None)
    return found if found and found[3][0] <= omega else None


# -- D bordered near a resonance -----------------------------------------------


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
    on the rod-span pattern, reduced or not, and q is read off its ends:
    those padded with index size, at reduced-away joints too, are dropped.
    """
    pattern = _pattern(truss, reduce_anchors)
    table = truss._rod_table
    taus, lams = table.transit_time, table.line_impedance
    size = pattern.size
    plain = laplacian_evaluator(truss, pattern)

    index, value = pattern.ends

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


def _bordered_at(truss: Truss, omega: float, reduce_anchors: bool):
    """(pattern, B, c, near) at one omega, a finite number > 0, B and c as stacks of one: the sweep's D,
    bordered (_border_builder) at the rods near marks, those within BORDER_RADIUS of a resonance."""
    pattern, build = _border_builder(truss, reduce_anchors)
    omegas = np.array([_frequency(omega)])
    near, n = _near_resonances(truss._rod_table.transit_time, omegas)
    return pattern, *build(omegas, near, n), near[0]


def _det_eval(truss: Truss):
    """(func, count) of the network sweep: (sign, log|det D|) and the Wittrick-Williams count J.

    D is the anchored structure's, in rod-span frames, so mechanism joints
    leave it regular. J = J0 + N(D): J0 = sum_r floor(omega*tau_r/pi) counts
    the rods' clamped-end modes below omega and N(D) the negative eigenvalues
    of D, so J rises by the multiplicity of every natural frequency, at a pole
    too. count(xs) -> (J, sign, log|det D|), all three from the same LDL^T.
    Each point is evaluated on D bordered at exactly the rods within
    BORDER_RADIUS of a resonance (_border_builder, through
    _roots.bordered_determinant), the points of each border width together;
    with no rod near, that is the swept D itself. Near a pole D's
    own numbers lose their accuracy, B's do not. func factors each point by
    LU: the unbordered D by banded LU where its pattern has a band
    (_roots.band_layout), built straight into band storage; bordered points
    and every other D by dense LU (slogdet).
    """
    pattern, build = _border_builder(truss, True)
    taus = truss._rod_table.transit_time
    band = pattern.band
    func, negative = _roots.bordered_determinant(
        lambda xs, k: build(xs, *_near_resonances(taus, xs)) if k else build(xs),
        lambda xs: _near_resonances(taus, xs)[0].sum(axis=1),
        pattern.size,
        band and (band.width, laplacian_evaluator(truss, band)),
    )

    def count(xs):
        xs = np.asarray(xs, dtype=float)
        clamped = np.floor(np.multiply.outer(xs, taus) / math.pi).sum(axis=1).astype(int)
        below, sign, logabs = negative(xs)
        return below + clamped, sign, logabs

    return func, count


def _rise(truss: Truss, omega: float) -> int:
    """How far the Wittrick-Williams count J rises across omega's band: that of the
    pole whose band holds omega (_pole_at), elsewhere omega -/+ half a band.
    It is omega's multiplicity as a natural frequency, 0 where it is none."""
    pole = _pole_at(truss, omega)
    ends = (omega - _half_band(omega), omega + _half_band(omega)) if pole is None else pole[3]
    low, high = _det_eval(truss)[1](np.array(ends))[0]
    return int(high - low)


def _segments(window: FrequencyWindow, bands):
    """(lo, hi) of the intervals between the poles' bands."""
    cuts = [window.omega_min, *(x for band in bands for x in band), window.omega_max]
    return [(lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2]) if hi > lo]


def find_natural_frequencies(truss: Truss, window: FrequencyWindow, threads: int = 1) -> SweepResult:
    """Locate every natural frequency in the window.

    One counting sweep of the Wittrick-Williams count J (_det_eval) runs over
    the segments between the poles' bands, each band as wide as the root
    tolerance: J rises by one at each simple root, and a pole's multiplicity
    is the rise of J across its band. Every segment and band end is counted
    in one call, and each counted point's record (J, sign, log|det|), from
    one LDL^T, is kept in one dict that the count stage, the polish and the
    poles' rises all read. Every pole is checked for modes, except where
    that rise is 0 in a truss without mechanism joints (at mechanism joints
    the count near a pole is not yet trusted): _pole_modes takes the checked
    poles' records from _window_poles, builds their bordered D by one call
    per border width and gives the modes resonant_mode_check gives at each
    one. A count that falls, or a rise that differs from the modes
    found at the pole, is reported in the warnings and logged through
    logging.getLogger("spectruss"). Output is sorted by frequency, one mode
    per rise of J: a multiple regular root, its interval narrower than the
    root tolerance, is listed as often as J rises across it.
    threads must be an integer >= 1.
    """
    func, count = _roots.threaded(threads, *_det_eval(truss))
    poles = _window_poles(truss, window)
    bands = [band for *_, band in poles]
    segments = _segments(window, bands)
    mechanisms = list(_span_frames(truss)[1])
    known = {}
    _roots.record_counts(count, np.unique(np.ravel(segments + bands)), known)
    roots, warnings = _roots.sign_sweep_roots(func, count, segments, window.tol_at, known=known)

    modes = [ModeResult(omega=r, kind="regular") for r in roots]
    rises = [known[hi][0] - known[lo][0] for *_, (lo, hi) in poles]
    checked = [(pole, rise) for pole, rise in zip(poles, rises) if rise or mechanisms]
    for (pole, rise), found in zip(checked, _pole_modes(truss, [pole for pole, _ in checked])):
        modes.extend(found)
        if rise != len(found):
            warnings.append(
                f"count rises by {rise} across the pole at {pole[0]:.10g}, "
                f"but {len(found)} resonant modes were found there"
            )
    modes.sort(key=lambda m: m.omega)
    _roots.log_warnings(warnings)
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


def _null_modes(truss: Truss, full, bordered, near, omega: float, order=None):
    """Modes at omega from the null space of D bordered at the rods within BORDER_RADIUS of a resonance.

    bordered is B at omega, one matrix of a stack that _border_builder
    builds on the unreduced pattern full, bordered at the rods near marks;
    so the anchored rows of [F | Q] give reactions. Without those rows and
    columns B is symmetric, and the eigenvectors of its eigenvalues at or below
    the cutoff times max |eigenvalue| span its null space, each a displacement
    u and border amplitudes xi with F u + Q xi = 0. The cutoff is MODE_TOL at
    a regular root, polished to the sweep's tolerance, and 1e-13 at a pole
    (order given): the pole's omega is exact, so its null singular values are
    round-off (~1e-16 s_max), and MODE_TOL would also take in regular roots
    beside it. With a border, the right singular vectors of the null space's
    u-block split it: those of singular value > MOVING_U move the joints,
    carried with their xi; the rest, those past the u-block's rank included,
    have u = 0 and Q xi = 0. At a pole they are kinds "resonant" and
    "interior", the latter with xi as rod amplitudes. At a regular root only the moving ones are modes of
    D, kind "regular": beside a resonance c is small, and a u = 0 direction
    can fall below the cutoff without being a mode. Where a regular root
    has more than one, those nearest the null space are kept, as many as J
    rises across omega's band (the sweep's multiplicity): a rod just outside
    BORDER_RADIUS inflates max |eigenvalue| and can take in an ordinary one.
    At a pole a root of its band need not lie on the pole's exact frequency,
    and then leaves B a direction above the cutoff but within MODE_TOL: the
    nearest such directions are added while fewer than J rises across the
    band (_pole_at) are below the cutoff. All of these come from one
    partial eigensolve (_roots.near_null), which gives max |eigenvalue| and
    the eigenpairs of |eigenvalue| <= MODE_TOL * max |eigenvalue| only.
    Anchor forces are the anchored rows of [F | Q] times (u, xi). Where no
    mode is below the cutoff, a pole gives [] and a regular root raises
    NotARootError, whose smallest relative singular value over the directions
    that move the joints comes from one full eigh, as it may lie outside
    that window.
    """
    free = _pattern(truss, reduce_anchors=True)
    kept = np.concatenate([free.embedding, np.arange(full.size, len(bordered))])
    matrix = bordered.take(kept, axis=0).take(kept, axis=1)  # faster than fancy indexing or np.ix_
    smax, values, vectors = _roots.near_null(matrix, MODE_TOL)
    svals = np.abs(values)  # B's singular values within MODE_TOL
    chosen = svals <= (MODE_TOL if order is None else 1e-13) * smax
    if order is not None and not chosen.all():
        chosen[np.argsort(svals)[: _rise(truss, omega)]] = True
    null = vectors[:, chosen].T
    interior = null[:0]
    if len(kept) > free.size:  # a border: split off the u = 0 directions
        _, s, right = np.linalg.svd(null[:, : free.size].T)
        s = np.concatenate([s, np.zeros(len(right) - s.size)])
        moving = s > MOVING_U
        null, interior = (right[moving] / s[moving, None]) @ null, right[~moving] @ null
        if order is None:
            interior = interior[:0]
    if order is None and len(null) > 1:
        rise = _rise(truss, omega)
        if 0 < rise < len(null):
            residual = np.linalg.norm(null @ matrix, axis=1) / np.linalg.norm(null, axis=1)
            null = null[np.sort(np.argsort(residual)[:rise])]
    if not (len(null) or len(interior)):
        if order is not None:
            return []
        # the diagnostic needs the least |eigenvalue| among directions that move the joints,
        # which may lie outside the window: one full eigh, on this path only
        values, vectors = np.linalg.eigh(matrix)
        joints = np.linalg.norm(vectors[: free.size], axis=0) > MOVING_U
        raise NotARootError(omega, float(np.abs(values[joints]).min(initial=smax) / smax) if smax else 0.0)

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


def _pole_modes(truss: Truss, poles):
    """The modes at each of the poles, given as _chain's records (omega, rods, orders, band): a list per pole.

    Every pole's D is bordered (_border_builder, on the unreduced pattern) at
    the rods within BORDER_RADIUS of a resonance there, and the poles of one
    border width are built by one call, in stacks within _roots.BATCH_BYTES;
    each pole's modes are read off its own B (_null_modes).
    """
    pattern, build = _border_builder(truss, False)
    omegas = np.array([pole[0] for pole in poles], dtype=float)
    near, n = _near_resonances(truss._rod_table.transit_time, omegas)
    widths = near.sum(axis=1)
    modes = [None] * len(poles)
    for k in np.unique(widths):
        at = np.flatnonzero(widths == k)
        step = max(1, _roots.BATCH_BYTES // (8 * (pattern.size + k) ** 2))
        for chunk in (at[i : i + step] for i in range(0, at.size, step)):
            for i, matrix in zip(chunk, build(omegas[chunk], near[chunk], n[chunk])[0]):
                omega, _, orders, _ = poles[i]
                modes[i] = _null_modes(truss, pattern, matrix, near[i], omega, min(orders))
    return modes


def extract_modes(truss: Truss, omega_star: float):
    """Null-space mode shapes of the anchored structure's D(omega*), omega* a finite number > 0.

    In a pole's band (_pole_at) they are the pole's (_pole_modes, as
    resonant_mode_check gives them); a pole without one raises
    NotARootError. Elsewhere one unreduced D(omega*),
    in rod-span frames (the identity at anchors), serves both the null space
    (its free block, the matrix the sweep solves) and the anchor forces (its
    anchored rows). Rods within BORDER_RADIUS of a resonance are bordered, as
    in the sweep, so a root beside a pole is taken from the finite B. Shapes
    are in joint coordinates.
    """
    omega_star = _frequency(omega_star)
    pole = _pole_at(truss, omega_star)
    if pole is None:
        pattern, (matrix,), _, near = _bordered_at(truss, omega_star, False)
        return _null_modes(truss, pattern, matrix, near, omega_star)
    (modes,) = _pole_modes(truss, [pole])
    if not modes:
        raise NotARootError(omega_star)
    return modes


def resonant_mode_check(truss: Truss, omega_pole: float):
    """Every natural mode at a rod resonance, or an empty list when none exists.

    They are the null space of D at the pole whose band holds omega_pole
    (_pole_at; [] if none does), bordered (_border_builder) at every rod
    within BORDER_RADIUS of a resonance there, as at a regular root: the
    pole's own rods and any whose resonance lies just beside it, whose
    diverging terms would otherwise inflate max |eigenvalue| past the cutoff.
    Kind "resonant": the joints move, meeting the end-motion constraint
    (-1)^n e^T u_a - e^T u_b = 0 of every resonant rod, and the border
    absorbs the forces of the rest. Kind "interior": the joints stay at rest
    and the resonant rods vibrate as sin(n*pi*z/L), scaled by rod_amplitudes,
    with end forces that balance at every free joint (Q xi = 0). The motions
    are those of the rod-span frames, as in the sweep, and the modes those
    the sweep finds at the pole (_pole_modes). omega_pole must be a finite
    number > 0.
    """
    pole = _pole_at(truss, _frequency(omega_pole))
    return [] if pole is None else _pole_modes(truss, [pole])[0]


def anchor_forces(truss: Truss, mode: ModeResult) -> dict:
    """Reaction forces at anchored joints for a mode, at the mode's scale.

    A mode from the sweep or from extract_modes carries them already. For
    any other free-joint displacement state at a regular frequency -- a
    forced-response result wrapped in a ModeResult -- they are recovered via
    the anchored rows of the unreduced D, the displacements taken into its
    rod-span frames.
    """
    if mode.displacements is None:
        raise ValueError("mode carries no displacements; extract modes first")
    if mode.anchor_forces is not None:
        return dict(mode.anchor_forces)
    if not truss.anchored_joints:
        return {}
    full = assemble_laplacian(truss, mode.omega, reduce_anchors=False)
    frames = _pattern(truss, False).frames
    vec = np.zeros(full.entries.shape[0])
    for jid, u in mode.displacements.items():
        vec[full.index_map[jid] : full.index_map[jid] + frames[jid].shape[1]] = u @ frames[jid]
    return _anchor_rows(truss, full.index_map, full.entries @ vec)


# -- single-frequency solves ----------------------------------------------------


def laplacian_determinant(truss: Truss, omega: float) -> float:
    """det D(omega) of the anchored structure in rod-span frames, bordered as in the sweep:
    det B / prod(c).

    On a truss without mechanism joints every frame is the identity, so this
    is det D in joint coordinates; at a mechanism joint it is that of D on
    the directions its rods span, so it vanishes at the natural frequencies
    only. A force outside that span moves nothing (solve_forced_response).
    """
    _, stack, corner, _ = _bordered_at(truss, omega, True)
    sign, logabs = _roots._unborder(corner, *np.linalg.slogdet(stack))
    return float(sign[0] * np.exp(logabs[0]))


def solve_forced_response(truss: Truss, omega: float, forces) -> dict:
    """Displacement amplitudes U of the free joints under applied forces P, D U = P.

    `forces` maps free-joint ids to force vectors of finite numbers (a bool
    or a string is none); omitted joints carry zero force. D is the sweep's,
    in rod-span frames F: one LU solve of B [u; xi] = [F^T p; 0]
    (_bordered_at) gives D u = F^T p, finite through a rod resonance that
    is no natural frequency. A force component outside a mechanism joint's
    span is dropped by F^T p and moves nothing, as in scattering's
    force_coupling. U is lifted to joint coordinates. Raises
    SingularAtFrequencyError where J rises across omega's band (_rise), a
    natural frequency, or where the residual on B exceeds 1e-9 of the load.
    """
    pattern, (matrix,), _, _ = _bordered_at(truss, omega, reduce_anchors=True)
    dim = truss.dimension
    rhs = np.zeros(len(matrix))
    for jid, vec in forces.items():
        if jid not in pattern.index_map:
            raise ValueError(f"force applied to unknown or anchored joint '{jid}'")
        vec = np.asarray(vec, dtype=object)  # float() would take True for 1.0 and parse "1"
        if vec.shape != (dim,):
            raise ValueError(f"force vector for joint '{jid}' must have {dim} components")
        bad = [x for x in vec if not (_is_number(x) and math.isfinite(x))]
        if bad:
            raise ValueError(f"force vector for joint '{jid}' must hold finite numbers, not {bad[0]!r}")
        vec = vec.astype(float)
        frame = pattern.frames[jid]
        rhs[pattern.index_map[jid] : pattern.index_map[jid] + frame.shape[1]] = vec @ frame
    rise = _rise(truss, omega)
    if rise > 0:
        raise SingularAtFrequencyError(f"omega={omega!r} is a natural frequency: J rises by {rise} across it")
    solution = np.linalg.solve(matrix, rhs)
    scale = np.linalg.norm(rhs)
    if scale > 0.0 and np.linalg.norm(matrix @ solution - rhs) > 1e-9 * scale:
        raise SingularAtFrequencyError(f"forced response residual exceeds tolerance at omega={omega!r}")
    joint = pattern.lift @ solution[: pattern.size]
    return dict(zip(pattern.index_map, joint.reshape(-1, dim)))
