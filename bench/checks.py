"""Output checks against references that do not share the code path under test.

The dynamic stiffness matrix is rebuilt here from joint positions, areas and
materials alone, so neither the inertia count nor the mode residual relies on
the package's assembly. Where two root lists disagree, the inertia count
decides which one holds the natural frequency. Failed checks are counted, never skipped. A failure of
a kind recorded in ROADMAP.md is tallied under that kind; any other failure
makes the run incorrect.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# relative tolerances
MODE_RESIDUAL_TOL = 1e-6  # |D u| / (|D|_2 |u|) at a reported natural frequency
MATCH_RTOL = 1e-6  # two sweeps' roots are the same root
REVERB_RTOL = 1e-8  # reverberation zero against the network root (criterion 06)
NEAR_DUPLICATE_RTOL = 1e-3  # unmatched root beside another natural frequency
# distances |omega*tau - n*pi|, n >= 1, from the nearest rod resonance
AT_POLE = 1e-8  # the root is the resonance itself
POLE_GUARD = 1e-5  # the package's guard band, inside which the sweep takes no samples
EDGE_FRACTION = 1e-3  # of the window width: root at the edge of the swept window
POWER_RTOL = 1e-12  # wavefront power balance at one scatter event
POLE_HALF_WIDTH = 1e-4  # relative half-width of the count interval around a pole

KNOWN = {
    "missing_pole_mode": "natural frequency at a rod resonance that the sweep does not report"
                         " (ROADMAP item 2)",
    "near_pole_root": "root that only one of two methods reports, within the pole guard of a"
                      " rod resonance (ROADMAP item 3)",
    "close_pair_root": "root that only one of two methods reports, within 0.1% of another"
                       " natural frequency: two roots in one grid cell, or a |det| dip taken for"
                       " a root (ROADMAP item 3)",
    "window_edge_root": "root that only one of two methods reports, within 0.1% of the window"
                        " width from a window end; the modulus-minimum search of the"
                        " reverberation method sees interior grid minima only (not yet in ROADMAP)",
}


@dataclass
class CheckLog:
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)  # kind -> count
    notes: list = field(default_factory=list)
    settled: list = field(default_factory=list)  # changes the inertia count made to references

    def record(self, kind: str, passed: bool, count: int = 1, note: str | None = None):
        self.attempted += count
        if not passed:
            self.failures[kind] += count
            if note and len(self.notes) < 20:
                self.notes.append(f"{kind}: {note}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def unexplained(self) -> int:
        return sum(n for kind, n in self.failures.items() if kind not in KNOWN)


# -- independent dynamic stiffness --------------------------------------------


def _rods(truss):
    """(joint a, joint b, unit vector, Lambda, tau) per rod, from the raw model data."""
    pos = {j.id: np.asarray(j.position, dtype=float) for j in truss.joints}
    out = []
    for rod in truss.rods:
        mat = truss.materials[rod.material]
        a, b = rod.joints
        vec = pos[b] - pos[a]
        length = float(np.linalg.norm(vec))
        c = math.sqrt(mat.youngs_modulus / mat.density)
        out.append((a, b, vec / length, rod.area * math.sqrt(mat.youngs_modulus * mat.density),
                    length / c))
    return out


def dynamic_stiffness(truss, omega: float):
    """D(omega) over the free joints, in joint order; returns (matrix, joint offsets)."""
    dim = truss.dimension
    offsets = {}
    for j in truss.joints:
        if not j.anchored:
            offsets[j.id] = dim * len(offsets)
    d = np.zeros((dim * len(offsets), dim * len(offsets)))
    for a, b, e, lam, tau in _rods(truss):
        x = omega * tau
        outer = np.outer(e, e)
        diag = lam * omega * math.cos(x) / math.sin(x) * outer
        off = -lam * omega / math.sin(x) * outer
        ia, ib = offsets.get(a), offsets.get(b)
        for i in (ia, ib):
            if i is not None:
                d[i:i + dim, i:i + dim] += diag
        if ia is not None and ib is not None:
            d[ia:ia + dim, ib:ib + dim] += off
            d[ib:ib + dim, ia:ia + dim] += off
    return d, offsets


def rod_span_basis(truss):
    """Orthonormal basis of the directions the rods at each free joint span.

    A direction no rod at a joint spans carries neither stiffness nor mass (a
    mechanism), so D(omega) vanishes on it identically; the inertia count is
    taken on D restricted to this basis.
    """
    dim = truss.dimension
    dirs = {j.id: [] for j in truss.joints if not j.anchored}
    for a, b, e, *_ in _rods(truss):
        for jid in (a, b):
            if jid in dirs:
                dirs[jid].append(e)
    blocks = []
    for jid, vecs in dirs.items():
        u, s, _ = np.linalg.svd(np.array(vecs).T)
        blocks.append(u[:, :int(np.sum(s > 1e-10 * s[0]))])
    basis = np.zeros((dim * len(blocks), sum(b.shape[1] for b in blocks)))
    col = 0
    for i, b in enumerate(blocks):
        basis[dim * i:dim * (i + 1), col:col + b.shape[1]] = b
        col += b.shape[1]
    return basis


def inertia_count(truss, omega: float, basis=None) -> int:
    """Wittrick-Williams count of natural frequencies below omega.

    sum over rods of floor(omega*tau/pi) (the clamped-rod modes) plus the
    number of negative eigenvalues of D(omega) on the rod-span basis.
    """
    clamped = sum(math.floor(omega * tau / math.pi) for *_, tau in _rods(truss))
    d, _ = dynamic_stiffness(truss, omega)
    if basis is not None:
        d = basis.T @ d @ basis
    return clamped + int(np.sum(np.linalg.eigvalsh(d) < 0.0))


def mode_residual(truss, omega: float, displacements: dict) -> float:
    d, offsets = dynamic_stiffness(truss, omega)
    u = np.zeros(d.shape[0])
    for jid, off in offsets.items():
        u[off:off + truss.dimension] = displacements[jid]
    return float(np.linalg.norm(d @ u) / (np.linalg.norm(d, 2) * np.linalg.norm(u)))


def spans_dimension(truss) -> bool:
    """Every free joint's rods span the ambient dimension (reverberation's domain)."""
    dirs = {j.id: [] for j in truss.joints}
    for a, b, e, *_ in _rods(truss):
        dirs[a].append(e)
        dirs[b].append(e)
    return all(
        dirs[j.id] and np.linalg.matrix_rank(np.array(dirs[j.id]), tol=1e-10) == truss.dimension
        for j in truss.free_joints
    )


def pole_frequencies(truss, lo: float, hi: float):
    poles = set()
    for *_, tau in _rods(truss):
        n = max(1, math.ceil(lo * tau / math.pi))
        while n * math.pi / tau < hi:
            poles.add(n * math.pi / tau)
            n += 1
    merged = []
    for p in sorted(poles):
        if not merged or p - merged[-1] > 1e-9 * p:
            merged.append(p)
    return merged


# -- per-workload checks -----------------------------------------------------------


def distinct(values, rtol=1e-9):
    out = []
    for v in sorted(values):
        if not out or v - out[-1] > rtol * v:
            out.append(v)
    return out


def match_roots(found, reference, rtol):
    """One-to-one matching of two sorted root lists; returns (matched, extra, missing)."""
    matched, extra, missing = [], [], []
    i = j = 0
    while i < len(found) and j < len(reference):
        a, b = found[i], reference[j]
        if abs(a - b) <= rtol * max(a, b):
            matched.append((a, b))
            i += 1
            j += 1
        elif a < b:
            extra.append(a)
            i += 1
        else:
            missing.append(b)
            j += 1
    return matched, extra + list(found[i:]), missing + list(reference[j:])


def pole_distance(truss, omega: float) -> float:
    """min over rods and n >= 1 of |omega*tau - n*pi|."""
    return min(abs(omega * tau - math.pi * max(1, round(omega * tau / math.pi)))
               for *_, tau in _rods(truss))


def confirmed(truss, basis, omega: float) -> bool:
    """The inertia count puts a natural frequency within MATCH_RTOL of omega."""
    lo, hi = omega * (1 - MATCH_RTOL), omega * (1 + MATCH_RTOL)
    return inertia_count(truss, hi, basis) > inertia_count(truss, lo, basis)


def settle_reference(case, reference, methods):
    """The reference roots, settled by the inertia count wherever a method disagrees.

    A root that a method reports and the reference lacks joins the reference
    if the count confirms it; a reference root that the sweep lacks leaves it
    if the count denies it. Returns the settled roots and one note per change.
    """
    basis = rod_span_basis(case.truss)
    ref = list(reference)
    notes = []
    for label, found in methods:
        _, extra, _ = match_roots(found, distinct(ref), MATCH_RTOL)
        for w in extra:
            if confirmed(case.truss, basis, w):
                ref.append(w)
                notes.append(f"reference lacks {w:.10g}, reported by {label}")
    _, _, missing = match_roots(methods[0][1], distinct(ref), MATCH_RTOL)
    for w in missing:
        if not confirmed(case.truss, basis, w):
            ref = [v for v in ref if abs(v - w) > 1e-9 * w]
            notes.append(f"reference root {w:.10g} is not a natural frequency")
    return distinct(ref), notes


def _record_match(log, label, found, reference, rtol, case, name):
    """Match a root list against the settled reference; classify each unmatched root."""
    matched, extra, missing = match_roots(found, reference, rtol)
    log.record(label, True, len(matched))
    lo, hi = case.window.omega_min, case.window.omega_max
    for side, roots in (("extra", extra), ("missing", missing)):
        for w in roots:
            distance = pole_distance(case.truss, w)
            if side == "missing" and distance <= AT_POLE:
                kind = "missing_pole_mode"
            elif distance < POLE_GUARD:
                kind = "near_pole_root"
            elif any(MATCH_RTOL * w < abs(w - m) <= NEAR_DUPLICATE_RTOL * w for m in reference):
                kind = "close_pair_root"
            elif min(w - lo, hi - w) <= EDGE_FRACTION * (hi - lo):
                kind = "window_edge_root"
            else:
                kind = f"{label}_{side}"
            log.record(kind, False, note=f"{name}: {side} root {w:.10g}")


def multiplicity_list(out):
    """Network natural frequencies with multiplicity: regular from mode count, resonant per mode."""
    sweep = out.get("sweep")
    if sweep is None:
        return []
    omegas = [m.omega for m in sweep if m.kind != "regular"]
    for omega, modes in out["modes"].items():
        omegas.extend([omega] * len(modes))
    return sorted(omegas)


def check_modes(log, case, out, name):
    """Every regular root passes the null-space test and its modes satisfy D u = 0."""
    sweep = out.get("sweep")
    if sweep is None:
        log.record("sweep_raised", False, note=name)
        return
    for omega in sorted({m.omega for m in sweep if m.kind == "regular"}):
        modes = out["modes"].get(omega)
        if not modes:
            log.record("mode_null_space", False, note=f"{name}: no mode at {omega:.10g}")
            continue
        for mode in modes:
            r = mode_residual(case.truss, omega, mode.displacements)
            log.record("mode_residual", r <= MODE_RESIDUAL_TOL, note=f"{name}: {omega:.10g} r={r:.2e}")


def check_lattice(log, case, out):
    """Root count per interval against the inertia count; intervals split at every pole."""
    truss, window = case.truss, case.window
    check_modes(log, case, out, "lattice")
    found = multiplicity_list(out)
    cuts = [window.omega_min]
    poles = pole_frequencies(truss, window.omega_min, window.omega_max)
    for p in poles:
        cuts += [p * (1 - POLE_HALF_WIDTH), p * (1 + POLE_HALF_WIDTH)]
    cuts.append(window.omega_max)
    counts = [inertia_count(truss, w) for w in cuts]
    for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        expected = counts[k + 1] - counts[k]
        got = sum(1 for w in found if lo <= w < hi)
        at_pole = k % 2 == 1
        log.record("inertia_count", True, min(expected, got))
        if got < expected:
            kind = "missing_pole_mode" if at_pole else "inertia_count_missing"
            log.record(kind, False, expected - got,
                       note=f"[{lo:.6g}, {hi:.6g}): {got} found, {expected} counted")
        elif got > expected:
            log.record("inertia_count_extra", False, got - expected,
                       note=f"[{lo:.6g}, {hi:.6g}): {got} found, {expected} counted")
    return {"counted": counts[-1] - counts[0], "found": len(found)}


def check_random(log, case, out, reference, name):
    """Against the x3-subdivided sweep, the reverberation zeros and the Rayleigh-Ritz bound.

    The x3-subdivided sweep is itself a grid search and can miss a root; where
    it and a method disagree, the inertia count settles the reference first.
    """
    check_modes(log, case, out, name)
    sweep = out.get("sweep")
    methods = [("sweep", distinct(sweep.omegas) if sweep is not None else [])]
    if case.reverb and "reverb" in out:
        methods.append(("reverberation", distinct(out["reverb"])))
    ref, notes = settle_reference(case, reference, methods)
    log.settled.extend(f"{name}: {note}" for note in notes)
    if sweep is not None:
        _record_match(log, "subdivision", methods[0][1], ref, MATCH_RTOL, case, name)
    if case.reverb:
        if "reverb" in out:
            _record_match(log, "reverb", methods[1][1], ref, REVERB_RTOL, case, name)
        else:
            log.record("reverb_raised", False, note=name)
    network = multiplicity_list(out)
    fem = out.get("fem_consistent")
    if fem is None:
        log.record("fem_raised", False, note=name)
        return
    for k, (f, w) in enumerate(zip(fem, network)):
        log.record("rayleigh_ritz", f >= w * (1 - 1e-9), note=f"{name}: fem[{k}]={f:.10g} < {w:.10g}")


def check_wavefront(log, case, out, min_amplitude):
    """Power sum A*sigma^2/Gamma in against out at every scatter event.

    A child front weaker than min_amplitude is dropped, so the outgoing power
    may fall short by at most that amplitude on every rod that emitted nothing.
    Each stress profile must tile every rod from 0 to its length.
    """
    sim = out.get("sim")
    if sim is None:
        log.record("simulate_raised", False)
        return {}
    truss = case.truss
    weight = {}
    length = {}
    for rod, (*_, tau) in zip(truss.rods, _rods(truss)):
        mat = truss.materials[rod.material]
        weight[rod.id] = rod.area / math.sqrt(mat.youngs_modulus * mat.density)
        length[rod.id] = tau * math.sqrt(mat.youngs_modulus / mat.density)
    incident = {j.id: [] for j in truss.joints}
    for rod in truss.rods:
        for jid in rod.joints:
            incident[jid].append(rod.id)
    worst = 0.0
    for ev in sim.events:
        p_in = sum(weight[r] * s * s for r, s in ev.incoming)
        p_out = sum(weight[r] * s * s for r, s in ev.outgoing)
        emitted = {r for r, _ in ev.outgoing}
        pruned = sum(weight[r] * min_amplitude ** 2 for r in incident[ev.joint] if r not in emitted)
        excess = max(p_out - p_in, p_in - p_out - pruned, 0.0) / p_in
        worst = max(worst, excess)
        log.record("power_balance", excess <= POWER_RTOL,
                   note=f"t={ev.time:.6g} joint {ev.joint}: {excess:.2e}")
    profiles = out.get("profiles")
    if profiles is None:
        log.record("profile_raised", False)
    else:
        for k, prof in enumerate(profiles):
            for rid, segs in prof.items():
                ok = (bool(segs) and segs[0][0] == 0.0
                      and abs(segs[-1][1] - length[rid]) <= 1e-12 * length[rid]
                      and all(s[1] == t[0] for s, t in zip(segs, segs[1:])))
                log.record("profile_cover", ok, note=f"snapshot {k} rod {rid}")
    return {"worst_power_imbalance": worst}
