"""Assembly of the joint matrices D(omega), K and the consistent M from one sparse pattern.

Each of them is a sum of per-rod e e^T blocks in the global aligned frame
(e_ba = -e_ab), scaled by one factor on the diagonal blocks and one on the
coupling blocks of rod ab. With an orthonormal frame B_j per joint (the
identity in the public builders, the rod-span frame of each free joint in the
sweeps) the blocks are

    X[a,a] += diag_r * (B_a^T e)(B_a^T e)^T    for every rod r at a
    X[a,b]  = off_r  * (B_a^T e)(B_b^T e)^T    for rod r = ab

    D(omega)      diag_r = Lambda*omega*cot(omega*tau)   off_r = -Lambda*omega*csc(omega*tau)
    K             diag_r = Lambda/tau                    off_r = -Lambda/tau
    consistent M  diag_r = rho*A*L/3                     off_r = rho*A*L/6

So every matrix is `pattern @ coefficients`: a CSR map from the coefficient
vector [diag_r, off_r] to the structurally nonzero entries, applied to one
coefficient column per frequency. The pattern is built on first use per truss,
anchor reduction and choice of frames, and kept with the truss; the same path
serves one matrix or a batch, at every size. Batched determinant sweeps over
these matrices run through `_roots.determinant`, in chunks whose stacks stay
within `_roots.BATCH_BYTES`, so memory does not grow with the number of
frequencies evaluated at once.

Natural frequencies are the omega where det(D) vanishes; D*U = P relates joint
displacement amplitudes to applied joint forces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .model import Truss

# Distance (in omega*tau radians) from a rod resonance omega*tau = n*pi, n >= 1,
# below which the public single-matrix builders (assemble_laplacian and what
# calls it) and the closed-form oracles of validation refuse to evaluate
# cot/csc entries, which are corrupted there. The sweeps and mode extraction
# take no guard: near a resonance they border the rod (spectrum). omega*tau
# -> 0 is a removable limit (D -> K), not a pole, so n = 0 never trips it.
POLE_GUARD = 1e-5

# Reciprocal condition estimate below this means "omega is a natural frequency".
RCOND_SINGULAR = 1e-12


class PoleProximityError(Exception):
    """omega*tau is within the pole guard of a rod resonance n*pi."""

    def __init__(self, rod_id, order, omega):
        self.rod_id = rod_id
        self.order = order
        self.omega = omega
        super().__init__(
            f"omega={omega!r} puts rod '{rod_id}' within {POLE_GUARD} of its "
            f"resonance omega*tau = {order}*pi, where D itself is not built; "
            "extract_modes and resonant_mode_check border the rod instead"
        )


class SingularAtFrequencyError(Exception):
    """D(omega) is numerically singular: omega is a natural frequency."""


@dataclass(frozen=True)
class RodSpectralFactors:
    cot_term: float  # cot(omega*tau)
    csc_term: float  # csc(omega*tau)
    eta: float  # cot(omega*tau) / Lambda
    pole_distance: float  # min over n >= 0 of |omega*tau - n*pi|


def rod_spectral_factors(truss: Truss, rod, omega: float) -> RodSpectralFactors:
    props = truss.rod_properties(rod)
    x = omega * props.transit_time
    s = math.sin(x)
    cot = math.cos(x) / s
    csc = 1.0 / s
    return RodSpectralFactors(
        cot_term=cot,
        csc_term=csc,
        eta=cot / props.line_impedance,
        pole_distance=abs(x - math.pi * round(x / math.pi)),
    )


@dataclass
class SpectralMatrix:
    omega: float
    entries: np.ndarray
    index_map: dict
    reduced: bool


@dataclass
class StiffnessMatrix:
    entries: np.ndarray
    index_map: dict
    reduced: bool


@dataclass(frozen=True)
class _Pattern:
    """Scatter map from per-rod coefficients to the entries of one joint matrix.

    The coefficient vector is [diag_0 .. diag_{R-1}, off_0 .. off_{R-1}] for R
    rods. Row k of `scatter` holds the (B_a^T e)(B_b^T e)^T values whose
    products with those coefficients sum, in rod order, to the entry at flat
    position rows[k] (i * size + j). Joint j has frame B_j = frames[j] at
    offset index_map[j]; `lift` maps these coordinates to `dim` joint
    coordinates per joint, and `embedding` places them in the unreduced system.
    """

    index_map: dict
    size: int
    rows: np.ndarray
    scatter: sparse.csr_array
    embedding: np.ndarray
    frames: dict

    @cached_property
    def lift(self) -> sparse.csr_array:
        return sparse.csr_array(_lift(list(self.frames.values())))


def _lift(frames) -> np.ndarray:
    """Block-diagonal map from the frames' coordinates to the joint coordinates, dense."""
    lift = np.zeros((sum(f.shape[0] for f in frames), sum(f.shape[1] for f in frames)))
    row = col = 0
    for f in frames:
        lift[row : row + f.shape[0], col : col + f.shape[1]] = f
        row, col = row + f.shape[0], col + f.shape[1]
    return lift


def _span_frames(truss: Truss):
    """(frames, mechanism joint ids): per joint, a basis of the directions its rods span.

    A free joint whose rods span fewer than `dim` directions (a mechanism joint,
    such as every interior joint of a subdivided rod) makes det(D) vanish
    identically; its frame keeps the spanned directions only. Every other
    joint, anchored ones included, keeps the identity. Built once per truss.
    """

    def build():
        dim = truss.dimension
        frames = []
        mechanisms = []
        for joint in truss.joints:
            frame = np.eye(dim)
            if not joint.anchored:
                vecs = [
                    truss.rod_properties(rod).unit_vector * (1.0 if rod.joints[0] == joint.id else -1.0)
                    for _, rod in truss.neighbors(joint.id)
                ]
                u, s, _ = np.linalg.svd(np.array(vecs).reshape(-1, dim).T, full_matrices=True)
                rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
                if rank < dim:
                    mechanisms.append(joint.id)
                    frame = u[:, :rank]
            frame.setflags(write=False)
            frames.append(frame)
        return tuple(frames), tuple(mechanisms)

    return truss._cached("span_frames", build)


def _build_pattern(truss: Truss, reduce_anchors: bool, span: bool) -> _Pattern:
    dim = truss.dimension
    n_rods = len(truss.rods)
    local = np.arange(dim)
    frames = _span_frames(truss)[0] if span else (np.eye(dim),) * len(truss.joints)
    width = np.array([f.shape[1] for f in frames])
    kept = np.array([not (reduce_anchors and j.anchored) for j in truss.joints])
    offset = np.cumsum(np.where(kept, width, 0)) - width  # meaningful at kept joints only
    size = int(width[kept].sum())
    index_map = {j.id: int(offset[i]) for i, j in enumerate(truss.joints) if kept[i]}

    # B^T e at both ends of every rod, with the frames zero-padded to dim columns
    padded = np.zeros((len(frames), dim, dim))
    for i, f in enumerate(frames):
        padded[i, :, : f.shape[1]] = f
    position = {j.id: i for i, j in enumerate(truss.joints)}
    ends = np.array([[position[jid] for jid in rod.joints] for rod in truss.rods])
    units = np.array([truss.rod_properties(rod).unit_vector for rod in truss.rods])
    pa, pb = np.matmul(units[:, None, None, :], padded[ends])[:, :, 0, :].transpose(1, 0, 2)
    ja, jb = ends.T
    r = np.arange(n_rods)
    # blocks (a,a) and (b,b) take diag_r, blocks (a,b) and (b,a) take off_r
    block_row = np.stack([ja, jb, ja, jb], axis=1)[:, :, None, None]
    block_col = np.stack([ja, jb, jb, ja], axis=1)[:, :, None, None]
    coeff = np.stack([r, r, n_rods + r, n_rods + r], axis=1)[:, :, None, None]
    positions = (offset[block_row] + local[:, None]) * size + (offset[block_col] + local[None, :])
    columns = np.broadcast_to(coeff, (n_rods, 4, dim, dim))
    left, right = np.stack([pa, pb, pa, pb], axis=1), np.stack([pa, pb, pb, pa], axis=1)
    values = left[..., :, None] * right[..., None, :]
    # blocks of reduced-away joints drop out, as do the exact zeros of the
    # padding past each frame's width and those that axis-aligned rods leave
    keep = kept[block_row] & kept[block_col] & (values != 0.0)
    rows, entry = np.unique(positions[keep], return_inverse=True)
    scatter = sparse.csr_array((values[keep], (entry, columns[keep])), shape=(rows.size, 2 * n_rods))
    scatter.sort_indices()
    embedding = np.flatnonzero(np.repeat(kept, width))
    kept_frames = {j.id: f for j, f, k in zip(truss.joints, frames, kept) if k}
    return _Pattern(index_map, size, rows, scatter, embedding, kept_frames)


def _pattern(truss: Truss, reduce_anchors: bool, span: bool = False) -> _Pattern:
    """The truss's pattern in identity (or, with span, rod-span) frames, built once and kept."""
    span = span and bool(_span_frames(truss)[1])  # no mechanism joint: every frame is the identity
    key = ("pattern", reduce_anchors, span)
    return truss._cached(key, lambda: _build_pattern(truss, reduce_anchors, span))


def _rod_constants(truss: Truss):
    """Per-rod transit times and line impedances, in rod order."""

    def build():
        props = [truss.rod_properties(rod) for rod in truss.rods]
        taus = np.array([p.transit_time for p in props])
        lams = np.array([p.line_impedance for p in props])
        taus.setflags(write=False)
        lams.setflags(write=False)
        return taus, lams

    return truss._cached("rod_constants", build)


def _assemble(pattern: _Pattern, coefficients: np.ndarray) -> np.ndarray:
    """Joint matrices, one per coefficient column: (2 * rods, m) -> (m, size, size)."""
    m = coefficients.shape[1]
    out = np.zeros((m, pattern.size * pattern.size))
    out[:, pattern.rows] = (pattern.scatter @ coefficients).T
    return out.reshape(m, pattern.size, pattern.size)


def _spectral_coefficients(taus, lams, omegas: np.ndarray) -> np.ndarray:
    """Lambda*omega*cot(omega*tau) over -Lambda*omega*csc(omega*tau): (2 * rods, m)."""
    x = taus[:, None] * omegas[None, :]
    s = np.sin(x)
    lam_omega = lams[:, None] * omegas[None, :]
    return np.concatenate([lam_omega * np.cos(x) / s, -lam_omega / s])


def check_pole_guard(truss: Truss, omega: float):
    """Raise PoleProximityError if any rod resonance n*pi (n >= 1) is too close."""
    taus, _ = _rod_constants(truss)
    x = omega * taus
    n = np.round(x / math.pi)
    near = np.flatnonzero((n >= 1) & (np.abs(x - n * math.pi) < POLE_GUARD))
    if near.size:
        r = int(near[0])
        raise PoleProximityError(truss.rods[r].id, int(n[r]), omega)


def laplacian_evaluator(truss: Truss, pattern: _Pattern):
    """Reusable batched D(omega) builder: the pattern times the rod coefficients.

    Sweeps call the returned function many times (counts and root polish);
    it maps a 1-D array of frequencies to the (m, size, size) stack in the
    pattern's coordinates and applies no pole guard.
    """
    taus, lams = _rod_constants(truss)

    def build(omegas) -> np.ndarray:
        omegas = np.asarray(omegas, dtype=float)
        return _assemble(pattern, _spectral_coefficients(taus, lams, omegas))

    return build


def laplacian_batch(truss: Truss, omegas, reduce_anchors: bool = True) -> np.ndarray:
    """D(omega) stacked over a 1-D array of frequencies; no pole guard."""
    return laplacian_evaluator(truss, _pattern(truss, reduce_anchors))(omegas)


def assemble_laplacian(truss: Truss, omega: float, reduce_anchors: bool = True) -> SpectralMatrix:
    if not (omega > 0.0):
        raise ValueError(f"omega must be > 0, got {omega}")
    check_pole_guard(truss, omega)
    pattern = _pattern(truss, reduce_anchors)
    entries = laplacian_batch(truss, [omega], reduce_anchors)[0]
    return SpectralMatrix(
        omega=omega, entries=entries, index_map=dict(pattern.index_map), reduced=reduce_anchors
    )


def assemble_stiffness(truss: Truss, reduce_anchors: bool = True) -> StiffnessMatrix:
    """Static stiffness from the spring formula k = A*E/L (exact omega -> 0 limit)."""
    pattern = _pattern(truss, reduce_anchors)
    taus, lams = _rod_constants(truss)
    k = lams / taus
    entries = _assemble(pattern, np.concatenate([k, -k])[:, None])[0]
    return StiffnessMatrix(entries=entries, index_map=dict(pattern.index_map), reduced=reduce_anchors)


def laplacian_determinant(truss: Truss, omega: float, reduce_anchors: bool = True) -> float:
    return float(np.linalg.det(assemble_laplacian(truss, omega, reduce_anchors).entries))


def solve_forced_response(truss: Truss, omega: float, forces) -> dict:
    """Displacement amplitudes U of the free joints under applied forces P, D U = P.

    `forces` maps free-joint ids to force vectors; omitted joints carry zero
    force. Raises SingularAtFrequencyError when omega is (numerically) a
    natural frequency and the response is undefined.
    """
    matrix = assemble_laplacian(truss, omega, reduce_anchors=True)
    index_map = matrix.index_map
    dim = truss.dimension
    rhs = np.zeros(matrix.entries.shape[0])
    for jid, vec in forces.items():
        if jid not in index_map:
            raise ValueError(f"force applied to unknown or anchored joint '{jid}'")
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (dim,):
            raise ValueError(f"force vector for joint '{jid}' must have {dim} components")
        rhs[index_map[jid] : index_map[jid] + dim] = vec

    d = matrix.entries
    if d.size:
        if 1.0 / np.linalg.cond(d) < RCOND_SINGULAR:
            raise SingularAtFrequencyError(
                f"D(omega) is singular at omega={omega!r}: natural frequency"
            )
    solution = np.linalg.solve(d, rhs) if d.size else rhs.copy()
    # one step of iterative refinement keeps the residual near round-off
    solution += np.linalg.solve(d, rhs - d @ solution) if d.size else 0.0
    scale = np.linalg.norm(rhs)
    if scale > 0.0 and np.linalg.norm(d @ solution - rhs) > 1e-9 * scale:
        raise SingularAtFrequencyError(
            f"forced response residual exceeds tolerance at omega={omega!r}"
        )
    return {
        jid: solution[offset : offset + dim].copy() for jid, offset in index_map.items()
    }
