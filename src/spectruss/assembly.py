"""Assembly of the joint matrices D(omega), K and the consistent M from one sparse pattern.

Each of them is a sum of per-rod e e^T blocks in the global aligned frame
(e_ba = -e_ab), scaled by one factor on the diagonal blocks and one on the
coupling blocks of rod ab. Every matrix takes each joint's coordinates in its
rod-span frame B_j (_span_frames): the directions its rods span at a
mechanism joint, the identity at every other joint. So the builders
assemble_laplacian, assemble_stiffness and assemble_mass return the matrices
everything in spectrum and fem solves, and on a truss without mechanism
joints those are the joint-coordinate ones. The blocks are

    X[a,a] += diag_r * (B_a^T e)(B_a^T e)^T    for every rod r at a
    X[a,b]  = off_r  * (B_a^T e)(B_b^T e)^T    for rod r = ab

    D(omega)      diag_r = Lambda*omega*cot(omega*tau)   off_r = -Lambda*omega*csc(omega*tau)
    K             diag_r = Lambda/tau                    off_r = -Lambda/tau
    consistent M  diag_r = rho*A*L/3                     off_r = rho*A*L/6

So every matrix is `pattern @ coefficients`: a CSR map from the coefficient
vector [diag_r, off_r] to the structurally nonzero entries, applied to one
coefficient column per frequency. The pattern is built on first use per truss
and anchor reduction, and kept with the truss; the same path serves one
matrix or a batch, at every size. The sweeps evaluate these
matrices in chunks whose stacks stay within `_roots.BATCH_BYTES`, so memory
does not grow with the number of frequencies evaluated at once: FEM through
`_roots.determinant`, the network sweep through `_roots.bordered_determinant`,
which borders the rods near a resonance (spectrum). Each counted matrix is
factored once, as LDL^T, for its inertia, sign and log|det|; the root polish
factors its new points by LU. Where the swept D is narrow, the polish's
unbordered points are assembled straight into LAPACK band storage, on the
pattern's band (the same scatter, its rows at their band positions, made
on first use by _roots.band_layout and kept with the pattern), and
factored by banded LU.

Natural frequencies are the omega where det(D) vanishes; D*U = P relates joint
displacement amplitudes to applied joint forces. Both are solved in spectrum,
on D bordered near a rod resonance: the sweeps, laplacian_determinant and
solve_forced_response alike.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np
from scipy import sparse

from . import _roots
from .model import RodProperties, Truss


@dataclass
class AssembledMatrix:
    """A builder's matrix on the truss's pattern; joint j's coordinates start at index_map[j]."""

    entries: np.ndarray
    index_map: dict


@dataclass(frozen=True)
class _Pattern:
    """Scatter map from per-rod coefficients to the entries of one joint matrix.

    The coefficient vector is [diag_0 .. diag_{R-1}, off_0 .. off_{R-1}] for R
    rods. Row k of `scatter` holds the (B_a^T e)(B_b^T e)^T values whose
    products with those coefficients sum, in rod order, to the entry at flat
    position rows[k] of the matrix's (size, width) storage: i * size + j for
    entry (i, j) of the square matrix, whose width is size, and
    j * width + 2 kl + i - j in the band storage of `band`. Joint j has frame
    B_j = frames[j] at offset index_map[j]; `lift` maps these coordinates to
    `dim` joint coordinates per joint, and `embedding` places them in the
    unreduced system. `ends` = (index, value), each (2, rods, dim), holds
    B_a^T e and B_b^T e of every rod as entries of a size-vector, padded to
    dim with index size past each frame's width and at reduced-away joints.
    """

    index_map: dict
    size: int
    rows: np.ndarray
    scatter: sparse.csr_array
    embedding: np.ndarray
    frames: dict
    width: int
    ends: tuple

    @cached_property
    def lift(self) -> sparse.csr_array:
        """Block-diagonal map from the frames' coordinates to the joint coordinates."""
        frames = list(self.frames.values())
        lift = np.zeros((sum(f.shape[0] for f in frames), self.size))
        row = col = 0
        for f in frames:
            lift[row : row + f.shape[0], col : col + f.shape[1]] = f
            row, col = row + f.shape[0], col + f.shape[1]
        return sparse.csr_array(lift)

    @cached_property
    def band(self):
        """This pattern in band storage, width 3 kl + 1 (_roots.band_layout), or None where
        its matrix is factored dense."""
        layout = _roots.band_layout(self.rows, self.size)
        return layout and replace(self, rows=layout[1], width=3 * layout[0] + 1)


def _span_frames(truss: Truss):
    """(frames, mechanism joint ids): per joint, a basis of the directions its rods span.

    A free joint whose rods span fewer than `dim` directions (a mechanism joint,
    such as every interior joint of a subdivided rod) makes det(D) vanish
    identically; its frame keeps the spanned directions only. Every other
    joint, anchored ones included, keeps the identity. Built once per truss;
    every pattern and scattering's transmission matrices take their frames
    from here.
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


def _build_pattern(truss: Truss, reduce_anchors: bool) -> _Pattern:
    dim = truss.dimension
    n_rods = len(truss.rods)
    local = np.arange(dim)
    frames = _span_frames(truss)[0]
    width = np.array([f.shape[1] for f in frames])
    kept = np.array([not (reduce_anchors and j.anchored) for j in truss.joints])
    offset = np.cumsum(np.where(kept, width, 0)) - width  # meaningful at kept joints only
    size = int(width[kept].sum())
    index_map = {j.id: int(offset[i]) for i, j in enumerate(truss.joints) if kept[i]}

    # B^T e at both ends of every rod, with the frames zero-padded to dim columns
    padded = np.zeros((len(frames), dim, dim))
    for i, f in enumerate(frames):
        padded[i, :, : f.shape[1]] = f
    ends = np.array([[truss._joint_index[jid] for jid in rod.joints] for rod in truss.rods])
    units = _rod_constants(truss).unit_vector
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
    # B^T e of every rod end as (index, value), index size where it has no coordinate
    valid = kept[ends.T][..., None] & (local < width[ends.T][..., None])
    index = np.where(valid, offset[ends.T][..., None] + local, size)
    rod_ends = (index, np.stack([pa, pb]))
    return _Pattern(index_map, size, rows, scatter, embedding, kept_frames, size, rod_ends)


def _pattern(truss: Truss, reduce_anchors: bool) -> _Pattern:
    """The truss's pattern in rod-span frames, built once and kept."""
    return truss._cached(("pattern", reduce_anchors), lambda: _build_pattern(truss, reduce_anchors))


def _rod_constants(truss: Truss) -> RodProperties:
    """The rod table: every RodProperties field as one read-only array over the
    rods, in rod order (unit_vector of shape (rods, dim)), built once and kept."""

    def build():
        props = [truss.rod_properties(rod) for rod in truss.rods]
        columns = {}
        for field in fields(RodProperties):
            column = np.array([getattr(p, field.name) for p in props])
            column.setflags(write=False)
            columns[field.name] = column
        return RodProperties(**columns)

    return truss._cached("rod_constants", build)


def _assemble(pattern: _Pattern, coefficients: np.ndarray) -> np.ndarray:
    """Joint matrices, one per coefficient column: (2 * rods, m) -> (m, size, width)."""
    m = coefficients.shape[1]
    out = np.zeros((m, pattern.size * pattern.width))
    out[:, pattern.rows] = (pattern.scatter @ coefficients).T
    return out.reshape(m, pattern.size, pattern.width)


def _spectral_coefficients(taus, lams, omegas: np.ndarray) -> np.ndarray:
    """Lambda*omega*cot(omega*tau) over -Lambda*omega*csc(omega*tau): (2 * rods, m)."""
    x = taus[:, None] * omegas[None, :]
    s = np.sin(x)
    lam_omega = lams[:, None] * omegas[None, :]
    return np.concatenate([lam_omega * np.cos(x) / s, -lam_omega / s])


def laplacian_evaluator(truss: Truss, pattern: _Pattern):
    """Reusable batched D(omega) builder: the pattern times the rod coefficients.

    Sweeps call the returned function many times (the LDL^T count and the LU polish);
    it maps a 1-D array of frequencies to the (m, size, size) stack in the
    pattern's coordinates, or on a pattern's band to the band stack
    (m, size, 3 kl + 1) that the polish factors by banded LU.
    """
    table = _rod_constants(truss)

    def build(omegas) -> np.ndarray:
        omegas = np.asarray(omegas, dtype=float)
        return _assemble(pattern, _spectral_coefficients(table.transit_time, table.line_impedance, omegas))

    return build


def assemble_laplacian(truss: Truss, omega: float, reduce_anchors: bool = True) -> AssembledMatrix:
    """D(omega) in rod-span frames, unbordered: its entries diverge at a rod resonance."""
    if not (omega > 0.0):
        raise ValueError(f"omega must be > 0, got {omega}")
    pattern = _pattern(truss, reduce_anchors)
    entries = laplacian_evaluator(truss, pattern)([omega])[0]
    return AssembledMatrix(entries, dict(pattern.index_map))


def assemble_stiffness(truss: Truss, reduce_anchors: bool = True) -> AssembledMatrix:
    """Static stiffness from the spring formula k = A*E/L (exact omega -> 0 limit), in rod-span frames."""
    pattern = _pattern(truss, reduce_anchors)
    k = _rod_constants(truss).spring_stiffness
    entries = _assemble(pattern, np.concatenate([k, -k])[:, None])[0]
    return AssembledMatrix(entries, dict(pattern.index_map))
