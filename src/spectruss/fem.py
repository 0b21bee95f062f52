"""Consistent and lumped mass-matrix baselines and the det(K - w^2 M) sweep.

The consistent matrix uses the linear shape function N(x) = 1 - x, for which

    integral_0^L N^2 dz = L/3        (diagonal blocks, rho*A*L/3 * e e^T)
    integral_0^L N(1-N) dz = L/6     (coupling blocks, +rho*A*L/6 * e e^T globally)

The lumped matrix puts half of each incident rod's mass at every joint
isotropically, rho*A*L/2 * I in each endpoint block, so it is diagonal, and it
stays so in the orthonormal rod-span frames that K and M are assembled in
(assembly). Only the axial part e e^T of that inertia has a counterpart in the
network model; the transverse part is extra junction inertia, so the lumped
frequencies converge to the network values at first order, O(1/n) in the
subdivision count n, while the consistent frequencies converge at second
order, O(1/n^2).
"""

from __future__ import annotations

import numpy as np

from . import _roots
from .assembly import AssembledMatrix, _assemble, _pattern, _span_frames, assemble_stiffness
from .model import Truss, subdivide
from .spectrum import FrequencyWindow

MASS_KINDS = ("consistent", "lumped")


def assemble_mass(truss: Truss, kind: str = "consistent", reduce_anchors: bool = True) -> AssembledMatrix:
    """Consistent or lumped mass matrix in rod-span frames, on the pattern of assemble_stiffness."""
    if kind not in MASS_KINDS:
        raise ValueError(f"mass kind must be one of {MASS_KINDS}, got {kind!r}")
    pattern = _pattern(truss, reduce_anchors)
    masses = np.array([
        truss.materials[rod.material].density * rod.area * truss.rod_properties(rod).length
        for rod in truss.rods
    ])
    if kind == "consistent":
        entries = _assemble(pattern, np.concatenate([masses / 3.0, masses / 6.0])[:, None])[0]
    else:  # F^T (c I) F = c I in an orthonormal frame F: c on each of the joint's coordinates
        diagonal = np.zeros(pattern.size)
        for rod, mass in zip(truss.rods, masses):
            for jid in rod.joints:
                if jid in pattern.index_map:
                    off = pattern.index_map[jid]
                    diagonal[off : off + pattern.frames[jid].shape[1]] += 0.5 * mass
        entries = np.diag(diagonal)
    return AssembledMatrix(entries, dict(pattern.index_map))


def _free_basis(truss: Truss):
    """Lift of the anchor-reduced pattern, dense, and the mechanism joint ids.

    Nothing in the package calls it; it is kept only because bench/tracing.py
    and bench/test_bench.py look the name up.
    """
    return _pattern(truss, True).lift.toarray(), list(_span_frames(truss)[1])


def fem_determinant(
    truss: Truss, omega: float, kind: str = "consistent", reduce_anchors: bool = True
) -> float:
    """det(K - w^2 M) of the builders' K and M, reduced or not, as laplacian_determinant takes det D.

    They are in rod-span frames: at a mechanism joint the transverse
    directions carry no stiffness, and the determinant in joint coordinates
    would vanish at every omega; on a truss without one every frame is the
    identity.
    """
    k = assemble_stiffness(truss, reduce_anchors).entries
    m = assemble_mass(truss, kind, reduce_anchors).entries
    return float(np.linalg.det(k - omega**2 * m))


def fem_frequencies(
    truss: Truss,
    window: FrequencyWindow,
    kind: str = "consistent",
    divisions: int = 1,
    threads: int = 1,
):
    """Roots of det(K - w^2 M) of the anchored structure after subdividing each rod.

    Shares the counting sweep of the network-matrix method, the count being
    the Sturm count of K - w^2 M; this method has no poles, so the window is
    swept as a single segment. The subdivided truss is kept with the given
    one, so the sweeps of both mass kinds share its frames, pattern and K.
    K and M are the builders', in the rod-span frames of the network-matrix
    sweep: transverse directions at joints whose rods are collinear (every
    interior subdivision joint) carry no axial stiffness, and in joint
    coordinates the consistent-mass determinant would be identically zero.
    """
    if divisions < 1:
        raise ValueError(f"divisions must be >= 1, got {divisions}")
    fine = truss
    if divisions > 1:  # kept with the truss; at 1 the entry would hold the truss itself
        fine = truss._cached(("subdivide", divisions), lambda: subdivide(truss, divisions))
    k = fine._cached("fem_stiffness", lambda: assemble_stiffness(fine).entries)
    m = assemble_mass(fine, kind).entries
    func, count = _roots.determinant(lambda w: k[None] - w[:, None, None] ** 2 * m[None], k.nbytes)
    return _roots.window_roots(func, count, window, threads=threads)
