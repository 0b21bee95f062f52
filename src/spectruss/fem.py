"""Consistent and lumped mass-matrix baselines and the det(K - w^2 M) sweep.

The consistent matrix uses the linear shape function N(x) = 1 - x, for which

    integral_0^L N^2 dz = L/3        (diagonal blocks, rho*A*L/3 * e e^T)
    integral_0^L N(1-N) dz = L/6     (coupling blocks, +rho*A*L/6 * e e^T globally)

The lumped matrix puts half of each incident rod's mass at every joint
isotropically, rho*A*L/2 * I in each endpoint block, so it is diagonal. Only the
axial part e e^T of that inertia has a counterpart in the network model; the
transverse part is extra junction inertia, so the lumped frequencies converge to
the network values at first order, O(1/n) in the subdivision count n, while the
consistent frequencies converge at second order, O(1/n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _roots
from .assembly import _assemble, _pattern, assemble_stiffness
from .model import Truss, subdivide
from .spectrum import FrequencyWindow, _free_basis

MASS_KINDS = ("consistent", "lumped")


@dataclass
class MassMatrix:
    entries: np.ndarray
    index_map: dict
    reduced: bool
    kind: str


def assemble_mass(truss: Truss, kind: str = "consistent", reduce_anchors: bool = True) -> MassMatrix:
    if kind not in MASS_KINDS:
        raise ValueError(f"mass kind must be one of {MASS_KINDS}, got {kind!r}")
    pattern = _pattern(truss, reduce_anchors)
    masses = np.array([
        truss.materials[rod.material].density * rod.area * truss.rod_properties(rod).length
        for rod in truss.rods
    ])
    if kind == "consistent":
        entries = _assemble(pattern, np.concatenate([masses / 3.0, masses / 6.0])[:, None])[0]
    else:
        dim = truss.dimension
        diagonal = np.zeros(pattern.size)
        for rod, mass in zip(truss.rods, masses):
            for jid in rod.joints:
                if jid in pattern.index_map:
                    off = pattern.index_map[jid]
                    diagonal[off : off + dim] += 0.5 * mass
        entries = np.diag(diagonal)
    return MassMatrix(
        entries=entries, index_map=dict(pattern.index_map), reduced=reduce_anchors, kind=kind
    )


def fem_determinant(
    truss: Truss, omega: float, kind: str = "consistent", reduce_anchors: bool = True
) -> float:
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

    Shares the bracketing machinery of the network-matrix sweep; this method
    has no poles, so the window is swept as a single segment. K and M are
    projected once onto the rod-span frames of the free joints, as in the
    network-matrix sweep: transverse directions at joints whose rods are
    collinear (every interior subdivision joint) carry no axial stiffness, and
    without the projection the consistent-mass determinant is identically zero.
    """
    if divisions < 1:
        raise ValueError(f"divisions must be >= 1, got {divisions}")
    fine = subdivide(truss, divisions)
    basis, _ = _free_basis(fine)
    k = basis.T @ assemble_stiffness(fine).entries @ basis
    m = basis.T @ assemble_mass(fine, kind).entries @ basis

    def func(omegas):
        stack = k[None, :, :] - np.asarray(omegas)[:, None, None] ** 2 * m[None, :, :]
        return np.linalg.slogdet(stack)

    func = _roots.chunked(func, k.nbytes)

    def sigma(omega):
        svals = np.linalg.svd(k - omega**2 * m, compute_uv=False)
        return float(svals[-1]), float(svals[0])

    lo, hi = window.omega_min, window.omega_max
    roots, _ = _roots.sign_sweep_roots(
        func, [(lo, hi, window.points(lo, hi, fine.tau_min))], window.tol_at,
        threads=threads, sigma_fn=sigma, sigma_tol=1e-7,
    )
    return roots
