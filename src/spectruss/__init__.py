"""Frequency-domain dynamics of linearly elastic truss networks.

The frequency-dependent network matrix D(omega) couples joint displacement
amplitudes to applied joint forces without discretizing the rods; its singular
frequencies are the exact natural frequencies. Finite element (stiffness/mass)
and wave-amplitude matching baselines plus an event-driven wavefront simulator
are included for cross-validation.
"""

from .model import (
    DisconnectedTrussWarning,
    Joint,
    Material,
    Rod,
    RodProperties,
    Truss,
    TrussError,
    TrussParseError,
    TrussValidationError,
    builtin_structure,
    load_truss,
    subdivide,
    truss_to_json,
)
from .assembly import (
    SpectralMatrix,
    StiffnessMatrix,
    assemble_laplacian,
    assemble_stiffness,
)
from .spectrum import (
    FrequencyWindow,
    ModeResult,
    NotARootError,
    Pole,
    SingularAtFrequencyError,
    SweepResult,
    anchor_forces,
    extract_modes,
    find_natural_frequencies,
    laplacian_determinant,
    pole_set,
    resonant_mode_check,
    solve_forced_response,
)
from .fem import MassMatrix, assemble_mass, fem_determinant, fem_frequencies
from .scattering import (
    EventExplosionError,
    Impulse,
    ScatterEvent,
    TransmissionMatrix,
    Wavefront,
    WavefrontSimulation,
    reverberation_determinant,
    reverberation_frequencies,
    scatter,
    simulate_wavefronts,
    transmission_matrix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
