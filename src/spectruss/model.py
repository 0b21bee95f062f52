"""Truss data model, JSON structure files, derived rod quantities and subdivision."""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np


class TrussError(ValueError):
    """Base class for structure-file problems."""


class TrussParseError(TrussError):
    """The document is not valid JSON or is missing required fields."""


class TrussValidationError(TrussError):
    """The document parsed but violates a structural invariant."""


class DisconnectedTrussWarning(UserWarning):
    """The rod graph has more than one connected component."""


@dataclass(frozen=True)
class Material:
    name: str
    youngs_modulus: float  # Pa
    density: float  # kg/m^3

    def __post_init__(self):
        for field in ("youngs_modulus", "density"):
            value = getattr(self, field)
            if not _is_number(value):
                raise TrussValidationError(f"material '{self.name}': {field} must be a number, not {value!r}")
            if not (value > 0.0):
                raise TrussValidationError(f"material '{self.name}': {field} must be > 0, got {value}")


@dataclass(frozen=True)
class Joint:
    id: str
    position: tuple[float, ...]  # global coordinates, m
    anchored: bool = False  # displacement pinned to zero; reaction force allowed


@dataclass(frozen=True)
class Rod:
    id: str
    joints: tuple[str, str]  # ordered endpoint pair; unit vector points first -> second
    area: float  # m^2
    material: str


@dataclass(frozen=True)
class RodProperties:
    """Per-rod spectral quantities derived from geometry and material.

    wave_speed      c = sqrt(E/rho)
    impedance       Gamma = sqrt(E*rho)
    line_impedance  Lambda = A*Gamma
    transit_time    tau = L/c
    spring_stiffness  k = Lambda/tau = A*E/L
    unit_vector     from the rod's first endpoint toward its second, global frame
    """

    length: float
    wave_speed: float
    impedance: float
    line_impedance: float
    transit_time: float
    spring_stiffness: float
    unit_vector: np.ndarray


class Truss:
    """Immutable truss structure: joints, rods and materials.

    All joints share one global coordinate frame; rod direction vectors obey
    e_ba = -e_ab in that frame. Instances are safe to share across threads.
    Matrix patterns and bases derived from the structure are built on first
    use and kept with the instance (see _cached), so they live as long as it.
    """

    def __init__(self, dimension, joints, rods, materials, dimensionless=False):
        if dimension not in (2, 3):  # refuses 2.7 too, which int() would take for 2
            raise TrussValidationError(f"dimension must be 2 or 3, got {dimension}")
        self.dimension = int(dimension)
        self.joints = tuple(joints)
        self.rods = tuple(rods)
        self.materials = dict(materials)
        self.dimensionless = bool(dimensionless)
        self._validate()

        self._joint_index = {j.id: i for i, j in enumerate(self.joints)}
        self._rod_index = {r.id: i for i, r in enumerate(self.rods)}
        self._properties = [self._derive(r) for r in self.rods]
        self._neighbors = {j.id: [] for j in self.joints}
        for r in self.rods:
            a, b = r.joints
            self._neighbors[a].append((b, r))
            self._neighbors[b].append((a, r))
        for jid in self._neighbors:
            self._neighbors[jid].sort(key=lambda pair: pair[0])
        self._check_connected()
        self._derived = {}

    # -- validation ---------------------------------------------------------

    def _validate(self):
        if not self.joints:
            raise TrussValidationError("truss has no joints")
        if not self.rods:
            raise TrussValidationError("truss has no rods")

        seen = set()
        for j in self.joints:
            if j.id in seen:
                raise TrussValidationError(f"duplicate joint id '{j.id}'")
            seen.add(j.id)
            if len(j.position) != self.dimension:
                raise TrussValidationError(
                    f"joint '{j.id}' has {len(j.position)} coordinates in a "
                    f"{self.dimension}-dimensional truss"
                )
            for x in j.position:
                if not _is_number(x):
                    raise TrussValidationError(f"joint '{j.id}': coordinate must be a number, not {x!r}")
            if not all(math.isfinite(x) for x in j.position):
                raise TrussValidationError(f"joint '{j.id}' has non-finite coordinates")
            if not isinstance(j.anchored, (bool, np.bool_)):  # a string or number would be truthy
                raise TrussValidationError(
                    f"joint '{j.id}': anchored must be True or False, not {j.anchored!r}"
                )

        pos = {j.id: np.array(j.position, dtype=float) for j in self.joints}
        pairs = set()
        rod_ids = set()
        for r in self.rods:
            if r.id in rod_ids:
                raise TrussValidationError(f"duplicate rod id '{r.id}'")
            rod_ids.add(r.id)
            a, b = r.joints
            for end in (a, b):
                if end not in pos:
                    raise TrussValidationError(f"rod '{r.id}' references unknown joint '{end}'")
            if a == b:
                raise TrussValidationError(f"rod '{r.id}' connects joint '{a}' to itself")
            key = (a, b) if a < b else (b, a)
            if key in pairs:
                raise TrussValidationError(f"rod '{r.id}' duplicates endpoint pair {key}")
            pairs.add(key)
            if r.material not in self.materials:
                raise TrussValidationError(f"rod '{r.id}' references unknown material '{r.material}'")
            if not _is_number(r.area):
                raise TrussValidationError(f"rod '{r.id}': area must be a number, not {r.area!r}")
            if not (r.area > 0.0) or not math.isfinite(r.area):
                raise TrussValidationError(f"rod '{r.id}': area must be a positive finite number")
            if float(np.linalg.norm(pos[b] - pos[a])) <= 0.0:
                raise TrussValidationError(f"rod '{r.id}' has zero length")

    def _check_connected(self):
        start = self.joints[0].id
        seen = {start}
        stack = [start]
        while stack:
            for other, _ in self._neighbors[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        if len(seen) != len(self.joints):
            warnings.warn(
                f"truss graph is disconnected ({len(seen)} of {len(self.joints)} "
                "joints reachable from the first)",
                DisconnectedTrussWarning,
                stacklevel=2,
            )

    def _derive(self, rod: Rod) -> RodProperties:
        mat = self.materials[rod.material]
        a = np.array(self.joint(rod.joints[0]).position, dtype=float)
        b = np.array(self.joint(rod.joints[1]).position, dtype=float)
        length = float(np.linalg.norm(b - a))
        c = math.sqrt(mat.youngs_modulus / mat.density)
        gamma = math.sqrt(mat.youngs_modulus * mat.density)
        lam = rod.area * gamma
        tau = length / c
        unit = (b - a) / length
        unit.setflags(write=False)
        return RodProperties(
            length=length,
            wave_speed=c,
            impedance=gamma,
            line_impedance=lam,
            transit_time=tau,
            spring_stiffness=lam / tau,
            unit_vector=unit,
        )

    # -- lookups ------------------------------------------------------------

    def joint(self, joint_id: str) -> Joint:
        return self.joints[self._joint_index[joint_id]]

    def rod(self, rod_id: str) -> Rod:
        return self.rods[self._rod_index[rod_id]]

    def rod_properties(self, rod) -> RodProperties:
        rod_id = rod.id if isinstance(rod, Rod) else rod
        return self._properties[self._rod_index[rod_id]]

    def neighbors(self, joint_id: str) -> tuple:
        """(neighbor joint id, connecting rod) pairs, sorted by neighbor id."""
        return tuple(self._neighbors[joint_id])

    @property
    def free_joints(self) -> tuple:
        return tuple(j for j in self.joints if not j.anchored)

    @property
    def anchored_joints(self) -> tuple:
        return tuple(j for j in self.joints if j.anchored)

    @property
    def tau_min(self) -> float:
        return min(p.transit_time for p in self._properties)

    def _cached(self, key, build):
        """build() on the first call for key, the stored value afterwards.

        The structure never changes, so nothing derived from it goes stale.
        Threads that miss at once may each call build(); all of them get the
        value stored first.
        """
        try:
            return self._derived[key]
        except KeyError:
            return self._derived.setdefault(key, build())

    def total_rod_mass(self) -> float:
        return sum(
            self.materials[r.material].density * r.area * p.length
            for r, p in zip(self.rods, self._properties)
        )


# -- structure files ---------------------------------------------------------


def _is_number(value) -> bool:
    """A real number and not a bool: float() would take a boolean for 0 or 1 and parse a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(value, name: str) -> float:
    """float(value) for a number (_is_number)."""
    if not _is_number(value):
        raise TypeError(f"{name} must be a number, not {value!r}")
    return float(value)


def _flag(value, name: str) -> bool:
    """value if it is a JSON boolean: bool() would take any string or nonzero number for true."""
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be true or false, not {value!r}")
    return value


def load_truss(document) -> Truss:
    """Build a Truss from a JSON structure document (text or parsed dict)."""
    if isinstance(document, (str, bytes)):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise TrussParseError(f"invalid JSON: {exc}") from exc
    else:
        data = document
    if not isinstance(data, dict):
        raise TrussParseError("structure document must be a JSON object")

    try:
        dimension = data["dimension"]
        materials_raw = data["materials"]
        joints_raw = data["joints"]
        rods_raw = data["rods"]
    except KeyError as exc:
        raise TrussParseError(f"missing required field {exc}") from exc
    try:
        dimension = _number(dimension, "dimension")
        dimensionless = _flag(data.get("dimensionless", False), "dimensionless")
    except (TypeError, ValueError) as exc:
        raise TrussParseError(str(exc)) from exc

    materials = {}
    for name, m in materials_raw.items():
        try:
            materials[name] = Material(
                name=name,
                youngs_modulus=_number(m["youngs_modulus"], "youngs_modulus"),
                density=_number(m["density"], "density"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, TrussError):
                raise
            raise TrussParseError(f"material '{name}': {exc}") from exc

    joints = []
    for entry in joints_raw:
        try:
            joints.append(
                Joint(
                    id=str(entry["id"]),
                    position=tuple(_number(x, "coordinate") for x in entry["position"]),
                    anchored=_flag(entry.get("anchored", False), "anchored"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TrussParseError(f"joint entry {entry!r}: {exc}") from exc

    rods = []
    for entry in rods_raw:
        try:
            ends = tuple(str(x) for x in entry["joints"])
            if len(ends) != 2:
                raise TrussValidationError(
                    f"rod entry {entry!r} must reference exactly two joints"
                )
            rods.append(
                Rod(
                    id=str(entry.get("id", ends[0] + ends[1])),
                    joints=ends,
                    area=_number(entry["area"], "area"),
                    material=str(entry["material"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, TrussError):
                raise
            raise TrussParseError(f"rod entry {entry!r}: {exc}") from exc

    return Truss(
        dimension=dimension,
        joints=joints,
        rods=rods,
        materials=materials,
        dimensionless=dimensionless,
    )


def truss_to_json(truss: Truss) -> str:
    """Canonical JSON for a truss; load_truss round-trips it bit-identically."""
    doc = {
        "dimension": truss.dimension,
        "dimensionless": truss.dimensionless,
        "materials": {
            name: {"youngs_modulus": m.youngs_modulus, "density": m.density}
            for name, m in truss.materials.items()
        },
        "joints": [
            {"id": j.id, "position": list(j.position), "anchored": bool(j.anchored)}
            for j in truss.joints
        ],
        "rods": [
            {"id": r.id, "joints": list(r.joints), "area": r.area, "material": r.material}
            for r in truss.rods
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# -- refinement and builtins --------------------------------------------------


def subdivide(truss: Truss, n: int) -> Truss:
    """Replace each rod by n collinear equal-length rods with n-1 interior joints.

    Interior joints are unanchored and named '{rod id}#{k}'; segment rods are
    named '{rod id}/{k}'. Original joints, anchors and ids are preserved.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    if n == 1:
        return truss

    joints = list(truss.joints)
    rods = []
    for rod in truss.rods:
        a = np.asarray(truss.joint(rod.joints[0]).position, dtype=float)
        b = np.asarray(truss.joint(rod.joints[1]).position, dtype=float)
        chain = [rod.joints[0]]
        for k in range(1, n):
            jid = f"{rod.id}#{k}"
            position = tuple(a + (k / n) * (b - a))
            joints.append(Joint(id=jid, position=position, anchored=False))
            chain.append(jid)
        chain.append(rod.joints[1])
        for k in range(n):
            rods.append(
                Rod(
                    id=f"{rod.id}/{k + 1}",
                    joints=(chain[k], chain[k + 1]),
                    area=rod.area,
                    material=rod.material,
                )
            )
    return Truss(
        dimension=truss.dimension,
        joints=joints,
        rods=rods,
        materials=truss.materials,
        dimensionless=truss.dimensionless,
    )


_UNIT_MATERIAL = Material(name="unit", youngs_modulus=1.0, density=1.0)


def builtin_structure(name, scale=1.0, material=None, area=1.0) -> Truss:
    """Built-in 2D example structures.

    'square': four joints on a square of side `scale`, four edge rods plus the
    3-2 cross bar of length sqrt(2)*scale; no anchors.
    'bridge': parallelogram of seven rods trisected into equilateral triangles
    with side `scale`; end joints 1 and 5 anchored.
    """
    if not (scale > 0.0):
        raise ValueError(f"scale must be > 0, got {scale}")
    dimensionless = material is None
    mat = _UNIT_MATERIAL if material is None else material
    L = float(scale)

    if name == "square":
        joints = [
            Joint("1", (0.0, 0.0)),
            Joint("2", (L, 0.0)),
            Joint("3", (0.0, L)),
            Joint("4", (L, L)),
        ]
        pairs = [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("2", "3")]
    elif name == "bridge":
        h = L * math.sqrt(3.0) / 2.0
        joints = [
            Joint("1", (-L, 0.0), anchored=True),
            Joint("2", (-L / 2.0, h)),
            Joint("3", (0.0, 0.0)),
            Joint("4", (L / 2.0, h)),
            Joint("5", (L, 0.0), anchored=True),
        ]
        pairs = [
            ("1", "2"), ("1", "3"), ("2", "3"), ("2", "4"),
            ("3", "4"), ("3", "5"), ("4", "5"),
        ]
    else:
        raise ValueError(f"unknown builtin structure '{name}' (expected 'square' or 'bridge')")

    rods = [Rod(id=a + b, joints=(a, b), area=float(area), material=mat.name) for a, b in pairs]
    return Truss(
        dimension=2,
        joints=joints,
        rods=rods,
        materials={mat.name: mat},
        dimensionless=dimensionless,
    )
