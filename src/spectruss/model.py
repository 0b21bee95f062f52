"""Truss data model, JSON structure files, derived rod quantities and subdivision."""

from __future__ import annotations

import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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


class _RodEnds(NamedTuple):
    """Every rod end of a truss, one port each, joint by joint, each joint's in neighbor-id order.

    rod_joints holds each rod's first and second joint index, (rods, 2).
    Joint j's k-th neighbor, in the order of Truss.neighbors, is reached by
    port start[j] + k: the order of the rows and columns of the joint's T.
    A front leaves a joint by a port and arrives at the rod's port at the
    other joint, far; the matching system's unknown of a port is the
    amplitude leaving by it, numbered by its rod end. The rod-span frames
    read each joint's rod directions off this table, and the wave methods
    read a port's rod data off the rod table at its rod. Built once per
    truss, at construction, every array read-only.
    """

    rod_joints: np.ndarray
    start: np.ndarray  # each joint's first port, then the port count
    joint: np.ndarray  # the joint a port belongs to
    neighbor: np.ndarray  # the joint at the rod's other end
    rod: np.ndarray  # rod index
    sign: np.ndarray  # +1 where the rod starts at the port's joint, -1 where it ends there
    end: np.ndarray  # rod end: 2 * rod where the rod starts at the port's joint, 2 * rod + 1 where it ends
    far: np.ndarray  # the port at the rod's other end


class Truss:
    """Immutable truss structure: joints, rods and materials.

    All joints share one global coordinate frame; rod direction vectors obey
    e_ba = -e_ab in that frame. Instances are safe to share across threads.
    The rod-end table (_RodEnds) and the rod table (_build_rod_table) are
    built at construction; matrix patterns and bases are built on first use
    and kept with the instance (see _cached).
    """

    def __init__(self, dimension, joints, rods, materials, dimensionless=False):
        if dimension not in (2, 3):  # refuses 2.7 too, which int() would take for 2
            raise TrussValidationError(f"dimension must be 2 or 3, got {dimension}")
        self.dimension = int(dimension)
        self.joints = tuple(joints)
        self.rods = tuple(rods)
        self.materials = dict(materials)
        self.dimensionless = bool(dimensionless)
        length = self._validate()

        self._joint_index = {j.id: i for i, j in enumerate(self.joints)}
        self._rod_index = {r.id: i for i, r in enumerate(self.rods)}
        self._rod_ends = self._build_rod_ends()
        self._rod_table = self._build_rod_table(length)
        self._check_connected()
        self._derived = {}

    # -- validation ---------------------------------------------------------

    def _validate(self) -> list:
        """Raise TrussValidationError at the first fault; else return every rod's length, in rod order."""
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
        lengths = []
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
            length = np.linalg.norm(pos[b] - pos[a])
            if length <= 0.0:
                raise TrussValidationError(f"rod '{r.id}' has zero length")
            lengths.append(length)
        return lengths

    def _build_rod_ends(self) -> _RodEnds:
        """The _RodEnds: rod end e = 2 * rod + k, k = 0 at the rod's first joint and 1 at
        its second, sorted by joint, then by neighbor id (_ranks); the sort's permutation
        is the ports' rod ends, and its inverse maps a rod end to its port."""
        rod_joints = np.array([[self._joint_index[jid] for jid in r.joints] for r in self.rods])
        joint, neighbor = rod_joints.ravel(), rod_joints[:, ::-1].ravel()
        ends = np.lexsort((_ranks([j.id for j in self.joints])[neighbor], joint))
        table = _RodEnds(rod_joints, np.searchsorted(joint[ends], np.arange(len(self.joints) + 1)),
                         joint[ends], neighbor[ends], ends // 2, 1 - 2 * (ends % 2), ends,
                         np.argsort(ends)[ends ^ 1])
        for column in table:
            column.setflags(write=False)
        return table

    def _check_connected(self):
        ends, seen, stack = self._rod_ends, {0}, [0]
        while stack:
            j = stack.pop()
            fresh = set(ends.neighbor[ends.start[j] : ends.start[j + 1]].tolist()) - seen
            seen |= fresh
            stack.extend(fresh)
        if len(seen) != len(self.joints):
            warnings.warn(
                f"truss graph is disconnected ({len(seen)} of {len(self.joints)} "
                "joints reachable from the first)",
                DisconnectedTrussWarning,
                stacklevel=_caller_level(),
            )

    def _build_rod_table(self, length) -> RodProperties:
        """Every RodProperties field as one read-only array over the rods, in rod
        order (unit_vector of shape (rods, dim)): the truss's only copy of them.

        length holds the rods' lengths as _validate computed them, one
        np.linalg.norm per rod (norm(axis=1) rounds some differently).
        """
        position = np.array([j.position for j in self.joints], dtype=float)
        ends = self._rod_ends.rod_joints
        delta = position[ends[:, 1]] - position[ends[:, 0]]
        length = np.array(length)
        wave = {name: (math.sqrt(m.youngs_modulus / m.density), math.sqrt(m.youngs_modulus * m.density))
                for name, m in self.materials.items()}
        c, gamma = np.array([wave[r.material] for r in self.rods]).T.copy()
        lam = np.array([r.area for r in self.rods], dtype=float) * gamma
        tau = length / c
        table = RodProperties(length, c, gamma, lam, tau, lam / tau, delta / length[:, None])
        for column in vars(table).values():
            column.setflags(write=False)
        return table

    # -- lookups ------------------------------------------------------------

    def joint(self, joint_id: str) -> Joint:
        return self.joints[self._joint_index[joint_id]]

    def rod(self, rod_id: str) -> Rod:
        return self.rods[self._rod_index[rod_id]]

    def rod_properties(self, rod) -> RodProperties:
        """The rod's row of the rod table: floats, and a read-only view of its unit vector."""
        k = self._rod_index[rod.id if isinstance(rod, Rod) else rod]
        *scalars, unit_vector = (column[k] for column in vars(self._rod_table).values())
        return RodProperties(*map(float, scalars), unit_vector)

    def neighbors(self, joint_id: str) -> tuple:
        """(neighbor joint id, connecting rod) pairs, sorted by neighbor id."""
        ends, j = self._rod_ends, self._joint_index[joint_id]
        ports = range(ends.start[j], ends.start[j + 1])
        return tuple((self.joints[ends.neighbor[p]].id, self.rods[ends.rod[p]]) for p in ports)

    @property
    def free_joints(self) -> tuple:
        return tuple(j for j in self.joints if not j.anchored)

    @property
    def anchored_joints(self) -> tuple:
        return tuple(j for j in self.joints if j.anchored)

    @property
    def tau_min(self) -> float:
        return float(self._rod_table.transit_time.min())

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

    def _rod_masses(self) -> np.ndarray:
        """rho * A * L of every rod, in rod order."""
        rho_area = np.array([self.materials[r.material].density * r.area for r in self.rods])
        return rho_area * self._rod_table.length

    def total_rod_mass(self) -> float:
        return sum(self._rod_masses().tolist())


def _ranks(ids) -> np.ndarray:
    """Each id's position among the ids sorted as strings."""
    rank = np.empty(len(ids), dtype=int)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _caller_level() -> int:
    """The stacklevel of the first frame outside the package, for a warnings.warn in the
    function calling this one: the code that built the truss, through load_truss too."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    return level


# -- structure files ---------------------------------------------------------


def _is_number(value) -> bool:
    """A real number and not a bool: float() would take a boolean for 0 or 1 and parse a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_count(value, name: str) -> None:
    """Refuse a count that is not an integer >= 1 with ValueError: a bool would count as
    0 or 1, and range() fails on 2.0."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


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
    _check_count(n, "subdivision count")
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
