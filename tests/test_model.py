import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import braced_lattice, random_truss
from spectruss import (
    DisconnectedTrussWarning,
    Joint,
    Material,
    Rod,
    Truss,
    TrussParseError,
    TrussValidationError,
    builtin_structure,
    load_truss,
    subdivide,
    truss_to_json,
)

SQUARE_DOC = {
    "dimension": 2,
    "dimensionless": True,
    "materials": {"m": {"youngs_modulus": 1.0, "density": 1.0}},
    "joints": [
        {"id": "1", "position": [0.0, 0.0]},
        {"id": "2", "position": [1.0, 0.0]},
        {"id": "3", "position": [0.0, 1.0]},
        {"id": "4", "position": [1.0, 1.0]},
    ],
    "rods": [
        {"joints": ["1", "2"], "area": 1.0, "material": "m"},
        {"joints": ["1", "3"], "area": 1.0, "material": "m"},
        {"joints": ["2", "4"], "area": 1.0, "material": "m"},
        {"joints": ["3", "4"], "area": 1.0, "material": "m"},
        {"joints": ["2", "3"], "area": 1.0, "material": "m"},
    ],
}


def test_load_square_document():
    truss = load_truss(json.dumps(SQUARE_DOC))
    assert len(truss.joints) == 4
    assert len(truss.rods) == 5
    # default rod ids are concatenated joint ids
    assert truss.rod("23").joints == ("2", "3")
    assert truss.rod_properties("23").length == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_zero_length_rod_names_offender():
    doc = dict(SQUARE_DOC)
    doc["joints"] = SQUARE_DOC["joints"] + [{"id": "5", "position": [1.0, 0.0]}]
    doc["rods"] = SQUARE_DOC["rods"] + [{"id": "bad", "joints": ["2", "5"], "area": 1.0, "material": "m"}]
    with pytest.raises(TrussValidationError, match="bad"):
        load_truss(json.dumps(doc))


def test_bridge_document_anchors():
    text = truss_to_json(builtin_structure("bridge"))
    truss = load_truss(text)
    assert len(truss.joints) == 5
    assert len(truss.rods) == 7
    assert sorted(j.id for j in truss.anchored_joints) == ["1", "5"]


def test_duplicate_joint_id():
    doc = dict(SQUARE_DOC)
    doc["joints"] = SQUARE_DOC["joints"] + [{"id": "2", "position": [5.0, 5.0]}]
    with pytest.raises(TrussValidationError, match="'2'"):
        load_truss(json.dumps(doc))


def test_unknown_material_names_rod():
    doc = dict(SQUARE_DOC)
    doc["rods"] = SQUARE_DOC["rods"][:-1] + [
        {"id": "23", "joints": ["2", "3"], "area": 1.0, "material": "nope"}
    ]
    with pytest.raises(TrussValidationError, match="23"):
        load_truss(json.dumps(doc))


def test_mixed_dimension_names_joint():
    doc = dict(SQUARE_DOC)
    doc["joints"] = SQUARE_DOC["joints"][:-1] + [{"id": "4", "position": [1.0, 1.0, 0.0]}]
    with pytest.raises(TrussValidationError, match="'4'"):
        load_truss(json.dumps(doc))


def _edit(field, value):
    """SQUARE_DOC, parsed, with one field replaced: a top-level key, or (list, index, key) inside one."""
    doc = copy.deepcopy(SQUARE_DOC)
    if isinstance(field, tuple):
        where, index, key = field
        doc[where][index][key] = value
    elif value is None:
        del doc[field]
    else:
        doc[field] = value
    return doc


@pytest.mark.parametrize(
    "doc, error, message",
    [
        (_edit("dimension", 4), TrussValidationError, "dimension must be 2 or 3, got 4"),
        (_edit("joints", []), TrussValidationError, "truss has no joints"),
        (_edit("rods", []), TrussValidationError, "truss has no rods"),
        (_edit(("joints", 2, "position"), [0.0, math.inf]), TrussValidationError,
         "joint '3' has non-finite coordinates"),
        (_edit(("rods", 1, "id"), "12"), TrussValidationError, "duplicate rod id '12'"),
        (_edit(("rods", 0, "joints"), ["1", "9"]), TrussValidationError,
         "rod '19' references unknown joint '9'"),
        (_edit(("rods", 0, "joints"), ["2", "2"]), TrussValidationError,
         "rod '22' connects joint '2' to itself"),
        (_edit(("rods", 0, "joints"), ["3", "2"]), TrussValidationError,
         "rod '23' duplicates endpoint pair ('2', '3')"),
        (_edit(("rods", 2, "area"), 0.0), TrussValidationError,
         "rod '24': area must be a positive finite number"),
        (_edit(("rods", 2, "area"), math.nan), TrussValidationError,
         "rod '24': area must be a positive finite number"),
        (_edit("rods", None), TrussParseError, "missing required field 'rods'"),
        (_edit("materials", {"m": {"youngs_modulus": 1.0}}), TrussParseError,
         "material 'm': 'density'"),
        (_edit(("joints", 0, "position"), None), TrussParseError,
         "joint entry {'id': '1', 'position': None}"),
        (_edit(("rods", 4, "area"), "wide"), TrussParseError,
         "rod entry {'joints': ['2', '3'], 'area': 'wide'"),
        (_edit(("rods", 4, "joints"), ["2", "3", "4"]), TrussValidationError,
         "rod entry {'joints': ['2', '3', '4'], 'area': 1.0, 'material': 'm'} "
         "must reference exactly two joints"),
        (_edit("materials", {"m": {"youngs_modulus": -1, "density": 1.0}}), TrussValidationError,
         "material 'm': youngs_modulus must be > 0, got -1.0"),
        # values that int(), bool() or float() would take silently
        (_edit("dimension", 2.7), TrussValidationError, "dimension must be 2 or 3, got 2.7"),
        (_edit("dimension", True), TrussParseError, "dimension must be a number, not True"),
        (_edit("dimensionless", "false"), TrussParseError, "dimensionless must be true or false, not 'false'"),
        (_edit(("joints", 0, "anchored"), "false"), TrussParseError,
         "joint entry {'id': '1', 'position': [0.0, 0.0], 'anchored': 'false'}: "
         "anchored must be true or false, not 'false'"),
        (_edit(("joints", 0, "anchored"), 0.5), TrussParseError,
         "joint entry {'id': '1', 'position': [0.0, 0.0], 'anchored': 0.5}: "
         "anchored must be true or false, not 0.5"),
        (_edit(("joints", 2, "position"), [0.0, False]), TrussParseError,
         "joint entry {'id': '3', 'position': [0.0, False]}: coordinate must be a number, not False"),
        (_edit(("rods", 2, "area"), True), TrussParseError,
         "rod entry {'joints': ['2', '4'], 'area': True, 'material': 'm'}: area must be a number, not True"),
        (_edit("materials", {"m": {"youngs_modulus": 1.0, "density": True}}), TrussParseError,
         "material 'm': density must be a number, not True"),
        # strings that float() would parse
        (_edit("dimension", "2"), TrussParseError, "dimension must be a number, not '2'"),
        (_edit("materials", {"m": {"youngs_modulus": "1.0", "density": 1.0}}), TrussParseError,
         "material 'm': youngs_modulus must be a number, not '1.0'"),
        (_edit(("joints", 2, "position"), ["0", 1.0]), TrussParseError,
         "joint entry {'id': '3', 'position': ['0', 1.0]}: coordinate must be a number, not '0'"),
        (_edit(("rods", 2, "area"), "1.5"), TrussParseError,
         "rod entry {'joints': ['2', '4'], 'area': '1.5', 'material': 'm'}: area must be a number, not '1.5'"),
    ],
)
def test_invalid_document_names_the_offender(doc, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        load_truss(doc)


@pytest.mark.parametrize(
    "text, message",
    [("{", "invalid JSON: Expecting property name"), ("[1, 2]", "structure document must be a JSON object")],
)
def test_unparsable_text_is_a_parse_error(text, message):
    with pytest.raises(TrussParseError, match=re.escape(message)):
        load_truss(text)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Material("steel", 0.0, 7850.0), "material 'steel': youngs_modulus must be > 0, got 0.0"),
        (lambda: Material("steel", 200e9, -1.0), "material 'steel': density must be > 0, got -1.0"),
        (lambda: subdivide(builtin_structure("square"), 0), "subdivision count must be >= 1, got 0"),
        (lambda: subdivide(builtin_structure("square"), -1), "subdivision count must be >= 1, got -1"),
        (lambda: builtin_structure("bridge", scale=-2.0), "scale must be > 0, got -2.0"),
        (lambda: builtin_structure("tower"), "unknown builtin structure 'tower'"),
        (lambda: Truss(2.5, [], [], {}), "dimension must be 2 or 3, got 2.5"),
        (lambda: _anchored_truss("false"), "joint 'a': anchored must be True or False, not 'false'"),
        (lambda: _anchored_truss(1), "joint 'a': anchored must be True or False, not 1"),
        # strings and booleans, which comparisons and math.isfinite would take or fail on with TypeError
        (lambda: Material("m", "1", 1.0), "material 'm': youngs_modulus must be a number, not '1'"),
        (lambda: Material("m", 1.0, True), "material 'm': density must be a number, not True"),
        (lambda: _two_joint_truss(_UNIT, length="1"), "joint 'b': coordinate must be a number, not '1'"),
        (lambda: _two_joint_truss(_UNIT, length=True), "joint 'b': coordinate must be a number, not True"),
        (lambda: _two_joint_truss(_UNIT, area="1.5"), "rod 'ab': area must be a number, not '1.5'"),
        (lambda: _two_joint_truss(_UNIT, area=False), "rod 'ab': area must be a number, not False"),
        # True returned the truss itself, 2.0 failed with TypeError inside range
        (lambda: subdivide(builtin_structure("square"), True), "subdivision count must be an integer, not True"),
        (lambda: subdivide(builtin_structure("square"), 2.0), "subdivision count must be an integer, not 2.0"),
        (lambda: subdivide(builtin_structure("square"), "2"), "subdivision count must be an integer, not '2'"),
    ],
)
def test_invalid_arguments_raise_value_errors(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_subdivide_takes_any_integer_type():
    square = builtin_structure("square")
    assert truss_to_json(subdivide(square, np.int64(2))) == truss_to_json(subdivide(square, 2))


_UNIT = Material("m", 1.0, 1.0)


def _anchored_truss(anchored):
    """One rod from joint a, anchored as given, to a free joint b."""
    joints = [Joint("a", (0.0, 0.0), anchored=anchored), Joint("b", (1.0, 0.0))]
    return Truss(2, joints, [Rod("ab", ("a", "b"), 1.0, "m")], {"m": _UNIT})


def test_numpy_bool_anchors_a_joint():
    truss = _anchored_truss(np.bool_(True))
    assert [j.id for j in truss.anchored_joints] == ["a"]
    assert load_truss(truss_to_json(truss)).joint("a").anchored is True


def test_disconnected_warns():
    # the warning names the code that built the truss, not the library's own
    # lines, whether it built the truss directly or through load_truss
    mat = Material("m", 1.0, 1.0)
    joints = [
        Joint("a", (0.0, 0.0)),
        Joint("b", (1.0, 0.0)),
        Joint("c", (5.0, 5.0)),
        Joint("d", (6.0, 5.0)),
    ]
    rods = [
        Rod("ab", ("a", "b"), 1.0, "m"),
        Rod("cd", ("c", "d"), 1.0, "m"),
    ]
    with pytest.warns(DisconnectedTrussWarning) as direct:
        truss = Truss(2, joints, rods, {"m": mat})
    with pytest.warns(DisconnectedTrussWarning) as loaded:
        load_truss(truss_to_json(truss))
    assert [record.filename for record in (*direct, *loaded)] == [__file__, __file__]


def _isolated_joint_truss():
    """Joints "b" and "a" joined by a rod, and a joint "c" with none, given first."""
    joints = [Joint("c", (2.0, 0.0)), Joint("b", (1.0, 0.0)), Joint("a", (0.0, 0.0))]
    return Truss(2, joints, [Rod("ba", ("b", "a"), 1.0, "m")], {"m": Material("m", 1.0, 1.0)})


def test_rod_end_table_lists_each_joint_s_rods_in_neighbor_id_order():
    # reference: every rod entered at both its joints, each joint's list sorted by
    # neighbor id, as the truss kept them before its one rod-end table
    with pytest.warns(DisconnectedTrussWarning, match=re.escape("(1 of 3 joints reachable")):
        lone = _isolated_joint_truss()
    rng = np.random.default_rng(0)
    trusses = [lone, builtin_structure("bridge"), subdivide(builtin_structure("square"), 3), braced_lattice(4)]
    for truss in trusses + [random_truss(rng) for _ in range(20)]:
        reference = {j.id: [] for j in truss.joints}
        for rod in truss.rods:
            a, b = rod.joints
            reference[a].append((b, rod))
            reference[b].append((a, rod))
        ends = truss._rod_ends
        assert ends.rod_joints.tolist() == [[truss._joint_index[jid] for jid in r.joints] for r in truss.rods]
        for k, joint in enumerate(truss.joints):
            pairs = tuple(sorted(reference[joint.id], key=lambda pair: pair[0]))
            assert truss.neighbors(joint.id) == pairs
            ports = slice(ends.start[k], ends.start[k + 1])
            assert ends.joint[ports].tolist() == [k] * len(pairs)
            assert ends.neighbor[ports].tolist() == [truss._joint_index[other] for other, _ in pairs]
            assert ends.rod[ports].tolist() == [truss._rod_index[rod.id] for _, rod in pairs]
            assert ends.sign[ports].tolist() == [1 if rod.joints[0] == joint.id else -1 for _, rod in pairs]
        assert ends.start[-1] == 2 * len(truss.rods)
        # each port's rod end 2 * rod + k (k = 1 at the rod's second joint), and the rod's other port
        port, end, far = np.arange(ends.start[-1]), ends.end, ends.far
        assert sorted(end.tolist()) == port.tolist()
        assert np.array_equal(end // 2, ends.rod) and np.array_equal(1 - 2 * (end % 2), ends.sign)
        assert np.array_equal(far[far], port) and not np.any(far == port)
        assert np.array_equal(ends.rod[far], ends.rod) and np.array_equal(ends.sign[far], -ends.sign)
        assert np.array_equal(end[far], end ^ 1)
        assert not any(column.flags.writeable for column in ends)  # end and far among them


# -- derived rod quantities ------------------------------------------------------


def _two_joint_truss(material, length=1.0, area=1.0):
    joints = [Joint("a", (0.0, 0.0)), Joint("b", (length, 0.0))]
    rods = [Rod("ab", ("a", "b"), area, material.name)]
    return Truss(2, joints, rods, {material.name: material})


def test_rod_properties_unit():
    truss = _two_joint_truss(Material("m", 1.0, 1.0))
    props = truss.rod_properties("ab")
    assert props.wave_speed == pytest.approx(1.0)
    assert props.impedance == pytest.approx(1.0)
    assert props.line_impedance == pytest.approx(1.0)
    assert props.transit_time == pytest.approx(1.0)
    assert props.spring_stiffness == pytest.approx(1.0)


def test_rod_properties_stiff_material():
    props = _two_joint_truss(Material("m", 4.0, 1.0), length=2.0).rod_properties("ab")
    assert props.wave_speed == pytest.approx(2.0)
    assert props.impedance == pytest.approx(2.0)
    assert props.transit_time == pytest.approx(1.0)
    assert props.spring_stiffness == pytest.approx(2.0)


def test_rod_properties_steel():
    # hand evaluation: 200e9 / 7850 = 2.5477707e7 m^2/s^2, sqrt = 5.0475447e3 m/s
    props = _two_joint_truss(Material("steel", 200e9, 7850.0)).rod_properties("ab")
    assert props.wave_speed == pytest.approx(5047.5447, rel=1e-7)


@given(
    e=st.floats(1e6, 1e12),
    rho=st.floats(100.0, 2e4),
    area=st.floats(1e-6, 1e-2),
    length=st.floats(0.01, 100.0),
)
def test_rod_property_identities(e, rho, area, length):
    props = _two_joint_truss(Material("m", e, rho), length=length, area=area).rod_properties("ab")
    assert props.line_impedance == pytest.approx(area * math.sqrt(e * rho), rel=1e-12)
    assert props.transit_time * props.wave_speed == pytest.approx(props.length, rel=1e-12)
    assert props.spring_stiffness == pytest.approx(area * e / length, rel=1e-12)
    assert np.linalg.norm(props.unit_vector) == pytest.approx(1.0, abs=1e-12)


# -- subdivision -----------------------------------------------------------------


def test_subdivide_identity(square):
    assert subdivide(square, 1) is square


def test_subdivide_counts(square, bridge):
    fine = subdivide(square, 2)
    assert len(fine.joints) == 9  # 4 originals + 5 midpoints
    assert len(fine.rods) == 10
    fine = subdivide(bridge, 4)
    assert len(fine.rods) == 28
    assert len(fine.joints) == 5 + 7 * 3


def test_subdivide_preserves_anchors_and_ids(bridge):
    fine = subdivide(bridge, 3)
    assert sorted(j.id for j in fine.anchored_joints) == ["1", "5"]
    originals = {j.id for j in bridge.joints}
    assert originals <= {j.id for j in fine.joints}
    assert all("#" in j.id for j in fine.joints if j.id not in originals)


@settings(deadline=None, max_examples=20)
@given(n=st.integers(1, 32))
def test_subdivide_preserves_mass(n):
    bridge = builtin_structure("bridge", scale=1.7)
    fine = subdivide(bridge, n)
    assert fine.total_rod_mass() == pytest.approx(bridge.total_rod_mass(), rel=1e-12)


def test_subdivide_composition_positions(square):
    once = subdivide(subdivide(square, 2), 3)
    direct = subdivide(square, 6)
    got = sorted(map(tuple, np.round([j.position for j in once.joints], 12).tolist()))
    want = sorted(map(tuple, np.round([j.position for j in direct.joints], 12).tolist()))
    assert np.allclose(got, want, atol=1e-12)


# -- builtins and round trips ------------------------------------------------------


def test_builtin_square_geometry(square):
    positions = {j.id: j.position for j in square.joints}
    assert positions == {
        "1": (0.0, 0.0),
        "2": (1.0, 0.0),
        "3": (0.0, 1.0),
        "4": (1.0, 1.0),
    }
    assert [r.id for r in square.rods] == ["12", "13", "24", "34", "23"]
    assert not square.anchored_joints


def test_builtin_bridge_geometry(bridge):
    j2 = bridge.joint("2")
    assert j2.position[0] == pytest.approx(-0.5)
    assert j2.position[1] == pytest.approx(math.sqrt(3.0) / 2.0)


def test_builtin_bridge_uniform_scaling():
    big = builtin_structure("bridge", scale=2.0)
    lengths = {big.rod_properties(r).length for r in big.rods}
    taus = {big.rod_properties(r).transit_time for r in big.rods}
    assert all(abs(v - 2.0) < 1e-12 for v in lengths)
    assert len({round(t, 12) for t in taus}) == 1


def test_builtin_round_trip_bit_identical():
    for name in ("square", "bridge"):
        text = truss_to_json(builtin_structure(name))
        again = truss_to_json(load_truss(text))
        assert text == again
        assert truss_to_json(load_truss(again)) == again


def test_dimensionless_flag_round_trips():
    doc = dict(SQUARE_DOC)
    doc["dimensionless"] = False
    truss = load_truss(json.dumps(doc))
    assert truss.dimensionless is False
    assert load_truss(truss_to_json(truss)).dimensionless is False
    assert builtin_structure("square").dimensionless is True
    real = builtin_structure("square", material=Material("steel", 200e9, 7850.0))
    assert real.dimensionless is False
