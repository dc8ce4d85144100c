import json
import os
import subprocess
import sys
import time

import pytest

from locglob.errors import InputError, PrecisionError, SelfCheckError
from locglob.schema import (load_document, parse_chi, parse_curve, parse_model,
                            parse_module, parse_point, parse_quadratics)

MU8_DOC = {
    "order": 4,
    "table": [0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0],
    "invariant_factors": [8],
    "action": {"0": [1], "1": [3], "2": [5], "3": [7]},
    "chi": {"0": 1, "1": 3, "2": 5, "3": 7},
    "designated": {"2": [0, 1, 2, 3], "inf": [0, 3]},
    "archimedean": ["inf"],
}


@pytest.fixture
def mu8_file(tmp_path):
    path = tmp_path / "mu8.json"
    path.write_text(json.dumps(MU8_DOC))
    return str(path)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "locglob.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


# --- schema ----------------------------------------------------------------

def test_parse_module_and_chi(mu8_file):
    doc = load_document(mu8_file)
    module = parse_module(doc)
    assert module.group.order == 4
    assert module.space.invariant_factors == (8,)
    chi = parse_chi(doc, module)
    assert chi.character == (1, 3, 5, 7)
    model = parse_model(doc)
    assert model.labels == {"2", "inf"}


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.pop("order"), "missing"),
    (lambda d: d.update(table=[0, 1]), "table"),
    (lambda d: d.update(action={"0": [1]}), "missing element"),
    (lambda d: d.update(invariant_factors=[3, 2]), "divisibility"),
])
def test_parse_rejects_bad_documents(mutate, message):
    doc = json.loads(json.dumps(MU8_DOC))
    mutate(doc)
    with pytest.raises(InputError):
        parse_model(doc)


def _set_entry(field, value):
    """A mutation that puts value into the given entry of MU8_DOC: the
    order, the second row's second table entry, the action of element 2 or
    the second element of the designated subgroup at "inf"."""
    def mutate(doc):
        if field == "order":
            doc["order"] = value
        elif field == "table":
            doc["table"][5] = value
        elif field == "action":
            doc["action"]["2"] = [value]
        else:
            doc["designated"]["inf"] = [0, value]
    return mutate


_INT = "%s must be an integer, got %s"
_TABLE, _ACTION = "table entry", "action matrix for element 2 entry"
_DESIGNATED = "designated subgroup at 'inf' entry"


@pytest.mark.parametrize("field,value,message", [
    ("order", "4", _INT % ("order", "'4'")),
    ("table", True, _INT % (_TABLE, "True")),
    ("table", 1.5, _INT % (_TABLE, "1.5")),
    ("table", "1", _INT % (_TABLE, "'1'")),
    ("table", " 1 ", _INT % (_TABLE, "' 1 '")),
    ("table", "1_0", _INT % (_TABLE, "'1_0'")),
    ("table", None, _INT % (_TABLE, "None")),
    ("table", -1, "table entry out of range"),
    ("table", 4, "table entry out of range"),
    ("action", True, _INT % (_ACTION, "True")),
    ("action", 1.5, _INT % (_ACTION, "1.5")),
    ("action", "1", _INT % (_ACTION, "'1'")),
    ("action", None, _INT % (_ACTION, "None")),
    ("action", -1, "action is not a homomorphism at (1, 2)"),
    ("action", 8, "action is not a homomorphism at (1, 2)"),
    ("designated", True, _INT % (_DESIGNATED, "True")),
    ("designated", 1.5, _INT % (_DESIGNATED, "1.5")),
    ("designated", None, _INT % (_DESIGNATED, "None")),
    ("designated", " 1 ", _INT % (_DESIGNATED, "' 1 '")),
    ("designated", "1_0", _INT % (_DESIGNATED, "'1_0'")),
    ("designated", -1, _DESIGNATED + " must be an index below 4, got -1"),
    ("designated", 4, _DESIGNATED + " must be an index below 4, got 4"),
    ("designated", 10 ** 30, _DESIGNATED + " must be an index below 4, got 10" + "0" * 29),
])
def test_parse_errors_name_the_entry(field, value, message):
    # each wrong entry, read entry by entry, keeps its message; a string
    # is refused as a type error, whatever it holds
    doc = json.loads(json.dumps(MU8_DOC))
    _set_entry(field, value)(doc)
    with pytest.raises(InputError) as err:
        parse_model(doc)
    assert str(err.value) == message


def _doc(order, table, factors, action, **rest):
    return dict(order=order, table=table, invariant_factors=factors,
                action={str(g): mat for g, mat in enumerate(action)}, **rest)


_V4 = [0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0]
_LOOP3 = [0, 1, 2, 1, 0, 1, 2, 2, 0]     # identity and right inverses, not associative
_I2 = [1, 0, 0, 1]
_MU8 = [[1], [3], [5], [7]]


@pytest.mark.parametrize("doc,message", [
    # GroupTable; a table of the wrong shape is refused by its size first
    (_doc(2, [0, 1, 1], [2], [[1]] * 2), "table must hold 4 integers, got 3"),
    (_doc(2, [1, 0, 0, 1], [2], [[1]] * 2), "index 0 is not a two-sided identity"),
    (_doc(2, [0, 1, 0, 1], [2], [[1]] * 2), "index 0 is not a two-sided identity"),  # column
    (_doc(2, [0, 1, 1, 1], [2], [[1]] * 2), "element 1 has no right inverse"),
    (_doc(3, _LOOP3, [2], [[1]] * 3), "table is not associative"),
    # GModule; a missing matrix is named before any is built
    (_doc(4, _V4, [8], _MU8[:3]), "action is missing element 3"),
    (_doc(4, _V4, [8], [[3], [3], [5], [7]]), "identity element must act trivially"),
    (_doc(4, _V4, [2, 4], [_I2, _I2, _I2, [1, 0, 1, 1]]),       # 3 = 1 * 2, no generator
     "action matrix 3 is not compatible with the moduli"),
    # FinAb
    (_doc(2, [0, 1, 1, 0], [1], [[1]] * 2), "invariant factors must be >= 2"),
    (_doc(2, [0, 1, 1, 0], [2, 3], [_I2] * 2), "invariant factors must form a divisibility chain"),
    # PlaceModel
    (_doc(4, _V4, [8], _MU8, designated={"2": [0, 1]}, archimedean=["inf"]),
     "archimedean label 'inf' has no designated subgroup"),
    (_doc(4, _V4, [8], _MU8, designated={"inf": [0, 1, 2, 3]}, archimedean=["inf"]),
     "archimedean place 'inf' must have order <= 2"),
    # two checks broken at once: the one that runs first is reported
    (_doc(3, _LOOP3, [2, 3], [_I2] * 3), "table is not associative"),
    (_doc(4, _V4, [2, 4], [[1, 0, 0, 3], _I2, [1, 0, 1, 1], _I2]),
     "action matrix 2 is not compatible with the moduli"),
])
def test_intake_messages_are_pinned(doc, message):
    with pytest.raises(InputError) as err:
        parse_model(doc)
    assert str(err.value) == message


def test_constructor_messages_behind_the_schema():
    # the schema builds the table and the action to size, so these two
    # checks only answer callers that build the values themselves
    from locglob.abelian import FinAb
    from locglob.gmodules import GModule
    from locglob.groups import GroupTable, klein_four_group
    for build, message in [
            (lambda: GroupTable(2, ((0, 1), (1,))), "multiplication table has wrong shape"),
            (lambda: GModule(klein_four_group(), FinAb((8,)), (((1,),),) * 3),
             "need one action matrix per group element")]:
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message


def test_action_check_names_the_first_failing_pair():
    # GModule multiplies the reduced matrices; on compatible actions whose
    # entries are lifted by multiples of the moduli it names the same first
    # (g, s), g outer and s inner, as the products of the matrices as given
    import random
    from math import gcd

    from families import all_actions, groups_up_to_order_6
    from locglob.abelian import FinAb
    from locglob.gmodules import GModule
    from search_oracles import first_non_homomorphic_pair
    rng = random.Random(18)
    outcomes = {}
    for _, group in groups_up_to_order_6():
        m = group.order
        for space in (FinAb((2,)), FinAb((4,)), FinAb((2, 2)), FinAb((2, 4)), FinAb((3, 6))):
            r, d = space.rank, space.invariant_factors

            def lift(mat):
                return tuple(tuple(x + d[i] * rng.randrange(-2, 3) for x in row)
                             for i, row in enumerate(mat))

            def random_matrix():
                return tuple(tuple(rng.randrange(d[i]) * (d[i] // gcd(d[i], d[j]))
                                   for j in range(r)) for i in range(r))
            ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
            cases = [(ident,) + tuple(random_matrix() for _ in range(m - 1))
                     for _ in range(4)]
            for act in list(all_actions(group, space, dedup_first=False))[:4]:
                cases.append(act)
                if m > 1:
                    g = rng.randrange(1, m)
                    cases.append(act[:g] + (random_matrix(),) + act[g + 1:])
            for act in cases:
                act = tuple(map(lift, act))
                want = first_non_homomorphic_pair(group, space, act)
                outcomes[want] = outcomes.get(want, 0) + 1
                if want is None:
                    GModule(group, space, act)
                    continue
                with pytest.raises(InputError) as err:
                    GModule(group, space, act)
                assert str(err.value) == "action is not a homomorphism at (%d, %d)" % want
    assert outcomes[None] >= 100 and len(outcomes) >= 8     # 7 distinct first pairs


def test_incompatible_matrix_check_names_the_first_element():
    # each distinct matrix is checked once; a repeated incompatible matrix
    # is named at its first element, as by the check of every element
    from locglob.abelian import FinAb
    from locglob.gmodules import GModule
    from locglob.groups import cyclic_group
    ident, c = ((1, 0), (0, 1)), ((1, 0), (2, 1))
    a, b = ((1, 0), (1, 1)), ((1, 0), (3, 1))       # 1 and 3 do not map Z/2 to Z/4
    for act, g in [((ident, ident, a, b, a, b), 2), ((ident, b, a, b, a, ident), 1),
                   ((ident, c, c, a, c, a), 3), ((a, ident, a, ident, a, ident), 0)]:
        with pytest.raises(InputError) as err:
            GModule(cyclic_group(6), FinAb((2, 4)), act)
        assert str(err.value) == "action matrix %d is not compatible with the moduli" % g


def test_repeated_matrices_keep_the_first_failing_pair():
    # on a trivial action and on actions through a C2 quotient, whose
    # matrices repeat, every action with one matrix replaced by another
    # automorphism names the same first (g, s) as the products of all pairs
    from locglob.abelian import FinAb
    from locglob.gmodules import GModule
    from locglob.groups import cyclic_group, klein_four_group, symmetric_group_3
    from search_oracles import first_non_homomorphic_pair
    # sign of S3 (0, 1, 2 even), V4 -> C2 killing element 1, C4 -> C2
    cases = [(cyclic_group(4), FinAb((5,)), (1, 1, 1, 1)),
             (symmetric_group_3(), FinAb((3,)), (1, 1, 1, 1, 1, 1)),
             (symmetric_group_3(), FinAb((5,)), (1, 1, 1, -1, -1, -1)),
             (klein_four_group(), FinAb((5,)), (1, 1, -1, -1)),
             (cyclic_group(4), FinAb((5,)), (1, -1, 1, -1)),
             (cyclic_group(6), FinAb((7,)), (1, -1, 1, -1, 1, -1))]
    firsts = set()
    for group, space, signs in cases:
        n = space.invariant_factors[0]
        act = tuple(((x,),) for x in signs)
        GModule(group, space, act)
        for g in range(1, group.order):
            for unit in range(1, n):
                if (unit - signs[g]) % n == 0:
                    continue
                mutated = act[:g] + (((unit,),),) + act[g + 1:]
                want = first_non_homomorphic_pair(group, space, mutated)
                with pytest.raises(InputError) as err:
                    GModule(group, space, mutated)
                assert str(err.value) == "action is not a homomorphism at (%d, %d)" % want
                firsts.add(want)
    assert firsts == {(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (4, 1)}


def test_parse_curve_and_point():
    curve = parse_curve("-15,5,10")
    assert curve.roots == (-15, 5, 10)
    p = parse_point("1561/144,19459/1728", curve)
    assert not p.infinity
    assert parse_point("inf", curve).infinity
    with pytest.raises(InputError):
        parse_point("3,4", curve)
    with pytest.raises(InputError):
        parse_curve("1,1,2")


def test_parse_quadratics():
    quads = parse_quadratics("0,1;0,5;0,-5")
    assert len(quads) == 3
    with pytest.raises(InputError):
        parse_quadratics("1;2")


# --- CLI exit-status contract ------------------------------------------------

def test_power_exit_codes():
    assert run_cli("power", "--a", "16", "--n", "8", "--p", "7").returncode == 0
    assert run_cli("power", "--a", "16", "--n", "8", "--p", "2").returncode == 1
    bad = run_cli("power", "--a", "0", "--n", "8", "--p", "7")
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert "error" in bad.stderr


def test_gw_exit_codes():
    out = run_cli("gw", "--n", "8", "--places", "2", "--format", "json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["results"]["kernel_order"] == 2
    assert doc["results"]["witness"] == "16"
    assert run_cli("gw", "--n", "8", "--places", "3").returncode == 0
    assert run_cli("gw", "--n", "1", "--places", "2").returncode == 2
    assert run_cli("gw", "--n", "8", "--places", "4").returncode == 2


def test_hilbert_exit_codes():
    out = run_cli("hilbert", "--a", "3", "--b", "5", "--p", "5", "--format", "json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["results"]["symbol"] == -1
    assert run_cli("hilbert", "--a", "0", "--b", "5", "--p", "5").returncode == 2


def test_h1_subcommands(mu8_file):
    out = run_cli("h1", "--input", mu8_file, "--format", "json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["results"]["invariant_factors"] == [2]
    out = run_cli("h1star", "--input", mu8_file, "--format", "json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["results"]["order"] == 2
    assert run_cli("h1", "--input", "/nonexistent.json").returncode == 2
    assert run_cli("h1").returncode == 2


def test_hasse_exit_codes(mu8_file):
    out = run_cli("hasse", "--input", mu8_file, "--t", "2", "--format", "json")
    assert out.returncode == 1               # strong Hasse fails for mu8
    doc = json.loads(out.stdout)
    assert doc["results"]["hasse"] is True
    assert doc["results"]["strong_hasse"] is False
    assert doc["results"]["t_singular"]["{2}"] is True
    assert doc["results"]["support_bound"] == ["2"]


def test_hasse_passing_model(tmp_path):
    doc = {
        "order": 2, "table": [0, 1, 1, 0], "invariant_factors": [3],
        "action": {"0": [1], "1": [2]},
        "designated": {"5": [0, 1]}, "archimedean": [],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run_cli("hasse", "--input", str(path)).returncode == 0


def test_ec_div_exit_codes():
    base = ["ec-div", "--curve=-15,5,10", "--point", "1561/144,19459/1728", "--k", "2"]
    assert run_cli(*base, "--place", "3").returncode == 0
    assert run_cli(*base, "--place", "2").returncode == 1
    assert run_cli(*base, "--place", "4").returncode == 2
    out = run_cli("ec-div", "--curve=-15,5,10", "--point", "inf", "--k", "3",
                  "--place", "global", "--format", "json")
    assert out.returncode == 0
    # a point off the curve is invalid input
    off = run_cli("ec-div", "--curve=-15,5,10", "--point", "1,2", "--k", "1",
                  "--place", "3")
    assert off.returncode == 2
    # missing both --place and --sweep
    assert run_cli("ec-div", "--curve=-15,5,10", "--point", "inf",
                   "--k", "1").returncode == 2


def test_ec_div_sweep_rows():
    out = run_cli("ec-div", "--curve=-15,5,10", "--point", "1561/144,19459/1728",
                  "--k", "2", "--sweep", "7", "--format", "json")
    assert out.returncode == 1               # fails at 2
    rows = json.loads(out.stdout)["results"]["rows"]
    table = {r["place"]: r["divisible"] for r in rows}
    assert table == {"2": "no", "3": "yes", "5": "yes", "7": "yes", "inf": "yes"}
    assert all(r["k"] == 2 for r in rows)


def test_quadroots_exit_codes():
    tri = "0,1;0,5;0,-5"
    assert run_cli("quadroots", "--quadratics", tri, "--place", "3").returncode == 0
    assert run_cli("quadroots", "--quadratics", tri, "--place", "2").returncode == 1
    assert run_cli("quadroots", "--quadratics", "zz", "--place", "3").returncode == 2


def test_unknown_subcommand():
    assert run_cli("frobnicate").returncode == 2


def test_hasse_unknown_query_label(mu8_file):
    assert run_cli("hasse", "--input", mu8_file, "--t", "9").returncode == 2


def test_hasse_names_the_first_query_with_unknown_labels(monkeypatch):
    # the message of the per-query path: the first offending query, its
    # unknown labels sorted, and nothing on stdout
    monkeypatch.chdir(REPO)
    out = run_cli("hasse", "--input", "sample_inputs/mu8.json",
                  "--t", "2", "--t", "zz,yy", "--t", "qq")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: unknown labels in T: ['yy', 'zz']\n"


def test_trivial_module_document(tmp_path):
    doc = {"order": 1, "table": [0], "invariant_factors": [], "action": {"0": []}}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    out = run_cli("h1", "--input", str(path), "--format", "json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["results"]["order"] == 1


def test_malformed_documents_never_crash(tmp_path):
    import random
    rng = random.Random(5150)
    base = json.dumps(MU8_DOC)
    for i in range(60):
        doc = json.loads(base)
        kind = rng.randrange(5)
        if kind == 0:
            doc.pop(rng.choice(sorted(doc)))
        elif kind == 1:
            doc["table"] = [rng.randrange(-3, 9) for _ in range(rng.randrange(0, 20))]
        elif kind == 2:
            doc["action"] = {str(g): [rng.randrange(-4, 9)] for g in range(rng.randrange(5))}
        elif kind == 3:
            doc["designated"] = {"x": [rng.randrange(5) for _ in range(rng.randrange(4))]}
        else:
            doc["invariant_factors"] = [rng.randrange(-2, 5) for _ in range(rng.randrange(3))]
        path = tmp_path / ("fuzz%d.json" % i)
        path.write_text(json.dumps(doc))
        out = run_cli("hasse", "--input", str(path))
        assert out.returncode in (0, 1, 2), (doc, out.stderr)
        assert "Traceback" not in out.stderr, (doc, out.stderr)
        if out.returncode == 2:
            assert out.stdout == ""


_MU8_TABLE_WITH_LIST = MU8_DOC["table"][:5] + [[1]] + MU8_DOC["table"][6:]


@pytest.mark.parametrize("changes", [
    {"table": _MU8_TABLE_WITH_LIST},
    {"action": dict(MU8_DOC["action"], **{"1": [None]})},
    {"invariant_factors": ["abc"]},
    {"designated": dict(MU8_DOC["designated"], inf=5)},
    {"designated": dict(MU8_DOC["designated"], inf=[0, 99])},
    # a bool passes isinstance(x, int); this one would be a valid order 1
    {"order": True, "table": [0], "invariant_factors": [2], "action": {"0": [1]},
     "designated": {"2": [0]}, "archimedean": []},
    # int() would truncate 8.5 to 8 and raise OverflowError on Infinity
    {"invariant_factors": [8.5]},
    {"action": dict(MU8_DOC["action"], **{"1": [float("inf")]})},
    # a Latin square with identity 0, so only associativity fails: 1 * 1 = 0,
    # and a group of order 5 has no element of order 2
    {"order": 5, "table": [0, 1, 2, 3, 4, 1, 0, 3, 4, 2, 2, 4, 0, 1, 3,
                           3, 2, 4, 0, 1, 4, 3, 1, 2, 0],
     "action": {str(g): [1] for g in range(5)}, "designated": {"2": [0]},
     "archimedean": []},
], ids=["table_entry_list", "action_entry_null", "invariant_factor_text",
        "designated_scalar", "designated_out_of_range", "order_bool",
        "invariant_factor_fraction", "action_entry_infinity", "table_loop_order_5"])
def test_malformed_field_exits_2_with_one_line(tmp_path, changes):
    doc = dict(json.loads(json.dumps(MU8_DOC)), **changes)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        parse_model(doc)
    out = run_cli("hasse", "--input", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr


@pytest.mark.parametrize("content", [
    b'{"order": 1, "label": "\xff\xfe"}',
    b'{"order": 1' + b"0" * 5000 + b"}",
    b'{"order": ' + b"[" * 100000 + b"]" * 100000 + b"}",
], ids=["not_utf8", "integer_over_digit_limit", "array_nested_100000_deep"])
def test_malformed_bytes_exit_2_with_one_line(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(InputError):
        load_document(str(path))
    out = run_cli("h1", "--input", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr


@pytest.mark.parametrize("command", ["h1", "hasse"])
def test_order_400_cyclic_document_exits_0(command):
    # C400 acting on Z/4 by (-1)^g: the table and the action are checked on
    # the one generator, not on all 160,000 pairs, and H1 = Z/2
    out = run_cli(command, "--input", os.path.join(REPO, "tests", "data", "cyclic_400.json"),
                  "--format", "json")
    assert out.returncode == 0, out.stderr
    if command == "h1":
        assert json.loads(out.stdout)["results"]["invariant_factors"] == [2]


_DZ = ("ec-div", "--curve=-15,5,10", "--point", "1561/144,19459/1728")
_DZ_SCALED = ("ec-div", "--curve=-15/10000,5/10000,10/10000",
              "--point", "1561/1440000,19459/1728000000")
_EC_DIV = _DZ + ("--k", "2", "--place", "3")


@pytest.mark.parametrize("argv,env", [
    (("gw", "--n", "8", "--places", "abc"), None),
    (("gw", "--n", "8", "--places", "2.5"), None),
    (_EC_DIV + ("--precision", "0"), None),
    (_EC_DIV + ("--precision=-4",), None),
    (_EC_DIV, "0"),
    (_EC_DIV, "-3"),
    (("power", "--a", "16", "--n", "8", "--p", "7", "--root", "--precision", "0"), None),
    (_DZ + ("--k", "1000", "--place", "3"), None),
    (_DZ + ("--k", "601", "--place", "global"), None),
    (_DZ + ("--k", "2", "--sweep", "50000000"), None),
    (("gw", "--n", "8", "--places", "2", "--sweep", "5000000000"), None),
    (("gw", "--n", "4", "--places", "3", "--sweep", "1000001"), None),
    (("power", "--a", "1" + "0" * 400, "--n", "2", "--p", "inf", "--root"), None),
    (("power", "--a", "1/1" + "0" * 400, "--n", "2", "--p", "inf", "--root"), None),
    # argparse errors: one line too, not the usage text
    (("frobnicate",), None),
    (("power", "--a", "16", "--n", "8", "--p", "7", "--frobnicate"), None),
    (("gw", "--places", "2"), None),
    # --input and --precision exist only where they are read
    (("gw", "--n", "8", "--places", "2", "--input", "/nonexistent.json"), None),
    (("hilbert", "--a", "3", "--b", "5", "--p", "5", "--precision", "0"), None),
], ids=["places_text", "places_fraction", "precision_0", "precision_negative",
        "env_precision_0", "env_precision_negative", "power_root_precision_0",
        "ec_div_k_1000", "ec_div_k_over_limit", "ec_div_sweep_over_limit",
        "gw_sweep_5e9", "gw_sweep_over_limit", "power_real_root_overflow",
        "power_real_root_underflow", "unknown_subcommand", "unknown_flag",
        "missing_required_flag", "gw_input", "hilbert_precision"])
def test_bad_flag_exits_2_with_one_line(monkeypatch, capsys, argv, env):
    import locglob.cli as cli
    monkeypatch.delenv("LOCGLOB_PRECISION", raising=False)
    if env is not None:
        monkeypatch.setenv("LOCGLOB_PRECISION", env)
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("error", [SelfCheckError, PrecisionError])
def test_internal_failure_exits_3(monkeypatch, capsys, mu8_file, error):
    import locglob.cli as cli

    def broken(module):
        raise error("engine disagrees with itself")
    monkeypatch.setattr("locglob.cohomology.h1", broken)
    assert cli.main(["h1", "--input", mu8_file]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal failure: engine disagrees with itself\n"


@pytest.mark.parametrize("argv", [["--help"], ["gw", "--help"]], ids=["top", "gw"])
def test_help_exits_0(capsys, argv):
    from locglob.cli import main
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: locglob") and err == ""


def test_internal_root_failure_exits_3(monkeypatch, capsys):
    # a broken discrete log fails the final x^n == u check of
    # nth_root_mod_prime: an engine failure, not an input error
    import locglob.cli as cli
    monkeypatch.setattr("locglob.arith._pohlig_hellman_prime_power", lambda *args: 1)
    assert cli.main(["power", "--a", "16", "--n", "8", "--p", "17", "--root"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal failure: internal nth root construction failed\n"


@pytest.mark.parametrize("error", [ValueError("no\nluck"), ZeroDivisionError(), KeyError(3)],
                         ids=["value", "zero-division", "key"])
def test_any_other_exception_exits_3_with_one_line(monkeypatch, capsys, error):
    # a last-resort handler: an exception main does not name is an engine
    # failure, never exit 1 (a finding) and never a traceback
    import locglob.cli as cli

    def broken(args):
        raise error
    monkeypatch.setattr(cli, "_cmd_gw", broken)
    assert cli.main(["gw", "--n", "8", "--places", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal failure: %s" % type(error).__name__)
    assert err.count("\n") == 1 and "Traceback" not in err, err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_report_that_fails_to_format_writes_nothing(monkeypatch, capsys, fmt):
    # the report is written in one piece once it is formatted, so a failure
    # half way leaves stdout empty
    import json as json_module

    import locglob.cli as cli
    real = cli._text_lines

    def half(obj, prefix):
        yield next(real(obj, prefix))
        raise ValueError("cannot format")
    monkeypatch.setattr(cli, "_text_lines", half)
    monkeypatch.setattr(json_module, "dumps", lambda *a, **k: 1 / 0)
    assert cli.main(["gw", "--n", "8", "--places", "2", "--format", fmt]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal failure: ")


def _main(capsys, *argv):
    from locglob.cli import main
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code in (2, 3):
        assert out == "" and err.count("\n") == 1, err
    return code, out, err


def test_gw_n_is_bounded_only_where_a_witness_is_built(capsys):
    # 8 | n with 2 in T builds the witness 2^(n/2): n = 28,568 is the last
    # whose witness has at most 4,300 digits, and above it n is refused at
    # once, however large; every other n needs no witness and is answered
    code, out, _ = _main(capsys, "gw", "--n", "28568", "--places", "2")
    assert code == 0 and "witness: %d\n" % 2 ** 14284 in out
    assert 2 ** 14284 < 10 ** 4300 < 2 ** 14288
    for n in (28576, 10 ** 9, 2 ** 40, 10 ** 15):
        t0 = time.monotonic()
        code, _, err = _main(capsys, "gw", "--n", str(n), "--places", "2")
        assert time.monotonic() - t0 < 1.0, n
        assert code == 2 and err.startswith("error: n must be below 28570"), err
    for n, places in ((10 ** 9, "3"), (10 ** 9 + 1, "2"), (4 * 10 ** 9 + 4, "2")):
        code, out, _ = _main(capsys, "gw", "--n", str(n), "--places", places)
        assert code == 0 and "kernel_order: 1\n" in out and "witness: None\n" in out


def test_power_root_prints_a_short_unit_at_any_precision_below_the_work_bound(capsys):
    # a root whose unit has at most 4,300 digits prints, whatever the
    # precision, as before: the unit of 2 or 1 at 7 does
    for a, unit in (("4", 2), ("1", 1)):
        code, out, _ = _main(capsys, "power", "--a", a, "--n", "2", "--p", "7", "--root",
                             "--precision", "6000")
        assert (code, out) == (0, "checks_failed: 0\nchecks_passed: 1\ncommand: power\n"
                                  "inputs.a: %s\ninputs.n: 2\ninputs.place: 7\n"
                                  "results.is_power: True\n"
                                  "results.root: 7^0 * (%d + O(7^6000))\n" % (a, unit))
    # 2^22 bits is the work bound: 7^1,494,041 has 4,194,304 bits and is
    # answered, 7^1,494,042 has 4,194,307 and is refused, as is far more
    from locglob.padics import ROOT_MODULUS_BITS
    assert (7 ** 1494041).bit_length() == ROOT_MODULUS_BITS < (7 ** 1494042).bit_length()
    code, out, _ = _main(capsys, "power", "--a", "4", "--n", "2", "--p", "7", "--root",
                         "--precision", "1494041")
    assert code == 0 and "(2 + O(7^1494041))" in out
    for prec in ("1494042", str(10 ** 9), str(10 ** 4000)):
        t0 = time.monotonic()
        code, _, err = _main(capsys, "power", "--a", "4", "--n", "2", "--p", "7", "--root",
                             "--precision", prec)
        assert prec == "1494042" or time.monotonic() - t0 < 1.0, prec
        assert code == 2 and "must have at most 4194304 bits" in err, err
    # without --root the precision is not used, and is not bounded
    code, _, _ = _main(capsys, "power", "--a", "6", "--n", "3", "--p", "7", "--precision",
                       str(10 ** 9))
    assert code == 0


def test_power_root_refuses_a_unit_too_long_to_print(capsys):
    # 7^5088 < 10^4300 < 7^5089: at precision 5,088 every unit prints; above
    # it the cube root of 6 has a unit of more than 4,300 digits and is
    # refused, the square root of 16 keeps its short unit 4 ** (1/2) = 2
    code, out, _ = _main(capsys, "power", "--a", "6", "--n", "3", "--p", "7", "--root",
                         "--precision", "5088")
    assert code == 0 and "+ O(7^5088))\n" in out
    for prec in ("5089", "6000", "1000000"):
        code, _, err = _main(capsys, "power", "--a", "6", "--n", "3", "--p", "7", "--root",
                             "--precision", prec)
        assert code == 2 and "more than 4300 decimal digits" in err, err
        code, out, _ = _main(capsys, "power", "--a", "16", "--n", "2", "--p", "7", "--root",
                             "--precision", prec)
        assert code == 0 and "results.root: 7^0 * (4 + O(7^%s))\n" % prec in out


def test_ec_div_halves_too_long_to_print_are_refused(capsys):
    # the halves of DZ's P at 101 print at precision 2,000 (units below
    # 101^2000 < 10^4300) and are refused at 3,000, where they crashed
    argv = ("ec-div", "--curve=-15,5,10", "--point", "1561/144,19459/1728", "--k", "1",
            "--place", "101", "--halves", "--precision")
    code, out, _ = _main(capsys, *argv, "2000")
    assert code == 0 and out.count("O(101^") == 8
    for fmt in ("text", "json"):
        code, _, err = _main(capsys, *argv, "3000", "--format", fmt)
        assert code == 2 and err == ("error: the unit of this 101-adic number has more than "
                                     "4300 decimal digits, too many to print; take a lower "
                                     "precision\n")


@pytest.mark.parametrize("argv", [
    ["gw", "--n", "28576", "--places", "2"],
    ["power", "--a", "6", "--n", "3", "--p", "7", "--root", "--precision", "6000"],
], ids=["gw", "power"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reports_past_the_digit_limit_are_refused_not_crashed(capsys, argv, fmt):
    code, out, err = _main(capsys, *argv, "--format", fmt)
    assert code == 2 and out == "" and err.startswith("error: ")


# --- argument fuzz ---------------------------------------------------------

BIG = "9" * 5000                # a 5,000-digit integer
DZ_P = "1561/144,19459/1728"    # DZ's point on y^2 = (x + 15)(x - 5)(x - 10)


def _pick(rng, sane, edge):
    """A value that usually gives an answer, else an edge value: about
    two draws in three are sane, so that many draws reach the engine."""
    return rng.choice(sane if rng.random() < 0.65 else edge)


def _rational(rng):
    return _pick(rng, ("16", "2", "3", "9", "-1", "1/4", "5/3"),
                 ("0", "1", "-1", "1/2", "-3/4", "0/1", "1/0", BIG, "-" + BIG, "1/" + BIG))


def _place(rng, sane=("2", "3", "5", "7", "17", "inf")):
    return _pick(rng, sane, ("2", "9973", "1", "0", "9", "-3", "9975", "x", ""))


def _precision(rng):
    return [] if rng.random() < 0.6 else ["--precision=" + rng.choice(("1", "10000"))]


def _power(rng):
    return (["power", "--a=" + _rational(rng),
             "--n=" + _pick(rng, ("2", "3", "8"), ("0", "1", "-1", "600", "601", BIG)),
             "--p=" + _place(rng)]
            + (["--root"] if rng.random() < 0.5 else []) + _precision(rng))


def _hilbert(rng):
    return ["hilbert", "--a=" + _rational(rng), "--b=" + _rational(rng), "--p=" + _place(rng)]


def _gw(rng):
    sweep = [] if rng.random() < 0.5 else ["--sweep=" + rng.choice(
        ("0", "1", "1000000", "1000001"))]
    return (["gw", "--n=" + _pick(rng, ("8", "16", "24", "3", "7"),
                                  ("0", "1", "-1", "28568", "28576", "1000000000", BIG)),
             "--places=" + _pick(rng, ("2", "3", "2,3", ""), ("9973", "1", "0", "x", "2,9973"))]
            + sweep)


def _ec_div(rng):
    argv = ["ec-div", "--curve=" + _pick(rng, ("-15,5,10",),
                                         ("0,0,0", "0,1,-1", "1/2,3,-7/2", BIG + ",0,1")),
            "--point=" + _pick(rng, (DZ_P, "16185/3721,-1914000/226981", "inf", "-15,0"),
                               ("1,1", "0,0", BIG + ",1", "x")),
            "--k=" + _pick(rng, ("1", "2", "3"), ("0", "1", "600", "601", BIG))]
    kind = rng.random()
    if kind < 0.3:
        argv.append("--sweep=" + _pick(rng, ("97", "199"), ("0", "1", "10000", "10001")))
    else:
        argv.append("--place=" + _place(rng, ("2", "3", "5", "7", "101", "inf", "global")))
        if kind > 0.7:
            argv.append("--halves")
    return argv + _precision(rng)


def _quadroots(rng):
    return ["quadroots",
            "--quadratics=" + _pick(rng, ("0,1;0,5;0,-5", "0,-2", "1,1", "0,-1;0,2;0,-2"),
                                    ("", "0,0", BIG + ",1", "1/2,3", "x", "0,1;")),
            "--place=" + _place(rng)]


def _short_int(text):
    """text as an int if it is a short decimal, else 1 (the 5,000-digit
    draws are refused before any work)."""
    return int(text) if text.lstrip("-").isdigit() and len(text) < 20 else 1


# Each pair of limits here is slow by design or by a recorded open fault,
# so the draws leave it out (times on Python 3.11, a shared 2-vCPU machine):
# - gw with a nontrivial kernel (8 | n, 2 in --places) and the sweep at its
#   limit checks the witness at each of 78,498 primes: about 5 s at n = 8,
#   and 5.5 to 7.4 s at n = 28,568 (README, "Size limits");
# - ec-div with k >= 2 and the sweep at its limit descends at each of
#   1,229 primes: 0.8 s at k = 2, about 35 s at k = 600 (ROADMAP item 4).
# ec-div refuses --precision 10^4 (above elliptic._MAX_PRECISION) at once,
# so those draws stay in.
def _known_slow(argv):
    opts = dict(arg[2:].split("=", 1) for arg in argv[1:] if "=" in arg)
    if argv[0] == "gw":
        return (opts.get("sweep") == "1000000" and "2" in opts["places"].split(",")
                and _short_int(opts["n"]) % 8 == 0)
    if argv[0] != "ec-div":
        return False
    return opts.get("sweep") == "10000" and _short_int(opts["k"]) >= 2


# the limits themselves, each answered or refused in well under a second
LIMITS = [
    ["gw", "--n=7", "--places=2", "--sweep=1000000"],
    ["gw", "--n=8", "--places=2", "--sweep=1000001"],
    ["gw", "--n=28568", "--places=2"],
    ["gw", "--n=28576", "--places=2"],
    ["ec-div", "--curve=-15,5,10", "--point=" + DZ_P, "--k=1", "--sweep=10000"],
    ["ec-div", "--curve=-15,5,10", "--point=" + DZ_P, "--k=1", "--sweep=10001"],
    ["ec-div", "--curve=-15,5,10", "--point=" + DZ_P, "--k=600", "--place=9973"],
    ["ec-div", "--curve=-15,5,10", "--point=" + DZ_P, "--k=601", "--place=3"],
    ["ec-div", "--curve=-15,5,10", "--point=" + DZ_P, "--k=600", "--place=9973",
     "--precision=4097"],
    ["power", "--a=16", "--n=8", "--p=9973", "--root", "--precision=10000"],
    ["power", "--a=16", "--n=8", "--p=2", "--root", "--precision=1"],
]


def test_known_slow_draws_are_named():
    assert _known_slow(["gw", "--n=28568", "--places=2", "--sweep=1000000"])
    assert _known_slow(["ec-div", "--curve=-15,5,10", "--point=" + DZ_P, "--k=600",
                        "--sweep=10000"])
    assert not _known_slow(["ec-div", "--curve=-15,5,10", "--point=" + DZ_P, "--k=600",
                            "--place=9973", "--precision=10000"])
    assert not any(_known_slow(argv) for argv in LIMITS)


def test_random_arguments_end_in_a_report_or_one_line_error(monkeypatch, capsys):
    # every invocation exits 0 or 1 with a report, or 2 or 3 with one line
    # on stderr and nothing on stdout, never with a traceback, and within
    # its time budget
    import random
    monkeypatch.delenv("LOCGLOB_PRECISION", raising=False)
    rng = random.Random(20261019)
    draws = (_power, _hilbert, _gw, _ec_div, _quadroots)
    argvs = list(LIMITS)
    while len(argvs) < 150:
        argv = rng.choice(draws)(rng)
        if not _known_slow(argv):
            argvs.append(argv)
    codes = []
    for argv in argvs:
        t0 = time.monotonic()
        code, out, err = _main(capsys, *argv)
        assert time.monotonic() - t0 < 5.0, argv
        assert code in (0, 1, 2, 3), argv
        if code in (0, 1):
            assert out and err == "", argv
        codes.append(code)
    answered = sum(code in (0, 1) for code in codes)
    assert 4 * answered >= len(codes), codes
    assert set(codes) >= {0, 1, 2}


def test_hilbert_symbol_at_the_real_place(capsys):
    # a zero argument is refused at the real place too, and a positive
    # fraction below 1 is not negative: (1/2, -1) is 1 there
    code, _, err = _main(capsys, "hilbert", "--a", "0", "--b", "5", "--p", "inf")
    assert code == 2 and err == "error: Hilbert symbol arguments must be nonzero\n"
    for a, b, want in (("1/2", "-1", 1), ("-1", "1/2", 1), ("-1/2", "-1/3", -1)):
        code, out, _ = _main(capsys, "hilbert", "--a=" + a, "--b=" + b, "--p", "inf")
        assert code == 0 and "symbol: %d\n" % want in out, (a, b)


def test_lattice_failure_exits_3(monkeypatch, capsys, mu8_file):
    # a lattice solve that finds no solution breaks an invariant of
    # lattice_quotient: an engine failure, not a finding (exit 1)
    import locglob.cli as cli
    monkeypatch.setattr("locglob.cohomology._H1_CACHE", {})
    monkeypatch.setattr("locglob.linalg._diagonal_solve", lambda *args: None)
    assert cli.main(["h1", "--input", mu8_file]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal failure: denominator lattice is not contained in the numerator\n"


def test_bad_h1_representative_exits_3(monkeypatch, capsys, mu8_file):
    # h1 builds its representatives itself, so one that fails the cocycle
    # check is an engine failure, not an input error (exit 2)
    import locglob.cli as cli
    import locglob.cohomology as cohomology
    expand = cohomology._expand_from_generator_values

    def perturbed(*args):
        vals = expand(*args)
        return (vals[0], tuple(x + 1 for x in vals[1])) + vals[2:]
    monkeypatch.setattr(cohomology, "_H1_CACHE", {})
    monkeypatch.setattr(cohomology, "_expand_from_generator_values", perturbed)
    assert cli.main(["h1", "--input", mu8_file]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal failure: H1 representative: cocycle identity fails at (1, 1)\n"


def test_timings_adds_only_elapsed_ms(monkeypatch, capsys):
    from locglob.cli import main
    monkeypatch.delenv("LOCGLOB_PRECISION", raising=False)
    argv = ["power", "--a", "16", "--n", "8", "--p", "7", "--root", "--format", "json"]
    assert main(argv) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(argv + ["--timings"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert isinstance(timed.pop("elapsed_ms"), int)
    assert timed == plain


def test_report_byte_determinism(mu8_file):
    a = run_cli("hasse", "--input", mu8_file, "--t", "2", "--format", "json")
    b = run_cli("hasse", "--input", mu8_file, "--t", "2", "--format", "json")
    assert a.stdout == b.stdout
    c = run_cli("gw", "--n", "16", "--places", "2,3")
    d = run_cli("gw", "--n", "16", "--places", "2,3")
    assert c.stdout == d.stdout
    assert "elapsed" not in c.stdout


def test_precision_env_override():
    out = run_cli("ec-div", "--curve=-15,5,10", "--point", "1561/144,19459/1728",
                  "--k", "2", "--place", "3", env_extra={"LOCGLOB_PRECISION": "96"})
    assert out.returncode == 0
    bad = run_cli("ec-div", "--curve=-15,5,10", "--point", "1561/144,19459/1728",
                  "--k", "2", "--place", "3", env_extra={"LOCGLOB_PRECISION": "zz"})
    assert bad.returncode == 2


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("args,expected", [
    (["h1"], "mu8_h1.json"),
    (["h1star"], "mu8_h1star.json"),
    (["hasse", "--t", "2", "--t", "inf"], "mu8_hasse_t2_tinf.json"),
], ids=["h1", "h1star", "hasse"])
def test_mu8_reports_are_pinned(monkeypatch, capsys, args, expected):
    """The JSON reports on the sample input, byte for byte, so that a change
    of representatives or witnesses shows."""
    from locglob.cli import main
    monkeypatch.chdir(REPO)
    code = main([args[0], "--input", "sample_inputs/mu8.json", "--format", "json"] + args[1:])
    with open(os.path.join(REPO, "tests", "data", expected)) as fh:
        assert capsys.readouterr().out == fh.read()
    assert code == (1 if args[0] == "hasse" else 0)


def test_mu8_seven_labels_report_is_pinned(monkeypatch, capsys):
    """The JSON hasse report on mu8 with seven labelled primes, byte for
    byte, for queries with and without the one non-cyclic label 2."""
    from locglob.cli import main
    monkeypatch.chdir(REPO)
    code = main(["hasse", "--input", "tests/data/mu8_seven_labels.json", "--format", "json",
                 "--t", "2", "--t", "3,5", "--t", "2,3,17", "--t", "2,3,5,7,11,13,17"])
    with open(os.path.join(REPO, "tests", "data", "mu8_seven_labels_hasse.json")) as fh:
        assert capsys.readouterr().out == fh.read()
    assert code == 1


def test_v4_trivial_z2_report_is_pinned(monkeypatch, capsys):
    """The JSON hasse report on V4 acting trivially on Z/2, byte for byte:
    |H1| = 4 and H1_* = 0 with S = {v}, so every Sha(T) is read off the one
    kernel of Sha(S)."""
    from locglob.cli import main
    monkeypatch.chdir(REPO)
    code = main(["hasse", "--input", "tests/data/v4_trivial_z2.json",
                 "--t", "v", "--t", "v,w", "--format", "json"])
    with open(os.path.join(REPO, "tests", "data", "v4_trivial_z2_hasse.json")) as fh:
        assert capsys.readouterr().out == fh.read()
    assert code == 0


def test_v4_z8_two_full_labels_report_is_pinned(monkeypatch, capsys):
    """The JSON hasse report on V4 acting on Z/8 by the units, with the whole
    group at p0 and p2, byte for byte: S = {p0, p2} and Sha(S) != 0, and the
    queries repeat {p0, p2}, once with its labels reversed."""
    from locglob.cli import main
    monkeypatch.chdir(REPO)
    code = main(["hasse", "--input", "tests/data/v4_z8_two_full_labels.json",
                 "--t", "p0,p2", "--t", "p2,p0", "--t", "p1", "--t", "p0,p2",
                 "--t", "p3,p2,p0", "--t", "p0", "--t", "p2", "--t", "", "--format", "json"])
    with open(os.path.join(REPO, "tests", "data", "v4_z8_two_full_labels_hasse.json")) as fh:
        assert capsys.readouterr().out == fh.read()
    assert code == 1


def test_h1_report_at_the_edge_of_the_check_rule_is_pinned(monkeypatch, capsys):
    """The JSON h1 report on C2 acting by -1 on Z/70492, byte for byte: the
    built-in check's price is within 0.01% of its limit, and the check runs."""
    from locglob import cohomology, oracles
    from locglob.cli import main
    monkeypatch.chdir(REPO)
    path = "tests/data/c2_minus_one_z70492.json"
    work = cohomology._check_work(parse_module(load_document(path)), 1)
    assert 0.9999 * cohomology.BRUTE_FORCE_LIMIT < work <= cohomology.BRUTE_FORCE_LIMIT
    checked = []
    brute = oracles.brute_force_h1
    monkeypatch.setattr(oracles, "brute_force_h1", lambda m: checked.append(m) or brute(m))
    monkeypatch.setattr(cohomology, "_H1_CACHE", {})
    code = main(["h1", "--input", path, "--format", "json"])
    with open(os.path.join(REPO, "tests", "data", "c2_minus_one_z70492_h1.json")) as fh:
        assert capsys.readouterr().out == fh.read()
    assert code == 0 and len(checked) == 1


@pytest.mark.parametrize("curve,place", [("dz", v) for v in ("2", "3", "5", "inf", "global")]
                         + [("dz_scaled", v) for v in ("inf", "global")],
                         ids=["2", "3", "5", "inf", "global", "scaled-inf", "scaled-global"])
def test_ec_div_halves_are_pinned(monkeypatch, capsys, curve, place):
    """The text report with the halves of the Dvornicich-Zannier point, byte
    for byte, so that a change in the digits or precision of a half shows;
    also on the curve scaled by 1/100, whose real halves have y^2 below
    1e-6."""
    from locglob.cli import main
    monkeypatch.delenv("LOCGLOB_PRECISION", raising=False)
    args = _DZ if curve == "dz" else _DZ_SCALED
    code = main(list(args) + ["--k", "1", "--halves", "--place", place])
    with open(os.path.join(REPO, "tests", "data",
                           "ec_div_%s_k1_halves_%s.txt" % (curve, place))) as fh:
        assert capsys.readouterr().out == fh.read()
    assert code == 0


_DZ_PLUS_T = ("ec-div", "--curve=-15,5,10", "--point=16185/3721,-1914000/226981")


@pytest.mark.parametrize("argv,k,bound,expected,exit_code", [
    (_DZ, "1", "997", "ec_div_dz_k1_sweep_997.json", 0),
    (_DZ, "2", "997", "ec_div_dz_sweep_997.json", 1),
    (_DZ, "3", "199", "ec_div_dz_k3_sweep_199.json", 1),
    (_DZ, "600", "97", "ec_div_dz_k600_sweep_97.json", 1),
    (_DZ_PLUS_T, "2", "997", "ec_div_dz_plus_t_k2_sweep_997.json", 1),
    (_DZ_PLUS_T, "3", "199", "ec_div_dz_plus_t_k3_sweep_199.json", 1),
], ids=["k1_997", "k2_997", "k3_199", "k600_97", "plus_t_k2_997", "plus_t_k3_199"])
def test_ec_div_sweeps_are_pinned(monkeypatch, capsys, argv, k, bound, expected, exit_code):
    """The JSON sweep reports of the Dvornicich-Zannier point P and of
    P + (-15, 0), byte for byte.  At k = 1 every place decides by the square
    test.  At k = 3 four places answer no for P, some of them after the
    descent has explored part of the halving tree.  At k = 600 the good odd
    primes stop at their depth cap and the bad prime 5 descends all the
    way.  P + (-15, 0) is refused by the residue test at most good odd
    primes, so at k = 2 and 3 those rows come from the residue gate alone;
    at k = 2 it is 2^k-divisible at 8 of the 169 places."""
    from locglob.cli import main
    monkeypatch.delenv("LOCGLOB_PRECISION", raising=False)
    code = main(list(argv) + ["--k", k, "--sweep", bound, "--format", "json"])
    with open(os.path.join(REPO, "tests", "data", expected)) as fh:
        assert capsys.readouterr().out == fh.read()
    assert code == exit_code


_PINNED_REPORTS = [
    (["gw", "--n", "8", "--places", "2"], "gw_n8_places_2.txt", 0),
    (["gw", "--n", "24", "--places", "3", "--format", "json"], "gw_n24_places_3.json", 0),
    (["hilbert", "--a", "3", "--b", "5", "--p", "5"], "hilbert_3_5_p5.txt", 0),
    (["quadroots", "--quadratics", "0,1;0,5;0,-5", "--place", "2"], "quadroots_2.txt", 1),
    (["power", "--a", "16", "--n", "8", "--p", "2"], "power_16_8_2.txt", 1),
    (list(_DZ) + ["--k", "2", "--place", "2"], "ec_div_dz_k2_place_2.txt", 1),
    # P + (-15, 0): a k = 1 sweep with both verdicts, reducing to the origin at 61
    (["ec-div", "--curve=-15,5,10", "--point=16185/3721,-1914000/226981", "--k", "1",
      "--sweep", "997", "--format", "json"], "ec_div_dz_plus_t_k1_sweep_997.json", 1),
    (["reproduce", "--format", "json"], "reproduce.json", 0),
    (["h1star", "--input", "tests/data/v4_z4_squared.json", "--format", "json"],
     "v4_z4_squared_h1star.json", 0),
] + [([cmd, "--input", "tests/data/v4_z8_two_full_labels.json", "--format", "json"],
      "v4_z8_two_full_labels_%s.json" % name, code)
     for cmd, name, code in (("h1", "h1", 0), ("h1star", "h1star", 0),
                             ("hasse", "hasse_no_queries", 1))
] + [([cmd, "--input", "tests/data/%s.json" % doc] + (t if cmd == "hasse" else [])
      + ["--format", "json"], "%s_%s.json" % (doc, cmd), 0)
     for doc, t in (("trivial_group_z4", []), ("v4_zero_module", ["--t", "v"]))
     for cmd in ("h1", "h1star", "hasse")]


@pytest.mark.parametrize("argv,expected,code", _PINNED_REPORTS,
                         ids=[name.rsplit(".", 1)[0] for _, name, _ in _PINNED_REPORTS])
def test_reports_are_pinned(monkeypatch, capsys, argv, expected, code):
    """One report of each remaining subcommand, byte for byte, with its
    exit status.  H1_* of V4 on (Z/4)^2 is (Z/2)^2, so its printed
    representatives depend on the basis of the restriction kernel.  The Z1
    system of V4 on Z/8 by the units takes a pivot of 2 and a column swap
    while it clears a pivot row (`families._random_module_pool()[22]` is
    the same module), and H1 = H1_* = Z/2 there.  The
    trivial group on Z/4 and V4 on the zero module give cocycle systems
    with no unknowns."""
    from locglob.cli import main
    monkeypatch.chdir(REPO)
    monkeypatch.delenv("LOCGLOB_PRECISION", raising=False)
    assert main(argv) == code
    with open(os.path.join(REPO, "tests", "data", expected)) as fh:
        assert capsys.readouterr().out == fh.read()


def test_power_root_is_pinned(monkeypatch, capsys):
    """The JSON report with a 7-adic 8th root of 16, byte for byte."""
    from locglob.cli import main
    monkeypatch.delenv("LOCGLOB_PRECISION", raising=False)
    code = main(["power", "--a", "16", "--n", "8", "--p", "7", "--root", "--format", "json"])
    with open(os.path.join(REPO, "tests", "data", "power_16_8_7_root.json")) as fh:
        assert capsys.readouterr().out == fh.read()
    assert code == 0


@pytest.mark.parametrize("a,n,p", [("28", "9", "3"), ("17", "4", "2")])
def test_power_root_with_p_dividing_n_is_pinned(monkeypatch, capsys, a, n, p):
    """Roots seeded mod p^(2t+1), t = v_p(n) >= 1, byte for byte."""
    from locglob.cli import main
    monkeypatch.delenv("LOCGLOB_PRECISION", raising=False)
    code = main(["power", "--a", a, "--n", n, "--p", p, "--root", "--format", "json"])
    path = os.path.join(REPO, "tests", "data", "power_%s_%s_%s_root.json" % (a, n, p))
    with open(path) as fh:
        assert capsys.readouterr().out == fh.read()
    assert code == 0


def test_ec_div_precision_above_the_ceiling_is_refused(capsys):
    code, out, err = _main(capsys, "ec-div", "--curve=-15,5,10", "--point", DZ_P, "--k", "2",
                           "--place", "3", "--precision", "4097")
    assert (code, out) == (2, "")
    assert err == "error: p-adic precision must be between 1 and 4096, got 4097\n"


# --- reproduce ---------------------------------------------------------------

def test_reproduce_green_and_deterministic():
    a = run_cli("reproduce", "--format", "json")
    assert a.returncode == 0
    doc = json.loads(a.stdout)
    assert doc["checks_failed"] == 0
    assert doc["checks_passed"] >= 15
    b = run_cli("reproduce", "--format", "json")
    assert a.stdout == b.stdout


def test_oracle_golden_text_equals_the_golden_file():
    # the search oracles write golden.json byte for byte
    from importlib import resources
    from search_oracles import golden_text, oracle_golden
    golden = resources.files("locglob").joinpath("data/golden.json").read_bytes()
    assert golden_text(oracle_golden()).encode() == golden


def test_reproduce_tampered_golden(tmp_path):
    from locglob.reproduce import load_golden
    golden = load_golden()
    golden["dz_halves_x"] = ["1", "2", "3", "4"]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    out = run_cli("reproduce", "--golden", str(path), "--format", "json")
    assert out.returncode == 1
    assert "dz.halves_x" in out.stderr
    doc = json.loads(out.stdout)
    assert doc["checks_failed"] == 1
    assert doc["results"]["dz.halves_x"].startswith("fail")


_BASE = {"locglob", "locglob.cli", "locglob.errors"}
_LOCAL = _BASE | {"locglob.schema", "locglob.padics", "locglob.arith", "locglob.value"}
_H1 = _BASE | {"locglob.schema", "locglob.groups", "locglob.abelian", "locglob.linalg",
               "locglob.gmodules", "locglob.cohomology", "locglob.oracles", "locglob.value"}
_FOOTPRINT = ("import sys\n"
              "from locglob.cli import main\n"
              "main(sys.argv[1:])\n"
              "sys.stderr.write(' '.join(m for m in sys.modules if m.startswith('locglob')))\n")


@pytest.mark.parametrize("args,expected", [
    (("power", "--a", "16", "--n", "8", "--p", "7", "--root"), _LOCAL),
    (("hilbert", "--a", "3", "--b", "5", "--p", "5"), _LOCAL),
    (("gw", "--n", "8", "--places", "2"), _LOCAL),
    (_EC_DIV, _LOCAL | {"locglob.elliptic"}),
    (("quadroots", "--quadratics", "0,1;0,5;0,-5", "--place", "2"),
     _LOCAL | {"locglob.elliptic"}),
    (("h1", "--input", "sample_inputs/mu8.json"), _H1),
    (("h1star", "--input", "sample_inputs/mu8.json"), _H1),
    (("hasse", "--input", "sample_inputs/mu8.json"), _H1 | {"locglob.models"}),
    (("frobnicate",), _BASE),
], ids=["power", "hilbert", "gw", "ec-div", "quadroots", "h1", "h1star", "hasse",
        "unknown"])
def test_subcommands_load_only_their_modules(args, expected):
    """A cold invocation imports only the modules its handler calls: the
    p-adic commands no cohomology, the cohomology commands no p-adics."""
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *args], cwd=REPO,
                          capture_output=True, text=True)
    loaded = set(proc.stderr.strip().splitlines()[-1].split())
    assert loaded == expected


@pytest.mark.parametrize("args,code", [
    (["hasse", "--input", "sample_inputs/mu8.json"], 1),
    (["h1star", "--input", "tests/data/cyclic_400.json"], 0),
], ids=["hasse", "h1star"])
def test_restriction_restricts_no_module(monkeypatch, capsys, args, code):
    """Restriction to a subgroup is read off the coboundary lattice of its
    generators: hasse and h1star build no restricted module, so every
    module they build is over the input's group."""
    import locglob.cohomology as cohomology
    from locglob.cli import main
    from locglob.gmodules import GModule

    orders = []
    build = GModule.__init__

    def record(self, group, *rest):
        orders.append(group.order)
        build(self, group, *rest)
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(cohomology, "_H1_CACHE", {})
    monkeypatch.setattr(GModule, "__init__", record)
    assert main(args) == code
    assert capsys.readouterr().err == ""
    assert len(orders) >= 1 and set(orders) == {orders[0]} and orders[0] > 1
