"""Value semantics of the package's immutable classes: equal arguments
give equal instances with equal hashes, every compared field takes part in
equality, the cached and derived fields take none, and no field can be
assigned or deleted once an instance is built.  A class that only stores
its compared fields is built positionally by the constructor Value gives
it."""

import copy
import pickle
from fractions import Fraction

import pytest

from locglob import cohomology
from locglob.abelian import (FinAb, orthogonal_complement_chain, standard_pairing,
                             subgroup_from_generators)
from locglob.cohomology import CocycleClass, h1, h1_star
from locglob.elliptic import Curve
from locglob.gmodules import mu8_klein_model, trivial_action_module, trivial_character
from locglob.groups import cyclic_subgroups, klein_four_group
from locglob.linalg import lattice_quotient, smith_normal_form
from locglob.models import PlaceModel, sha_of_model, verdict, weak_approx_verdict
from locglob.oracles import brute_force_h1
from locglob.padics import PadicNumber, Place, gw_decision, product_formula_check
from locglob.reproduce import Item
from locglob.value import Value


def _module():
    return mu8_klein_model()[0]


def _model():
    return PlaceModel(_module(), {"2": (0, 1, 2, 3), "inf": (0, 3)}, frozenset({"inf"}))


def _weak_approx():
    grp = klein_four_group()
    model = PlaceModel(trivial_action_module(grp, FinAb((2,))),
                       {"3": (0,), "7": (0,), "inf": (0,)}, frozenset({"inf"}))
    return weak_approx_verdict(model, trivial_character(grp, 2), {"3", "7"})


# class name -> (a builder that makes a new instance from new arguments on
# each call, its compared fields, its fields outside equality)
CLASSES = {
    "Place": (lambda: Place.finite(7), ("prime",), ()),
    "PadicNumber": (lambda: PadicNumber.from_rational(Fraction(5, 3), 7, 20),
                    ("prime", "valuation", "unit", "precision"), ()),
    "ProductReport": (lambda: product_formula_check(3, 5), ("places", "symbols", "product"), ()),
    "GwDecision": (lambda: gw_decision(8, [2], sweep_bound=50),
                   ("kernel_order", "witness", "two_power", "checked_places"), ()),
    "FinAb": (lambda: FinAb((2, 4)), ("invariant_factors",), ()),
    "Subgroup": (lambda: subgroup_from_generators(FinAb((2, 4)), [(1, 2)]),
                 ("ambient", "generators", "structure", "_quotient"), ()),
    "Pairing": (lambda: standard_pairing(FinAb((2, 4))), ("space", "matrix"), ()),
    "ChainDuality": (lambda: orthogonal_complement_chain(FinAb((2, 4)), [(0, 2)], [(0, 1)]),
                     ("a1_perp", "a2_perp", "quotient_order", "iso_table"), ()),
    "Snf": (lambda: smith_normal_form([[2, 4], [6, 8]]), ("d", "p", "q", "rank"), ()),
    "LatticeQuotient": (lambda: lattice_quotient([[1, 0], [0, 1]], [[2, 0], [0, 4]], 2),
                        ("x_p", "x_d", "w_p", "factors_all", "invariant_factors", "basis",
                         "representatives"), ()),
    "GroupTable": (klein_four_group, ("order", "table"), ("_gens", "_places")),
    "SubgroupSpec": (lambda: cyclic_subgroups(klein_four_group())[1],
                     ("elements", "generator"), ()),
    "GModule": (_module, ("group", "space", "action"), ("_h1",)),
    "CyclotomicData": (lambda: mu8_klein_model()[1], ("modulus", "character"), ()),
    "CocycleClass": (lambda: CocycleClass(_module(), [(0,), (2,), (4,), (6,)]),
                     ("module", "values"), ()),
    "H1Group": (lambda: h1(_module()),
                ("module", "structure", "representatives", "generators", "quotient"),
                ("_restrictions", "_star")),
    "H1Subgroup": (lambda: h1_star(_module()),
                   ("ambient", "structure", "coordinate_generators", "representatives",
                    "coordinate_subgroup"), ()),
    "PlaceModel": (_model, ("module", "designated", "archimedean"),
                   ("labels", "cyclic", "support_bound")),
    "ShaGroup": (lambda: sha_of_model(_model(), ["2"]),
                 ("ambient", "members", "excluded", "support_set"), ()),
    "Verdict": (lambda: verdict(_model(), [["2"], []]),
                ("hasse", "strong_hasse", "t_singular", "witnesses"), ()),
    "WeakApproxVerdict": (_weak_approx, ("surjective", "reason", "dual", "witnesses"), ()),
    "BruteH1": (lambda: brute_force_h1(_module()), ("order", "torsion_counts"), ()),
    "Curve": (lambda: Curve(-15, 5, 10), ("e1", "e2", "e3"), ("_pairs",)),
    "CurvePoint": (lambda: Curve(-15, 5, 10).point(Fraction(1561, 144), Fraction(19459, 1728)),
                   ("x", "y", "infinity"), ("_checked_by",)),
    "Item": (lambda: Item("mu8 H1_*", True, "order %d" % 4), ("name", "ok", "detail"), ()),
}

# the classes that only store their compared fields: no __init__ of their
# own, so Value builds one over _compare
PLAIN = {"BruteH1", "ChainDuality", "GwDecision", "H1Subgroup", "Item", "LatticeQuotient",
         "ProductReport", "ShaGroup", "Snf", "Subgroup", "SubgroupSpec", "Verdict",
         "WeakApproxVerdict"}

# a field holding a dict makes the instance unhashable, as it was before
UNHASHABLE = {"BruteH1"}


class _Other:
    """A field value equal to nothing but itself."""


@pytest.fixture
def build(monkeypatch):
    """Build one instance of a class from new arguments, with an empty H1
    cache, so two builds share no cached H1."""
    def make(name):
        monkeypatch.setattr(cohomology, "_H1_CACHE", {})
        obj = CLASSES[name][0]()
        assert type(obj).__name__ == name
        return obj
    return make


def _forged(obj, field):
    """obj with one field replaced, past the frozen assignment."""
    object.__setattr__(obj, field, _Other())
    return obj


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_equal_arguments_give_equal_instances(build, name):
    a, b = build(name), build(name)
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != object() and a != tuple(getattr(a, f) for f in CLASSES[name][1])


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_each_compared_field_takes_part(build, name):
    a = build(name)
    for field in CLASSES[name][1]:
        b = _forged(build(name), field)
        assert a != b and b != a and not a == b, field


@pytest.mark.parametrize("name", [n for n in sorted(CLASSES) if CLASSES[n][2]])
def test_derived_and_cached_fields_stay_out_of_equality(build, name):
    a = build(name)
    for field in CLASSES[name][2]:
        b = _forged(build(name), field)
        assert a == b and hash(a) == hash(b), field


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_fields_cannot_be_assigned_or_deleted(build, name):
    obj = build(name)
    fields = CLASSES[name][1] + CLASSES[name][2]
    for field in fields:
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, _Other())
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is before
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_copy_and_pickle_keep_the_value(build, name):
    obj = build(name)
    assert copy.copy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_a_module_keeps_the_hash_of_its_compared_fields():
    # GModule takes Value's default hash, that of the compared fields as one
    # tuple, whether or not it keeps its H1 yet
    module = _module()
    assert hash(module) == hash((module.group, module.space, module.action))
    h1(module)
    assert module._h1 is not None
    assert hash(module) == hash((module.group, module.space, module.action))
    assert hash(pickle.loads(pickle.dumps(module))) == hash(module)


def test_repr_names_the_compared_fields():
    assert repr(Place.finite(7)) == "Place(prime=7)"
    assert repr(FinAb((2, 4))) == "FinAb(invariant_factors=(2, 4))"


def _built_by_value(cls):
    return cls.__init__.__qualname__ == "Value.__init_subclass__.<locals>.__init__"


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_only_the_plain_classes_take_the_built_constructor(build, name):
    assert _built_by_value(type(build(name))) == (name in PLAIN)


@pytest.mark.parametrize("name", sorted(PLAIN))
def test_a_plain_class_is_built_positionally_in_compare_order(build, name):
    obj = build(name)
    fields = [getattr(obj, f) for f in CLASSES[name][1]]
    again = type(obj)(*fields)
    assert again == obj
    if name not in UNHASHABLE:
        assert hash(again) == hash(obj)
    assert all(getattr(again, f) is v for f, v in zip(CLASSES[name][1], fields))
    assert repr(again) == repr(obj)


@pytest.mark.parametrize("name", sorted(PLAIN))
def test_a_plain_class_refuses_a_wrong_field_count(build, name):
    obj = build(name)
    cls = type(obj)
    fields = [getattr(obj, f) for f in CLASSES[name][1]]
    for count in sorted({0, len(fields) - 1, len(fields) + 1}):
        with pytest.raises(TypeError, match="%s\\(\\) takes %d fields" % (name, len(fields))):
            cls(*(fields + fields)[:count])
    with pytest.raises(TypeError):
        cls(**dict(zip(CLASSES[name][1], fields)))


def test_a_class_with_its_own_init_keeps_it():
    class Pair(Value):
        __slots__ = _compare = ("a", "b")

    class Checked(Value):
        __slots__ = _compare = ("a", "b")

        def __init__(self, a, b):
            if a > b:
                raise ValueError("a > b")
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    assert _built_by_value(Pair) and not _built_by_value(Checked)
    assert Pair(2, 1) == Pair(2, 1) != Pair(1, 2)
    assert (Pair(2, 1).a, Pair(2, 1).b) == (2, 1)
    assert Checked(1, 2) == Checked(1, 2)
    with pytest.raises(ValueError):
        Checked(2, 1)
    with pytest.raises(TypeError, match="takes 2 fields \\(a, b\\), 3 given"):
        Pair(1, 2, 3)
