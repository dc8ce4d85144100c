import os
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import locglob.cohomology
import locglob.groups
import locglob.models
from locglob.abelian import FinAb
from locglob.cohomology import (CocycleClass, h1, h1_star, restriction_kernel,
                                subgroup_to_h1subgroup)
from locglob.errors import InputError
from locglob.gmodules import (GModule, mu8_klein_model, trivial_action_module,
                              trivial_character)
from locglob.groups import cyclic_group, klein_four_group
from locglob.models import (PlaceModel, ShaGroup, _subgroups_equal,
                            finite_support_bound, sha_of_model, verdict,
                            weak_approx_verdict)
from locglob.padics import (GW_SWEEP_LIMIT, Place, gw_decision, is_nth_power,
                            rational_nth_root)
from locglob.schema import load_document, parse_model

from families import (abelian_shapes_up_to, all_actions, groups_up_to_order_6,
                      mu8_q_model, random_place_model, seeded_models,
                      v4_trivial_z2_model, with_a_new_module)


def test_place_model_validation():
    module, _, _ = mu8_q_model()
    with pytest.raises(InputError):
        PlaceModel(module, {"x": (0, 1, 2)}, frozenset())      # not closed
    with pytest.raises(InputError):
        PlaceModel(module, {"inf": (0, 1, 2, 3)}, frozenset({"inf"}))  # too big
    with pytest.raises(InputError):
        PlaceModel(module, {}, frozenset({"inf"}))             # dangling label


def test_sha_examples():
    module, _, model = mu8_q_model()
    # T = all labels leaves only the generic cyclic conditions
    sha_all = sha_of_model(model, model.labels)
    star = h1_star(module)
    assert sha_all.order == star.order == 2
    assert sha_all.members.structure.invariant_factors == star.structure.invariant_factors
    assert sha_all.members.representatives == star.representatives
    sha_2 = sha_of_model(model, {"2"})
    assert sha_2.order == 2
    assert sha_2.support_set == frozenset({"2"})
    assert sha_of_model(model, set()).is_trivial()
    with pytest.raises(InputError):
        sha_of_model(model, {"3"})


def test_sha_members_satisfy_their_invariant():
    # every member restricts to a coboundary on every cyclic subgroup and on
    # every designated subgroup whose label lies outside T
    from locglob.cohomology import h1
    from locglob.groups import cyclic_subgroups
    from search_oracles import restrict_class, restrict_module
    rng = random.Random(3)
    models = [mu8_q_model()[2]] + [random_place_model(rng) for _ in range(8)]
    for model in models:
        labels = sorted(model.labels)
        for T in ([], [labels[0]], labels):
            sha = sha_of_model(model, frozenset(T))
            sets = [z.elements for z in cyclic_subgroups(model.module.group)
                    if z.order > 1]
            sets += [elems for label, elems in model.designated
                     if label not in frozenset(T)]
            for rep in sha.members.representatives:
                for elems in sets:
                    sub_mod = restrict_module(model.module, elems)
                    assert h1(sub_mod).is_coboundary(restrict_class(rep, elems))
            assert sha.support_set <= frozenset(T)


def test_restriction_rows_match_cocycle_restriction():
    # over every group of order <= 6 and module of order <= 8: the row test
    # of H1Group.restriction agrees with restricting cocycles, class by
    # class and subgroup by subgroup, and support_set is the set of labels
    # where some member of Sha(T) restricts to a non-coboundary
    from locglob.cohomology import h1
    from search_oracles import restrict_class, restrict_module
    rng = random.Random(29)
    outcomes = set()
    supports = set()
    for _, grp in groups_up_to_order_6():
        subgroups = sorted({grp.generated_subgroup((a, b))
                            for a in range(grp.order) for b in range(grp.order)} - {(0,)})
        for space in abelian_shapes_up_to(8):
            for act in all_actions(grp, space):
                module = GModule(grp, space, act)
                h = h1(module)
                trivial_at = {elems: {coords for coords, c in h.all_classes()
                                      if h1(restrict_module(module, elems)).is_coboundary(
                                          restrict_class(c, elems))}
                              for elems in subgroups}
                for elems in subgroups:
                    for coords, _ in h.all_classes():
                        trivial = h.vanishes_on(elems, [coords])
                        assert trivial == (coords in trivial_at[elems])
                        outcomes.add(trivial)
                model = PlaceModel(module, {"z%d" % i: elems
                                            for i, elems in enumerate(subgroups)}, frozenset())
                T = frozenset(label for label in model.labels if rng.random() < 0.5)
                sha = sha_of_model(model, T)
                members = []
                for coords, c in sha.members.all_classes():
                    assert h.coordinates_of(c) == coords
                    members.append(coords)
                assert sha.support_set == frozenset(
                    label for label, elems in model.designated
                    if any(x not in trivial_at[elems] for x in members))
                supports.add(bool(sha.support_set))
    assert outcomes == supports == {True, False}


def test_model_kernels_do_not_depend_on_call_order():
    # verdict, finite_support_bound and sha_of_model read Sha(S) from the
    # H1_* kept on the module's H1, whichever call comes first, and compute
    # any other Sha(K) per call; fresh instances called in the reverse order
    # agree
    rng = random.Random(41)
    for _ in range(20):
        model = random_place_model(rng)
        labels = sorted(model.labels)
        subsets = [frozenset(T) for r in range(len(labels) + 1)
                   for T in combinations(labels, r)]

        def fresh():
            return PlaceModel(model.module, model.designated, model.archimedean)
        shared = (verdict(model, subsets), finite_support_bound(model),
                  [sha_of_model(model, T) for T in subsets])
        shas = [sha_of_model(fresh(), T) for T in reversed(subsets)][::-1]
        bound = finite_support_bound(fresh())
        assert shared == (verdict(fresh(), subsets), bound, shas)


def test_sha_restricted_ambient():
    module, _, model = mu8_q_model()
    full = sha_of_model(model, {"2"})
    assert sha_of_model(model, {"2"}, v_generators=[(1,)]).order == full.order
    assert sha_of_model(model, {"2"}, v_generators=[]).is_trivial()
    assert sha_of_model(model, {"2"}, v_generators=[(0,)]).is_trivial()


def test_sha_monotone():
    rng = random.Random(14)
    for _ in range(25):
        model = random_place_model(rng)
        labels = sorted(model.labels)
        orders = {}
        for r in range(len(labels) + 1):
            for T in combinations(labels, r):
                orders[frozenset(T)] = sha_of_model(model, frozenset(T)).order
        for t1, o1 in orders.items():
            for t2, o2 in orders.items():
                if t1 <= t2:
                    assert o1 <= o2


def test_verdict_mu8():
    module, _, model = mu8_q_model()
    v = verdict(model, [set(), {"2"}, {"inf"}, {"2", "inf"}])
    assert v.hasse and not v.strong_hasse
    assert not v.singular(set())
    assert v.singular({"2"})
    assert not v.singular({"inf"})
    assert v.singular({"2", "inf"})
    kinds = {k for k, _, _ in v.witnesses}
    assert "strong_hasse" in kinds and "t_singular" in kinds
    for kind, labels, c in v.witnesses:
        assert c.values[0] == (0,)
    with pytest.raises(InputError):
        v.singular({"9"})


def test_verdict_reads_each_query_once():
    # a query may be a one-shot iterable, and a label that is no label of
    # the model, hashable or not, is an InputError; over H1_* != 0 (mu8)
    # and H1_* = 0 (V4 on Z/2)
    for model in (mu8_q_model()[2], v4_trivial_z2_model()):
        queries = [[], sorted(model.labels)]
        assert verdict(model, (iter(T) for T in queries)) == verdict(model, queries)
        for bad in (["9"], [["2"]]):
            with pytest.raises(InputError):
                verdict(model, [iter(bad)])


def test_verdict_trivial_module():
    grp = klein_four_group()
    module = trivial_action_module(grp, FinAb(()))
    model = PlaceModel(module, {"2": (0, 1, 2, 3)}, frozenset())
    v = verdict(model, [set(), {"2"}])
    assert v.hasse and v.strong_hasse
    assert not v.singular({"2"})


def test_verdict_klein_trivial_z2():
    module = trivial_action_module(klein_four_group(), FinAb((2,)))
    model = PlaceModel(module, {"7": (0, 1)}, frozenset())
    v = verdict(model, [set()])
    assert v.strong_hasse                     # H1_star = 0


def test_finite_support_bound_examples():
    module, _, model = mu8_q_model()
    assert finite_support_bound(model) == frozenset({"2"})
    # all-cyclic designated subgroups with a module whose star group vanishes
    z4 = cyclic_group(4)
    mod = trivial_action_module(z4, FinAb((3,)))
    m2 = PlaceModel(mod, {"a": (0, 2), "b": (0, 1, 2, 3)}, frozenset())
    assert finite_support_bound(m2) == frozenset()
    for T in (set(), {"a"}, {"a", "b"}):
        assert sha_of_model(m2, T).is_trivial()


def mu8_seven_label_model():
    # mu8 over Q with seven labelled primes: 2 with the whole (non-cyclic)
    # Klein group, the others with the cyclic group of Frobenius p mod 8
    path = os.path.join(os.path.dirname(__file__), "data", "mu8_seven_labels.json")
    return parse_model(load_document(path))


def _two_full_v4_model():
    """V4 acting trivially on Z/2 with two labels carrying the whole group:
    S = {u, v} and H1_* = 0."""
    v4 = v4_trivial_z2_model()
    return PlaceModel(v4.module, {"u": (0, 1, 2, 3), "v": (0, 1, 2, 3), "w": (0, 1)},
                      frozenset())


def _sha_by_full_list(model, T):
    """Coordinates of Sha(T) from every condition that defines it: each
    nontrivial cyclic subgroup, found by generating one from every element,
    and each designated subgroup whose label is not in T."""
    grp = model.module.group
    cyclic = {grp.generated_subgroup((g,)) for g in range(grp.order)} - {(0,)}
    sets = sorted(cyclic) + [elems for label, elems in model.designated if label not in T]
    return restriction_kernel(h1(model.module), sets)


def test_sha_equals_the_kernel_of_every_condition():
    # Sha(T) is keyed by T & S; for every label subset it equals the kernel
    # of the full list of conditions, and it grows with T
    grew = []
    for model in [mu8_seven_label_model()] + seeded_models():
        labels = sorted(model.labels)
        subsets = [frozenset(c) for r in range(len(labels) + 1)
                   for c in combinations(labels, r)]
        shas = {}
        for T in subsets:
            shas[T] = sha_of_model(model, T).members.coordinate_subgroup
            assert _subgroups_equal(shas[T], _sha_by_full_list(model, T))
        for T in subsets:
            for T2 in subsets:
                if T <= T2:
                    assert all(shas[T2].contains(g) for g in shas[T].generators)
                    grew.append(shas[T2].order > shas[T].order)
    assert grew.count(True) >= 50 and grew.count(False) >= 50


def _sha_by_stacked_kernel(model, T):
    """Sha(T) from its own stacked restriction kernel, whatever Sha(S) is:
    the coordinates from every defining condition, its members and the
    labels where one of them restricts nontrivially."""
    h = h1(model.module)
    members = subgroup_to_h1subgroup(h, _sha_by_full_list(model, T))
    support = frozenset(label for label, elems in model.designated
                        if not h.vanishes_on(elems, members.coordinate_generators))
    return ShaGroup(h, members, frozenset(T), support)


def _witnesses_by_stacked_kernel(model, shas):
    """The witnesses of verdict over the label subsets that shas maps to
    their Sha(T), all of them included, the singular ones by the search
    over all of T."""
    def least_nonzero(sha):
        return min((c for coords, c in sha.members.all_classes() if any(coords)),
                   key=CocycleClass.flat)
    out = []
    for kind, T in (("hasse", frozenset()), ("strong_hasse", model.labels)):
        if not shas[T].is_trivial():
            out.append((kind, (), least_nonzero(shas[T])))
    for T, sha in shas.items():
        wit = _singular_witness_by_search(model, sha)
        if wit is not None:
            out.append(("t_singular", tuple(sorted(T)), wit))
    return tuple(out)


def _spy_on_kernels(monkeypatch) -> list:
    """The element sets of every joint_restriction_kernel call, whether
    h1_star (in cohomology) or _sha_parts (in models) makes it."""
    calls = []
    real = locglob.cohomology.joint_restriction_kernel

    def spy(h, sets):
        calls.append(sets)
        return real(h, sets)
    for mod in (locglob.cohomology, locglob.models):
        monkeypatch.setattr(mod, "joint_restriction_kernel", spy)
    return calls


def test_sha_matches_its_own_stacked_kernel(monkeypatch):
    # Sha(T) of every label subset T has the order, coordinates and support
    # set of its own stacked kernel, and verdict the witnesses read off
    # those; a zero Sha(S) with S nonempty takes one kernel, where each K <= S
    # takes its own when Sha(S) is nonzero, and both occur
    kernels = _spy_on_kernels(monkeypatch)
    paths = []
    for model in [v4_trivial_z2_model(), _two_full_v4_model()] + seeded_models():
        labels = sorted(model.labels)
        queries = [frozenset(c) for r in range(len(labels) + 1)
                   for c in combinations(labels, r)]
        # an empty cache and a new module object, which keeps no H1 yet
        monkeypatch.setattr(locglob.cohomology, "_H1_CACHE", {})
        model = with_a_new_module(model)
        kernels.clear()
        v = verdict(model, queries)
        S = finite_support_bound(model)
        sha_s = sha_of_model(model, S)
        assert len(kernels) == (1 if sha_s.is_trivial() else 2 ** len(S))
        paths.append((len(S), sha_s.is_trivial()))
        wants = {T: _sha_by_stacked_kernel(model, T) for T in queries}
        for T, want in wants.items():
            sha = sha_of_model(model, T)
            assert sha.order == want.order
            assert _subgroups_equal(sha.members.coordinate_subgroup,
                                    want.members.coordinate_subgroup)
            assert sha.support_set == want.support_set
        assert v.witnesses == _witnesses_by_stacked_kernel(model, wants)
    assert paths[:2] == [(1, True), (2, True)]
    assert sum(n > 0 and zero for n, zero in paths) >= 10
    assert sum(n > 0 and not zero for n, zero in paths) >= 10
    assert any(n > 1 and not zero for n, zero in paths)


def test_verdict_computes_one_kernel_per_subset_of_s(monkeypatch):
    # all 128 label subsets of the seven-label model meet S = {2} in one of
    # two ways, so verdict needs two restriction kernels
    model = mu8_seven_label_model()
    monkeypatch.setattr(locglob.cohomology, "_H1_CACHE", {})
    calls = _spy_on_kernels(monkeypatch)
    labels = sorted(model.labels)
    queries = [frozenset(c) for r in range(len(labels) + 1) for c in combinations(labels, r)]
    v = verdict(model, queries)
    assert finite_support_bound(model) == frozenset({"2"})
    assert len(calls) <= 2 ** len(finite_support_bound(model))
    assert v.hasse and not v.strong_hasse
    assert [T for T, singular in v.t_singular if singular] == [
        key for key in map(tuple, map(sorted, queries)) if "2" in key]


def _modules_op(doc, reverse=False):
    """One op of the modules benchmark: parse the document, then h1, h1_star
    and verdict over every label subset, or the three in the reverse order."""
    model = parse_model(doc)
    labels = sorted(model.labels)
    queries = [frozenset(c) for r in range(len(labels) + 1) for c in combinations(labels, r)]
    if reverse:
        v = verdict(model, queries)
        star = h1_star(model.module)
        return h1(model.module), star, v
    return h1(model.module), h1_star(model.module), verdict(model, queries)


def test_a_modules_op_takes_h1_star_once_per_h1(monkeypatch):
    # h1_star and Sha(S) share one kernel over the cyclic subgroups; each
    # parse walks the cyclic subgroups of its new group once, for PlaceModel,
    # and h1_star reads them off the group; the same document parsed again
    # takes no kernel, and its module is compared with the cached one once,
    # by its first H1 lookup, which binds that H1 to it; mu8 has a nonzero
    # Sha(S) = H1_*, so its Sha(empty) takes one more kernel each time, the
    # V4 model on Z/2 none
    root = os.path.dirname(os.path.dirname(__file__))
    cases = [(os.path.join(root, "sample_inputs", "mu8.json"), 1),
             (os.path.join(root, "tests", "data", "v4_trivial_z2.json"), 0)]
    kernels, walks, comparisons = [], [], []
    real_kernel = locglob.cohomology.restriction_kernel
    real_walk = locglob.groups._cyclic_walk
    real_eq = GModule.__eq__

    def kernel_spy(h, sets):
        kernels.append(list(sets))
        return real_kernel(h, sets)

    def walk_spy(group):
        walks.append(group)
        return real_walk(group)
    for path, others in cases:
        doc = load_document(path)
        cyclic = list(parse_model(doc).cyclic)
        monkeypatch.setattr(locglob.cohomology, "_H1_CACHE", {})
        want = _modules_op(doc, reverse=True)
        monkeypatch.setattr(locglob.cohomology, "_H1_CACHE", {})
        with monkeypatch.context() as m:
            # every binding of either function, wherever it was imported
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("locglob."):
                    for key, value in list(vars(mod).items()):
                        for real, spy in ((real_kernel, kernel_spy), (real_walk, walk_spy)):
                            if value is real:
                                m.setattr(mod, key, spy)
            m.setattr(GModule, "__eq__", lambda a, b: comparisons.append(b) or real_eq(a, b))
            for first in (True, False):
                kernels.clear()
                walks.clear()
                comparisons.clear()
                got = _modules_op(doc)
                assert len(comparisons) == (0 if first else 1), path
                assert kernels.count(cyclic) == (1 if first else 0), path
                assert len(kernels) == int(first) + others, path
                assert len(walks) == 1, path
                assert got == want


def test_a_verdict_looks_h1_star_up_once(monkeypatch):
    # verdict fetches H1_* once and hands it to the Sha(K) of every distinct
    # K = T & S; over the label subsets of the V4 model on Z/8, S = {p0, p2}
    # gives four distinct K, which took one lookup each before
    calls = []
    real = locglob.models.h1_star
    monkeypatch.setattr(locglob.models, "h1_star",
                        lambda module: calls.append(module) or real(module))
    root = os.path.dirname(os.path.dirname(__file__))
    model = parse_model(load_document(os.path.join(root, "tests", "data",
                                                   "v4_z8_two_full_labels.json")))
    labels = sorted(model.labels)
    verdict(model, [c for r in range(len(labels) + 1) for c in combinations(labels, r)])
    assert finite_support_bound(model) == frozenset({"p0", "p2"})
    assert len(calls) == 1


def test_hasse_failure_with_cyclic_decomposition_everywhere():
    # the mu8 module with only cyclic designated subgroups: every class of
    # the cyclic-restriction kernel is locally trivial everywhere, so the
    # Hasse principle fails while the model is nonsingular
    module, _ = mu8_klein_model()
    model = PlaceModel(module, {"2": (0, 1), "inf": (0, 3)}, frozenset({"inf"}))
    v = verdict(model, [{"2"}, {"2", "inf"}])
    assert not v.hasse
    assert not v.strong_hasse
    assert not v.singular({"2"}) and not v.singular({"2", "inf"})
    # S is empty, so sha(T) = sha(empty) != 0 for every T
    assert finite_support_bound(model) == frozenset()
    assert sha_of_model(model, set()).order == 2


def test_finite_support_bound_random():
    rng = random.Random(99)
    for _ in range(30):
        model = random_place_model(rng)
        S = finite_support_bound(model)
        labels = sorted(model.labels)
        sha_s = sha_of_model(model, S)
        for r in range(len(labels) + 1):
            for T in combinations(labels, r):
                sha_t = sha_of_model(model, frozenset(T))
                assert sha_t.order <= sha_s.order
                if not (set(T) & S):
                    assert sha_t.is_trivial()


def test_gw_decision_table():
    d = gw_decision(8, {2})
    assert d.kernel_order == 2 and d.witness == 16
    assert gw_decision(8, {3, 5}).kernel_order == 1
    assert gw_decision(6, {2}).kernel_order == 1
    assert gw_decision(2, {2}).kernel_order == 1
    assert gw_decision(24, {2, 3}).kernel_order == 2
    assert gw_decision(24, {2, 3}).witness == 4096
    with pytest.raises(InputError):
        gw_decision(1, set())
    for n in (8, 4):
        with pytest.raises(InputError):
            gw_decision(n, {2}, sweep_bound=GW_SWEEP_LIMIT + 1)


def test_gw_witness_properties():
    d = gw_decision(16, {2}, sweep_bound=200)
    w = d.witness
    assert rational_nth_root(w, 16) is None
    assert rational_nth_root(w, 8) is not None
    for p in (3, 5, 7, 97):
        assert is_nth_power(w, 16, Place.finite(p))
    assert not is_nth_power(w, 16, Place.finite(2))


def test_weak_approx_mu8():
    module, chi, model = mu8_q_model()
    w = weak_approx_verdict(model, chi, {"2"})
    assert not w.surjective
    assert set(w.dual.action) == {((1,),)}    # dual is Z/8 with trivial action
    w2 = weak_approx_verdict(model, chi, set())
    assert w2.surjective and w2.reason == "empty product"


def test_weak_approx_mu2_constructive():
    grp = klein_four_group()
    module = trivial_action_module(grp, FinAb((2,)))
    chi = trivial_character(grp, 2)
    model = PlaceModel(module, {"3": (0,), "7": (0,), "inf": (0,)},
                       frozenset({"inf"}))
    w = weak_approx_verdict(model, chi, {"3", "7"})
    assert w.surjective
    assert len(w.witnesses) == 4              # two generators per odd place
    for place_str, target, x in w.witnesses:
        v = Place.parse(place_str)
        assert is_nth_power(Fraction(x) * target, 2, v)
    w_inf = weak_approx_verdict(model, chi, {"inf", "3"})
    assert w_inf.surjective
    assert any(p == "inf" for p, _, _ in w_inf.witnesses)


def test_weak_approx_witnesses_at_2_and_at_a_label_that_is_no_prime():
    # at 2 the square classes are generated by 3, 5 and 2; each witness x
    # puts g's class at its place v0 and the square class at every other
    # place of T.  A label that names no place has no witnesses.
    grp = klein_four_group()
    module = trivial_action_module(grp, FinAb((2,)))
    chi = trivial_character(grp, 2)
    model = PlaceModel(module, {"2": (0,), "5": (0,), "x": (0,)}, frozenset())
    T = {"2", "5"}
    w = weak_approx_verdict(model, chi, T)
    assert w.surjective
    assert [(v0, g) for v0, g, _ in w.witnesses] == [("2", 3), ("2", 5), ("2", 2),
                                                     ("5", 2), ("5", 5)]
    for v0, g, x in w.witnesses:
        for label in T:
            assert is_nth_power(x * g if label == v0 else x, 2, Place.parse(label)), (v0, g)
    w_x = weak_approx_verdict(model, chi, {"x", "5"})
    assert w_x.surjective and w_x.witnesses == ()


def _singular_witness_by_search(model, sha):
    """Least member of Sha(T) restricting nontrivially at some place of T:
    every member tested at every place of T, support_set not read."""
    if sha.members.is_trivial():
        return None
    targets = [elems for label, elems in model.designated if label in sha.excluded]
    hits = (c for coords, c in sha.members.all_classes()
            if not all(sha.ambient.vanishes_on(elems, [coords]) for elems in targets))
    return min(hits, key=CocycleClass.flat, default=None)


def test_verdict_singularity_matches_the_full_search():
    # verdict reads T-singularity from support_set and tests only the places
    # in support_set & T; with every label subset queried, its answers and
    # witnesses equal those of the search over all of T
    outcomes = []
    for model in seeded_models():
        labels = sorted(model.labels)
        queries = [frozenset(c) for k in range(len(labels) + 1)
                   for c in combinations(labels, k)]
        v = verdict(model, queries)
        found = {key: wit for kind, key, wit in v.witnesses if kind == "t_singular"}
        for T in queries:
            want = _singular_witness_by_search(model, sha_of_model(model, T))
            assert v.singular(T) == (want is not None)
            assert found.get(tuple(sorted(T))) == want
            outcomes.append(want is not None)
    assert outcomes.count(True) >= 50 and outcomes.count(False) >= 300


def test_finite_support_bound_matches_generated_subgroups():
    # finite_support_bound reads cyclicity from the model's cyclic subgroups;
    # S is the set of labels whose subgroup no single element generates
    bounds = set()
    for model in seeded_models():
        grp = model.module.group
        want = frozenset(label for label, elems in model.designated
                         if all(grp.generated_subgroup((g,)) != elems for g in elems))
        assert finite_support_bound(model) == want
        bounds.add(bool(want))
    assert bounds == {True, False}


def test_verdict_per_k_matches_the_per_query_oracle(monkeypatch):
    # verdict answers every T from K = T & S; its singular flags and
    # witnesses equal those of one Sha(T) per query, over every label subset
    # queried once in order, again reversed with each set's labels reversed,
    # and repeated; the support set of every Sha(K) lies inside K, and each
    # distinct K reaches the witness search at most once per verdict, none
    # when H1_* is zero
    import locglob.models
    from search_oracles import verdict_by_queries
    searched = []
    search = locglob.models._singular_witness

    def spy(model, sha):
        searched.append(sha.excluded)
        return search(model, sha)
    monkeypatch.setattr(locglob.models, "_singular_witness", spy)
    singular, zero_star = [], []
    for model in [mu8_seven_label_model(), v4_trivial_z2_model(),
                  _two_full_v4_model()] + seeded_models():
        labels = sorted(model.labels)
        subsets = [c for r in range(len(labels) + 1) for c in combinations(labels, r)]
        queries = subsets + [c[::-1] for c in reversed(subsets)] + subsets
        searched.clear()
        v = verdict(model, queries)
        assert (v.t_singular, v.witnesses) == verdict_by_queries(model, queries)
        S = finite_support_bound(model)
        assert len(searched) == len(set(searched))
        zero_star.append(h1_star(model.module).is_trivial())
        if zero_star[-1]:
            assert searched == []
        else:
            assert set(searched) == {S & frozenset(c) for c in subsets}
        for r in range(len(S) + 1):
            for K in combinations(sorted(S), r):
                assert sha_of_model(model, K).support_set <= frozenset(K)
        singular += [value for _, value in v.t_singular]
    assert singular.count(True) >= 100 and singular.count(False) >= 1000
    assert zero_star.count(True) >= 10 and zero_star.count(False) >= 10


def test_verdict_names_the_first_query_with_unknown_labels():
    # messages taken from the per-query path; queries before the first
    # offending one are valid, and later ones are never read
    _, _, model = mu8_q_model()
    for queries, message in [
            ([{"2"}, {"x", "b"}, {"c"}], "unknown labels in T: ['b', 'x']"),
            ([set(), {"inf", "2", "9"}, {"a"}], "unknown labels in T: ['9']"),
            ([{"2"}, {"2", "inf"}, ["zz", 2], {"yy", "2"}], "unknown labels in T: ['zz']")]:
        with pytest.raises(InputError) as err:
            verdict(model, queries)
        assert str(err.value) == message


def test_place_model_messages():
    # messages taken from the label loop before its subgroup shortcut
    module, _, _ = mu8_q_model()
    for designated, message in [
            ((("2", (0, 1)), ("2", (0,))), "duplicate place label '2'"),
            ({2: (0,), "2": (0, 1)}, "duplicate place label '2'"),
            ((("x", (0, 1, 2)), ("x", (0,))), "duplicate place label 'x'"),
            ({"x": (0, 1, 2)}, "designated set at 'x' is not a subgroup"),
            ({"a": (0, 1), "b": (1, 2)}, "designated set at 'b' is not a subgroup"),
            ({"b": (0, 1), "a": (0, 1, 2)}, "designated set at 'a' is not a subgroup"),
            ({"a": (0, 1, 2), "b": (0, 3, 1)}, "designated set at 'a' is not a subgroup")]:
        with pytest.raises(InputError) as err:
            PlaceModel(module, designated, frozenset())
        assert str(err.value) == message


def test_subgroup_shortcut_matches_the_all_pairs_predicate():
    # PlaceModel accepts {0}, the whole group and the cyclic subgroups
    # without the closure test: on every subset holding 0 of the C4, V4 and
    # S3 tables it accepts exactly the subgroups, and S holds the label
    # exactly when its subgroup is neither trivial nor cyclic, the whole
    # non-cyclic group included
    from locglob.groups import symmetric_group_3
    from search_oracles import cyclic_subgroups_by_closure, is_subgroup_all_pairs
    kinds = []
    for grp in (cyclic_group(4), klein_four_group(), symmetric_group_3()):
        module = trivial_action_module(grp, FinAb((2,)))
        cyclic = {z.elements for z in cyclic_subgroups_by_closure(grp)}
        rest = range(1, grp.order)
        for r in range(grp.order):
            for elems in combinations(rest, r):
                elems = (0,) + elems
                if not is_subgroup_all_pairs(grp, elems):
                    with pytest.raises(InputError) as err:
                        PlaceModel(module, {"x": elems, "y": (0,)}, frozenset())
                    assert str(err.value) == "designated set at 'x' is not a subgroup"
                    kinds.append("refused")
                    continue
                model = PlaceModel(module, {"x": elems, "y": (0,)}, frozenset())
                in_s = elems not in cyclic
                assert finite_support_bound(model) == (frozenset({"x"}) if in_s else frozenset())
                kinds.append((len(elems) == grp.order, in_s))
    # the whole group is in S for V4 and S3 and out of it for C4
    assert kinds.count((True, True)) == 2 and kinds.count((True, False)) == 1
    assert kinds.count((False, False)) == 11 and kinds.count("refused") == 34
