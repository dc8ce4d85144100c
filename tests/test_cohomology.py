import itertools
import os
import random
from math import gcd

import pytest

from locglob.abelian import FinAb, linear_table, subgroup_from_generators
from locglob import cohomology, oracles
from locglob.cohomology import (CocycleClass, H1Group, coboundary, h1, h1_star,
                                restriction_kernel, zero_cocycle)
from locglob.errors import InputError, SelfCheckError
from locglob.gmodules import (GModule, dual_module,
                              homothety_criterion, homothety_module,
                              mu8_klein_model, trivial_action_module,
                              trivial_character, CyclotomicData)
from locglob.groups import (GroupTable, cyclic_group, cyclic_subgroups,
                            klein_four_group, symmetric_group_3,
                            trivial_group)
from locglob.linalg import LatticeQuotient, kernel_mod_lattice
from locglob.oracles import brute_force_h1
from search_oracles import (brute_force_h1_by_assignments, brute_force_h1_star,
                            brute_force_is_coboundary, cyclic_h1_profile,
                            double_dual_isomorphism, dual_pairing_value,
                            h1_star_by_restricted_modules, is_action, is_character,
                            is_cocycle, matrix_is_automorphism, restrict_class,
                            restrict_module, restriction_through_subgroup_h1,
                            subgroup_table)

from families import all_actions, lemma_consistency_family


def test_h1_trivial_group():
    mod = trivial_action_module(trivial_group(), FinAb((4, 8)))
    assert h1(mod).structure.invariant_factors == ()


@pytest.mark.parametrize("group,factors", [
    (trivial_group(), (4,)), (cyclic_group(3), ()), (klein_four_group(), ()),
], ids=["1-z4", "c3-0", "v4-0"])
def test_h1_of_a_system_with_no_unknowns(monkeypatch, group, factors):
    # no generators or a zero module: h1 takes its general path, so the
    # lattice quotient is set, and the built-in check runs when |G| > 1
    checked = []
    brute = oracles.brute_force_h1
    monkeypatch.setattr(cohomology, "_H1_CACHE", {})
    monkeypatch.setattr(oracles, "brute_force_h1", lambda m: checked.append(m) or brute(m))
    mod = trivial_action_module(group, FinAb(factors))
    h = h1(mod)
    assert h.is_trivial() and h.quotient is not None
    for e in mod.space.elements():
        assert h.coordinates_of(coboundary(mod, e)) == ()
    assert h.cocycle_from_coordinates(()) == zero_cocycle(mod)
    assert h1_star(mod).is_trivial()
    assert checked == ([mod] if group.order > 1 else [])


def test_h1_z2_trivial_on_z2():
    # oracle: brute force over the 2 values of a cocycle on the generator
    # (done independently below, and always inside h1 for inputs this small)
    mod = trivial_action_module(cyclic_group(2), FinAb((2,)))
    H = h1(mod)
    assert H.structure.invariant_factors == (2,)
    brute = brute_force_h1(mod)
    assert brute.order == 2


def test_h1_negation_on_z4():
    # oracle: ker(1 + sigma) / im(sigma - 1) for cyclic groups
    mod = homothety_module(cyclic_group(2), FinAb((4,)), (1, -1))
    H = h1(mod)
    assert H.structure.invariant_factors == (2,)
    order, counts = cyclic_h1_profile(mod)
    assert order == 2


@pytest.mark.parametrize("n,mults", [
    (3, (1, 4, 7)),          # order-3 action on Z/9 by units
    (4, (1, 2, 4, 8)),       # multiplication by 2 on Z/15
    (2, (1, 5)),             # on Z/12
])
def test_h1_cyclic_formula_agreement(n, mults):
    modulus = {3: 9, 4: 15, 2: 12}[n]
    mod = homothety_module(cyclic_group(n), FinAb((modulus,)), mults)
    H = h1(mod)
    order, counts = cyclic_h1_profile(mod)
    assert H.order == order
    for k, cnt in counts.items():
        expect = 1
        for s in H.structure.invariant_factors:
            expect *= gcd(k, s)
        assert cnt == expect


def test_h1_brute_force_agreement_random():
    rng = random.Random(77)
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
              klein_four_group(), symmetric_group_3()]
    from families import all_actions, lemma_consistency_family
    shapes = [(2,), (4,), (2, 2), (3,), (6,)]
    checked = 0
    for grp in groups:
        for shape in shapes:
            space = FinAb(shape)
            actions = list(all_actions(grp, space, dedup_first=False))
            rng.shuffle(actions)
            for act in actions[:3]:
                mod = GModule(grp, space, act)
                H = h1(mod)             # internal cross-check runs here
                brute = brute_force_h1(mod)
                assert H.order == brute.order
                checked += 1
    assert checked >= 30


def _all_maps_cocycles(mod):
    """Value-index tuples of the maps G -> M with f(1) = 0 that satisfy
    f(gh) = f(g) + g.f(h) for every pair, by enumeration of all maps."""
    grp, space = mod.group, mod.space
    elems = list(space.elements())      # lexicographic: index 0 is zero
    out = set()
    for rest in itertools.product(range(len(elems)), repeat=grp.order - 1):
        f = (0,) + rest
        vals = [elems[i] for i in f]
        if all(vals[grp.mul(g, h)] == space.add(vals[g], mod.act(g, vals[h]))
               for g in range(grp.order) for h in range(grp.order)):
            out.add(f)
    return out


def test_generator_enumeration_finds_every_cocycle():
    # the assignment walk enumerates values on the generators only; every
    # map G -> M must agree with it on the set of cocycles, and
    # brute_force_h1 on their order and torsion counts
    from families import all_actions, lemma_consistency_family
    rng = random.Random(31)
    checked = 0
    for grp in (cyclic_group(2), cyclic_group(3), cyclic_group(4),
                klein_four_group(), symmetric_group_3(), cyclic_group(6)):
        for shape in ((2,), (3,), (4,), (2, 2), (8,), (2, 4), (3, 3)):
            space = FinAb(shape)
            if space.order ** (grp.order - 1) > 4096:
                continue
            actions = list(all_actions(grp, space, dedup_first=False))
            rng.shuffle(actions)
            for act in actions[:3]:
                mod = GModule(grp, space, act)
                brute, cocycles = brute_force_h1_by_assignments(mod)
                assert brute_force_h1(mod) == brute
                assert len(set(cocycles)) == len(cocycles)
                assert set(cocycles) == _all_maps_cocycles(mod)
                checked += 1
    assert checked >= 60


def test_h1_checks_modules_with_few_generators(monkeypatch):
    # |M|^|G| = 16^6 = 2^24 is beyond the all-maps bound, but the work of
    # the generator enumeration, 16^2 * 6, is small, so h1 must run the
    # check and report a disagreement
    mod = trivial_action_module(symmetric_group_3(), FinAb((16,)))
    monkeypatch.setattr(cohomology, "_H1_CACHE", {})
    monkeypatch.setattr(oracles, "brute_force_h1",
                        lambda module: oracles.BruteH1(3, {}))
    with pytest.raises(SelfCheckError):
        h1(mod)


def test_representatives_are_independent_cocycles():
    mod, _ = mu8_klein_model()
    H = h1(mod)
    for rep in H.representatives:
        CocycleClass(mod, rep.values)    # validates the cocycle identity
    for coords, c in H.all_classes():
        assert H.coordinates_of(c) == coords
        assert H.is_coboundary(c) == (not any(coords))


def test_representative_independence_across_modules():
    # every nonzero combination of representatives is a noncoboundary, and
    # the membership solver inverts cocycle_from_coordinates
    from families import all_actions, lemma_consistency_family
    sampled = []
    for grp in (klein_four_group(), symmetric_group_3(), cyclic_group(4)):
        for shape in ((2, 2), (8,), (2, 4)):
            space = FinAb(shape)
            for act in list(all_actions(grp, space))[:4]:
                sampled.append(GModule(grp, space, act))
    assert len(sampled) >= 12
    for mod in sampled:
        H = h1(mod)
        if H.order > 64:
            continue
        for coords, c in H.all_classes():
            assert H.coordinates_of(c) == coords
            assert H.is_coboundary(c) == (not any(coords))
            assert brute_force_is_coboundary(mod, c.values) == (not any(coords))


def test_cyclic_formula_on_random_matrix_actions():
    # ker(norm)/im(sigma - 1) agreement for cyclic groups acting by
    # arbitrary automorphisms, not only homotheties
    from families import all_actions, lemma_consistency_family
    rng = random.Random(6)
    for n in (2, 3, 4, 6):
        grp = cyclic_group(n)
        for shape in ((2, 2), (2, 4), (3, 3), (8,)):
            space = FinAb(shape)
            acts = list(all_actions(grp, space, dedup_first=False))
            rng.shuffle(acts)
            for act in acts[:3]:
                mod = GModule(grp, space, act)
                order, counts = cyclic_h1_profile(mod)
                H = h1(mod)
                assert H.order == order
                for k, cnt in counts.items():
                    expect = 1
                    for s in H.structure.invariant_factors:
                        expect *= gcd(k, s)
                    assert cnt == expect


def test_cocycle_validation_rejects_noncocycles():
    mod = trivial_action_module(cyclic_group(2), FinAb((2,)))
    with pytest.raises(InputError):
        CocycleClass(mod, ((1,), (0,)))   # nonzero at the identity
    mod2 = homothety_module(cyclic_group(2), FinAb((4,)), (1, -1))
    with pytest.raises(InputError):
        CocycleClass(mod2, ((0,), (1,), (0,)))


def test_restrict_class_examples():
    # trivial class restricts trivially
    mod, _ = mu8_klein_model()
    z = zero_cocycle(mod)
    r = restrict_class(z, (0, 1))
    assert all(v == (0,) for v in r.values)

    # nonzero homomorphism on the Klein group, trivial action on Z/2,
    # restricted to its kernel line
    v4 = klein_four_group()
    triv = trivial_action_module(v4, FinAb((2,)))
    f = CocycleClass(triv, ((0,), (1,), (0,), (1,)))
    kernel_line = (0, 2)
    res = restrict_class(f, kernel_line)
    assert all(v == (0,) for v in res.values)
    sub_mod = restrict_module(triv, kernel_line)
    assert h1(sub_mod).is_coboundary(res)

    # the mu8 star class: trivial on every cyclic subgroup, not on the group
    star = h1_star(mod)
    rep = star.representatives[0]
    for sub in cyclic_subgroups(mod.group):
        if sub.order == 1:
            continue
        sub_mod = restrict_module(mod, sub.elements)
        res = restrict_class(rep, sub.elements)
        assert brute_force_is_coboundary(sub_mod, res.values)
        assert h1(sub_mod).is_coboundary(res)
    assert not h1(mod).is_coboundary(rep)

    with pytest.raises(InputError):
        restrict_class(rep, (0, 1, 2))   # not a subgroup


def test_h1_star_examples():
    # cyclic G: the group itself is a cyclic subgroup
    mod = homothety_module(cyclic_group(2), FinAb((4,)), (1, -1))
    assert h1_star(mod).order == 1

    # Klein group acting trivially on Z/2
    triv = trivial_action_module(klein_four_group(), FinAb((2,)))
    assert h1(triv).order == 4
    assert h1_star(triv).order == 1

    # the mu8 model
    mod8, _ = mu8_klein_model()
    star = h1_star(mod8)
    assert star.order == 2
    assert star.structure.invariant_factors == (2,)


def test_dual_module_examples():
    # self-dual Z/2
    g = cyclic_group(2)
    mod = trivial_action_module(g, FinAb((2,)))
    chi = trivial_character(g, 2)
    dual = dual_module(mod, chi)
    assert dual.space.invariant_factors == (2,)
    assert dual.action == mod.action

    # mu8 dual is Z/8 with trivial action
    mod8, chi8 = mu8_klein_model()
    dual8 = dual_module(mod8, chi8)
    assert set(dual8.action) == {((1,),)}

    # exponent mismatch rejected
    with pytest.raises(InputError):
        dual_module(mod8, trivial_character(mod8.group, 4))


def test_double_dual_random():
    rng = random.Random(5)
    from families import all_actions, lemma_consistency_family
    for grp in (cyclic_group(2), cyclic_group(4), klein_four_group()):
        for shape in ((4,), (2, 4), (8,), (2, 2)):
            space = FinAb(shape)
            acts = list(all_actions(grp, space, dedup_first=False))
            rng.shuffle(acts)
            for act in acts[:2]:
                mod = GModule(grp, space, act)
                chi = trivial_character(grp, space.exponent)
                ev = double_dual_isomorphism(mod, chi)   # elementwise for |M| <= 512
                for m in mod.space.elements():
                    assert ev(m) == m


def test_dual_pairing_is_perfect():
    mod8, chi8 = mu8_klein_model()
    vals = set()
    for b in range(8):
        for a in range(8):
            vals.add(((b,), (a,), dual_pairing_value(mod8, chi8, (b,), (a,))))
    # nondegenerate: only b = 0 pairs to zero with everything
    for b in range(1, 8):
        assert any(dual_pairing_value(mod8, chi8, (b,), (a,)) for a in range(8))


def test_homothety_examples():
    mod0 = trivial_action_module(cyclic_group(3), FinAb(()))
    assert homothety_criterion(mod0) is not None

    g4 = cyclic_group(4)
    mod = homothety_module(g4, FinAb((5, 5)), (1, 2, 4, 8))
    found = homothety_criterion(mod)
    assert found is not None and found[1] == 2
    assert h1(mod).order == 1

    mod8, _ = mu8_klein_model()
    assert homothety_criterion(mod8) is None


def test_homothety_noncentral_is_skipped():
    # S3 acting on Z/3: the sign-like action; only central homotheties count
    s3 = symmetric_group_3()
    from families import all_actions, lemma_consistency_family
    for act in all_actions(s3, FinAb((3,)), dedup_first=False):
        mod = GModule(s3, FinAb((3,)), act)
        found = homothety_criterion(mod)
        if found is not None:
            g, m = found
            assert all(s3.mul(g, h) == s3.mul(h, g) for h in range(6))


def test_h1_star_vanishes_with_homothety():
    rng = random.Random(123)
    from families import random_homothety_module
    for _ in range(20):
        mod = random_homothety_module(rng)
        assert homothety_criterion(mod) is not None
        assert h1_star(mod).order == 1


def test_gmodule_validation():
    g = cyclic_group(2)
    with pytest.raises(InputError):
        GModule(g, FinAb((4,)), (((1,),), ((2,),)))   # 2 is not invertible
    with pytest.raises(InputError):
        # multiplication by 2 has order 4 on Z/5, not order 3
        GModule(cyclic_group(3), FinAb((5,)), (((1,),), ((2,),), ((4,),)))
    chi = CyclotomicData(5, (1, 2, 4))
    with pytest.raises(InputError):
        chi.validate(cyclic_group(3))                 # 2^3 = 8 != 1 mod 5


def test_gmodule_rejects_exactly_the_invalid_actions():
    # GModule no longer tests bijectivity: identity and homomorphism imply it,
    # since action[g] * action[g^-1] == action[0] is the identity.  Over
    # random matrices, valid actions, valid actions with one matrix replaced
    # (by a random or a singular one) and the cases of
    # test_gmodule_validation, GModule refuses exactly the inputs that fail
    # the predicate with the bijectivity test kept
    rng = random.Random(10)
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
              klein_four_group(), symmetric_group_3()]
    spaces = [FinAb((2,)), FinAb((3,)), FinAb((4,)), FinAb((5,)), FinAb((2, 2))]
    cases = [(cyclic_group(2), FinAb((4,)), (((1,),), ((2,),))),
             (cyclic_group(3), FinAb((5,)), (((1,),), ((2,),), ((4,),)))]
    for group, space in itertools.product(groups, spaces):
        r, d = space.rank, space.invariant_factors
        ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))

        def random_matrix():
            return tuple(tuple(rng.randrange(d[i]) for _ in range(r)) for i in range(r))
        # 0, 2 and a coordinate projection, where they are not bijective
        scalars = [tuple(tuple(c * (i == j) for j in range(r)) for i in range(r))
                   for c in (0, 2)]
        projection = tuple(tuple(int(i == j == 0) for j in range(r)) for i in range(r))
        singular = [mat for mat in scalars + [projection]
                    if not matrix_is_automorphism(mat, space)]
        for _ in range(10):
            cases.append((group, space, tuple(random_matrix() for _ in range(group.order))))
            cases.append((group, space,
                          (ident,) + tuple(random_matrix() for _ in range(group.order - 1))))
        for act in itertools.islice(all_actions(group, space, dedup_first=False), 8):
            cases.append((group, space, act))
            g = rng.randrange(1, group.order)
            for mat in [random_matrix()] + singular:
                cases.append((group, space, act[:g] + (mat,) + act[g + 1:]))
        for mat in singular:
            cases.append((group, space, (ident,) + (mat,) * (group.order - 1)))
    outcomes = {True: 0, False: 0}
    singular_rejected = 0
    for group, space, act in cases:
        valid = is_action(group, space, act)
        outcomes[valid] += 1
        if valid:
            GModule(group, space, act)
            continue
        with pytest.raises(InputError):
            GModule(group, space, act)
        singular_rejected += not all(matrix_is_automorphism(m, space) for m in act)
    assert outcomes[True] >= 120 and outcomes[False] >= 600
    assert singular_rejected >= 500      # a matrix that is not bijective


_SMALL_GROUPS = (cyclic_group(2), cyclic_group(3), cyclic_group(4),
                 klein_four_group(), symmetric_group_3())


def test_cocycle_accepts_exactly_the_cocycles():
    # CocycleClass checks f(gs) = f(g) + g.f(s) for generators s only; over
    # every value assignment on C2, C3, C4, V4 and S3 acting in every way
    # (up to conjugacy) on Z/2, Z/3 and (Z/2)^2, it accepts exactly the
    # assignments that pass the identity on all pairs
    outcomes = {True: 0, False: 0}
    for group in _SMALL_GROUPS:
        for space in (FinAb((2,)), FinAb((3,)), FinAb((2, 2))):
            elems = list(space.elements())
            for act in all_actions(group, space):
                module = GModule(group, space, act)
                for values in itertools.product(elems, repeat=group.order):
                    valid = is_cocycle(module, values)
                    outcomes[valid] += 1
                    if valid:
                        CocycleClass(module, values)
                        continue
                    with pytest.raises(InputError):
                        CocycleClass(module, values)
    assert outcomes[True] >= 100 and outcomes[False] >= 10000


def test_character_validation_accepts_exactly_the_characters():
    # CyclotomicData.validate checks chi(gs) = chi(g) chi(s) for generators
    # s only; over every value assignment mod n on C2, C3, C4, V4 and S3,
    # for n in 2, 3, 4, 5, 8 with at most 5^6 assignments, it accepts
    # exactly the assignments that pass the product rule on all pairs
    outcomes = {True: 0, False: 0}
    for group in _SMALL_GROUPS:
        for n in (2, 3, 4, 5, 8):
            if n ** group.order > 5 ** 6:
                continue
            for values in itertools.product(range(n), repeat=group.order):
                chi = CyclotomicData(n, values)
                valid = is_character(group, n, values)
                outcomes[valid] += 1
                if valid:
                    chi.validate(group)
                    continue
                with pytest.raises(InputError):
                    chi.validate(group)
    assert outcomes[True] >= 50 and outcomes[False] >= 20000


def test_restriction_equals_the_checked_construction():
    # the reference restriction (restrict_module, subgroup_table) builds its
    # results through the checking constructors; for every subset of every group of order <= 6,
    # on every module of order <= 8, a subgroup gives the module with the
    # reindexed table and the restricted matrices, and any other subset is
    # refused
    subgroups = 0
    for _, module in lemma_consistency_family(6, 8):
        grp = module.group
        for keep in itertools.product((False, True), repeat=grp.order - 1):
            elems = (0,) + tuple(g for g, k in zip(range(1, grp.order), keep) if k)
            if not grp.is_subgroup(elems):
                with pytest.raises(InputError):
                    restrict_module(module, elems)
                continue
            local = {e: i for i, e in enumerate(elems)}
            table = GroupTable(len(elems), tuple(tuple(local[grp.mul(a, b)] for b in elems)
                                                 for a in elems))
            assert restrict_module(module, elems) == GModule(table, module.space,
                                                     tuple(module.action[e] for e in elems))
            subgroups += 1
    assert subgroups >= 1000


def _edge_modules(rng):
    """The k = 2 modules at the edges of the old check: V4 and S3 acting on
    Z/128, Z/96 and (Z/2)^6, trivially and by seeded involutions."""
    v4, s3 = klein_four_group(), symmetric_group_3()
    out = [trivial_action_module(v4, FinAb((128,))),
           trivial_action_module(s3, FinAb((96,))),
           trivial_action_module(v4, FinAb((2,) * 6))]
    for _ in range(2):
        # V4 = Z2 x Z2 with element index 2a + b; S3 through its sign
        u, v = rng.choice((1, 63, 65, 127)), rng.choice((1, 63, 65, 127))
        out.append(homothety_module(v4, FinAb((128,)), (1, v, u, u * v)))
        w = rng.choice((17, 47, 49, 95))
        out.append(homothety_module(s3, FinAb((96,)), (1, 1, 1, w, w, w)))
        swap = list(range(6))        # one to three disjoint transpositions
        moved = rng.sample(range(6), 2 * rng.randrange(1, 4))
        for a, b in zip(moved[::2], moved[1::2]):
            swap[a], swap[b] = b, a
        perm = tuple(tuple(int(swap[i] == j) for j in range(6)) for i in range(6))
        ident = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
        out.append(GModule(v4, FinAb((2,) * 6), (ident, perm, perm, ident)))
    return out


def test_linear_check_matches_the_assignment_walk():
    # brute_force_h1 sums tables of basis images and joins the last slot
    # by a hash map; walking every assignment of generator values gives the
    # same order and torsion counts on every module of order <= 8 over
    # every group of order <= 6, and on the k = 2 edge modules
    rng = random.Random(13)
    checked = 0
    modules = [mod for _, mod in lemma_consistency_family(6, 8)] + _edge_modules(rng)
    for mod in modules:
        assert brute_force_h1(mod) == brute_force_h1_by_assignments(mod)[0]
        checked += 1
    assert checked == 265 + 9


def test_canonical_representatives_match_the_enumeration():
    # the least flat(c) + b over the coboundary table is the least cocycle
    # that adding each coboundary object finds; every H1 and H1_*
    # representative is that least cocycle, also from a shifted start
    from search_oracles import canonical_representative_by_enumeration
    rng = random.Random(4)
    modules = [mod for _, mod in lemma_consistency_family(6, 8)] + _edge_modules(rng)
    reps = 0
    for mod in modules:
        for rep in h1(mod).representatives + h1_star(mod).representatives:
            shifted = rep.add(coboundary(mod, rng.choice(list(mod.space.elements()))))
            assert canonical_representative_by_enumeration(rep) == rep
            assert canonical_representative_by_enumeration(shifted) == rep
            assert cohomology._canonical_representatives(mod, [shifted]) == (rep,)
            reps += 1
    assert reps >= 300


@pytest.mark.parametrize("group", [cyclic_group(2), klein_four_group()], ids=["k1", "k2"])
def test_h1_check_catches_a_wrong_invariant_factor(monkeypatch, group):
    # a Smith-form quotient that reports one invariant factor too big gives
    # a structure of the wrong order, and the built-in check refuses it
    real = cohomology.lattice_quotient

    def wrong(*args):
        quo = real(*args)
        factors = quo.invariant_factors[:-1] + (2 * quo.invariant_factors[-1],)
        return LatticeQuotient(quo.x_p, quo.x_d, quo.w_p, quo.factors_all, factors,
                               quo.basis, quo.representatives)
    monkeypatch.setattr(cohomology, "_H1_CACHE", {})
    monkeypatch.setattr(cohomology, "lattice_quotient", wrong)
    mod = trivial_action_module(group, FinAb((2,)))
    assert len(group.generating_set()) == {2: 1, 4: 2}[group.order]
    with pytest.raises(SelfCheckError, match="brute force"):
        h1(mod)


_CHAIN_VALUES = (2, 3, 4, 6, 8, 9, 12, 16)


def _random_chain(rng, rank):
    """A divisibility chain of the given length drawn from _CHAIN_VALUES."""
    out = [rng.choice(_CHAIN_VALUES)]
    while len(out) < rank:
        out.append(rng.choice([v for v in _CHAIN_VALUES if v % out[-1] == 0]))
    return tuple(out)


def test_restriction_kernel_matches_enumeration_on_random_maps(monkeypatch):
    # a well-defined map + Z/s_j -> + Z/t_i has entries row_ij that are
    # multiples of t_i / gcd(t_i, s_j); its kernel, found by enumerating
    # + Z/s_j, has the order of restriction_kernel's and holds its
    # generators, so the two are equal, and on at most 64 elements the
    # membership test agrees member by member.  One entry changed to a
    # non-multiple leaves the map ill defined, and it is refused
    rng = random.Random(19)
    base = h1(trivial_action_module(cyclic_group(2), FinAb((2,))))
    kernels = {"zero": 0, "nonzero": 0, "refused": 0}
    for _ in range(3000):
        factors = _random_chain(rng, rng.randint(1, 3))
        moduli = [t for _ in range(rng.randint(1, 3))
                  for t in _random_chain(rng, rng.randint(1, 2))]
        rows = [[rng.randrange(t) * (t // gcd(t, s)) % t for s in factors] for t in moduli]
        h = H1Group(base.module, FinAb(factors), base.representatives, base.generators,
                    base.quotient)
        monkeypatch.setattr(H1Group, "restriction", lambda self, elems: (rows, moduli))
        got = restriction_kernel(h, [()])
        images = linear_table(h.structure, zip(*rows), moduli)
        zero = (0,) * len(moduli)
        want = {x for x, y in zip(h.structure.elements(), images) if y == zero}
        assert got.order == len(want), (rows, moduli, factors)
        assert all(g in want for g in got.generators)
        if len(images) <= 64:
            assert all(got.contains(x) == (x in want) for x in h.structure.elements())
        kernels["zero" if got.order == 1 else "nonzero"] += 1
        loose = [(i, j) for i, t in enumerate(moduli) for j, s in enumerate(factors)
                 if t // gcd(t, s) > 1]
        if loose:
            i, j = rng.choice(loose)
            step = moduli[i] // gcd(moduli[i], factors[j])
            rows[i][j] = rng.choice([v for v in range(moduli[i]) if v % step])
            with pytest.raises(SelfCheckError, match="do not define a map"):
                restriction_kernel(h, [()])
            kernels["refused"] += 1
    assert (kernels["zero"] >= 500 and kernels["nonzero"] >= 2000
            and kernels["refused"] >= 2000), kernels


def test_ill_defined_restriction_rows_are_refused(monkeypatch):
    # Z/2 -> Z/4 by 1 and Z/2 -> Z/3 by 1 are not maps: the image of the
    # 2-torsion generator leaves the 2-torsion of the target
    h = h1(trivial_action_module(cyclic_group(2), FinAb((2,))))
    assert h.structure.invariant_factors == (2,)
    for moduli in ((4,), (3,)):
        monkeypatch.setattr(H1Group, "restriction", lambda self, elems: (((1,),), moduli))
        with pytest.raises(SelfCheckError, match="do not define a map"):
            restriction_kernel(h, [(0, 1)])


def _kernel_of_rows(h, rows, moduli):
    return subgroup_from_generators(h.structure, kernel_mod_lattice(
        [list(row) for row in rows], list(moduli), len(h.structure.invariant_factors)))


def test_restriction_rows_match_the_subgroup_h1_reference():
    # the rows read off the coboundary lattice of Z's generators cut out the
    # kernel that H1(Z, M) of the restricted module cuts out, on every
    # cyclic and designated subgroup one by one and on all of them at once,
    # and class by class where H1 is small; nonzero kernels, proper and
    # whole, occur
    from families import mu8_q_model, seeded_models, v4_trivial_z2_model
    from locglob.models import _subgroups_equal
    from locglob.schema import load_document, parse_model
    v4_z8 = parse_model(load_document(os.path.join(
        os.path.dirname(__file__), "data", "v4_z8_two_full_labels.json")))
    cases = [(m.module, list(m.cyclic) + [elems for _, elems in m.designated])
             for m in seeded_models() + [mu8_q_model()[2], v4_trivial_z2_model(), v4_z8]]
    for _, module in itertools.islice(lemma_consistency_family(6, 16), 0, None, 8):
        grp = module.group
        cases.append((module, [z.elements for z in cyclic_subgroups(grp)]
                      + [tuple(range(grp.order))]))
    kernels = {"zero": 0, "proper": 0, "whole": 0}
    for module, subgroups in cases:
        h = h1(module)
        if h.is_trivial():
            continue
        all_rows, all_moduli = [], []
        for elems in sorted(set(subgroups)):
            rows, moduli = restriction_through_subgroup_h1(h, elems)
            all_rows.extend(rows)
            all_moduli.extend(moduli)
            want = _kernel_of_rows(h, rows, moduli)
            assert _subgroups_equal(_kernel_of_rows(h, *h.restriction(elems)), want)
            assert _subgroups_equal(restriction_kernel(h, [elems]), want)
            kernels["zero" if want.order == 1 else
                    "whole" if want.order == h.order else "proper"] += 1
            if h.order <= 64:
                for x in h.structure.elements():
                    assert h.vanishes_on(elems, [x]) == want.contains(x)
        assert _subgroups_equal(restriction_kernel(h, sorted(set(subgroups))),
                                _kernel_of_rows(h, all_rows, all_moduli))
    assert min(kernels.values()) >= 200, kernels


def test_brute_force_h1_star_equals_the_restricted_module_reference():
    # brute_force_h1_star tests each cyclic restriction on the ambient
    # module (the elements of Z as the element set of the search); the
    # reference tests it on the module over Z.  Nontrivial H1_* occur
    from families import seeded_models
    modules = list(dict.fromkeys(model.module for model in seeded_models()))
    orders = set()
    for module in modules:
        got = brute_force_h1_star(module)
        assert got == h1_star_by_restricted_modules(module)
        assert got[0] == h1_star(module).order
        orders.add(got[0])
    assert len(modules) >= 10 and max(orders) > 1 and 1 in orders


def test_restriction_refuses_a_set_that_is_not_a_subgroup():
    # with the reference subgroup_table's message, for a set without 0 too,
    # even though the greedy generators of {1} close up inside {0, 1}
    module, _ = mu8_klein_model()
    h = h1(module)
    assert h.structure.invariant_factors == (2,)
    grp = module.group
    for elems in ((0, 1, 2), (1,), (2, 3), ()):
        assert grp.subgroup_generators(elems) is None and not grp.is_subgroup(elems)
        with pytest.raises(InputError) as want:
            subgroup_table(grp, elems)
        for call in (lambda: h.restriction(elems), lambda: h.vanishes_on(elems, [(1,)])):
            with pytest.raises(InputError) as got:
                call()
            assert str(got.value) == str(want.value)
    # with no class to test, nothing is restricted
    assert h.vanishes_on((0, 1, 2), []) and (0, 1, 2) not in h._restrictions


def test_equal_modules_parsed_twice_share_one_h1():
    # the same document parsed twice gives equal, separate module objects,
    # which find one H1Group (and so one H1_*) through _H1_CACHE
    from locglob.schema import load_document, parse_module
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "sample_inputs", "mu8.json")
    doc = load_document(path)
    a, b = parse_module(doc), parse_module(doc)
    assert a == b and a is not b
    assert h1(a) is h1(b)
    assert h1_star(a) is h1_star(b)
