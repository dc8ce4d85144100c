import itertools
import random

import pytest
from search_oracles import group_table_checks, subgroup_table

from locglob.errors import InputError
from locglob.groups import (GroupTable, cyclic_group, cyclic_subgroups,
                            direct_product, generic_places, klein_four_group,
                            symmetric_group_3, trivial_group, unit_group_mod)


def test_table_validation():
    with pytest.raises(InputError):
        GroupTable(2, ((0, 1), (1, 1)))          # 1 has no inverse
    with pytest.raises(InputError):
        GroupTable(2, ((1, 0), (0, 1)))          # 0 is not the identity
    with pytest.raises(InputError):
        GroupTable(2, ((0,), (1, 0)))            # ragged
    # a valid non-group shape: left translations that are not associative
    with pytest.raises(InputError):
        GroupTable(3, ((0, 1, 2), (1, 2, 0), (2, 1, 0)))


def test_constructors():
    assert trivial_group().order == 1
    z6 = cyclic_group(6)
    assert z6.element_order(1) == 6
    assert z6.inv(2) == 4
    v4 = klein_four_group()
    assert all(v4.element_order(g) <= 2 for g in range(4))
    s3 = symmetric_group_3()
    assert not s3.is_abelian()
    assert sorted(s3.element_order(g) for g in range(6)) == [1, 2, 2, 2, 3, 3]
    z2xz3 = direct_product(cyclic_group(2), cyclic_group(3))
    assert z2xz3.order == 6 and z2xz3.is_abelian()


def test_unit_group_mod():
    grp, labels = unit_group_mod(8, (1, 3, 5, 7))
    assert grp.order == 4
    assert labels == (1, 3, 5, 7)
    assert all(grp.element_order(g) <= 2 for g in range(4))
    with pytest.raises(InputError):
        unit_group_mod(8, (1, 3, 5))             # not closed: 3*5 = 7


@pytest.mark.parametrize("group,count", [
    (trivial_group(), 1),
    (cyclic_group(4), 3),
    (klein_four_group(), 4),
    (cyclic_group(6), 4),
    (symmetric_group_3(), 5),
])
def test_cyclic_subgroup_counts(group, count):
    subs = cyclic_subgroups(group)
    assert len(subs) == count
    seen = set()
    for sub in subs:
        assert sub.elements not in seen
        seen.add(sub.elements)
        assert group.is_subgroup(sub.elements)
        assert group.generated_subgroup((sub.generator,)) == sub.elements


def test_generating_set():
    assert cyclic_group(5).generating_set() == (1,)
    v4 = klein_four_group()
    gens = v4.generating_set()
    assert len(gens) == 2
    assert v4.generated_subgroup(gens) == (0, 1, 2, 3)
    assert trivial_group().generating_set() == ()


def _relabelled_groups():
    """Every labelling of every group of order at most 6 with identity 0:
    1 + 1 + 2 + 6 + 6 + 24 + 120 + 120 tables."""
    from families import groups_up_to_order_6
    for _, group in groups_up_to_order_6():
        m = group.order
        for rest in itertools.permutations(range(1, m)):
            perm = (0,) + rest
            t = [[0] * m for _ in range(m)]
            for a in range(m):
                for b in range(m):
                    t[perm[a]][perm[b]] = perm[group.mul(a, b)]
            yield GroupTable(m, tuple(map(tuple, t)))


def _cyclic_400():
    import json
    import os
    from locglob.schema import parse_group
    path = os.path.join(os.path.dirname(__file__), "data", "cyclic_400.json")
    with open(path) as fh:
        return parse_group(json.load(fh))


def test_generating_set_matches_the_recomputed_closure():
    # the greedy generators grown inside one closure equal those of the
    # closure recomputed after each generator, on every labelling of every
    # group of order at most 6 (identity 0) and on the order-400 document
    from search_oracles import greedy_generators_by_closure
    tables = 0
    for relabelled in _relabelled_groups():
        assert relabelled.generating_set() == greedy_generators_by_closure(relabelled)
        tables += 1
    assert tables == 1 + 1 + 2 + 6 + 6 + 24 + 120 + 120
    group = _cyclic_400()
    assert group.generating_set() == greedy_generators_by_closure(group) == (1,)


def test_cyclic_subgroups_match_the_closures():
    # the powers walk lists the same subgroups, with the same least
    # generators and in the same order, as the closure of each element, on
    # every labelling of every group of order at most 6 (identity 0) and on
    # the order-400 document
    from search_oracles import cyclic_subgroups_by_closure
    tables = 0
    for relabelled in _relabelled_groups():
        assert cyclic_subgroups(relabelled) == cyclic_subgroups_by_closure(relabelled)
        tables += 1
    assert tables == 1 + 1 + 2 + 6 + 6 + 24 + 120 + 120
    group = _cyclic_400()
    subs = cyclic_subgroups(group)
    assert subs == cyclic_subgroups_by_closure(group)
    assert len(subs) == 15          # one per divisor of 400


def test_subgroup_table():
    z6 = cyclic_group(6)
    sub = subgroup_table(z6, (0, 2, 4))
    # elements 0, 2, 4 become 0, 1, 2; 2 + 4 = 0 and 4 + 4 = 2 in Z/6
    assert sub == cyclic_group(3)
    assert sub.mul(1, 2) == 0 and sub.mul(2, 2) == 1
    with pytest.raises(InputError):
        subgroup_table(z6, (0, 2, 3))


def _loop(m, rng):
    """A random loop on 0..m-1 with identity 0 (a Latin square whose row 0
    and column 0 are the identity), by backtracking over shuffled values."""
    t = [list(range(m))] + [[g] + [None] * (m - 1) for g in range(1, m)]
    cells = [(g, h) for g in range(1, m) for h in range(1, m)]

    def fill(i):
        if i == len(cells):
            return True
        g, h = cells[i]
        for x in rng.sample(range(m), m):
            if x not in t[g][:h] and all(t[k][h] != x for k in range(g)):
                t[g][h] = x
                if fill(i + 1):
                    return True
        return False
    fill(0)
    return tuple(map(tuple, t))


def test_table_accepts_exactly_the_groups():
    # GroupTable no longer tests two-sided inverses: with a two-sided
    # identity, right inverses and associativity, gh = e = hk gives g = k.
    # Over every 3 x 3 table with identity 0, seeded 4 x 4 and 5 x 5 tables
    # with identity 0 and a 0 in every row, and relabelled groups, it
    # accepts exactly the tables that pass the checks with that test kept
    rng = random.Random(11)
    tables = []
    for rest in itertools.product(range(3), repeat=4):
        tables.append((3, ((0, 1, 2), (1,) + rest[:2], (2,) + rest[2:])))
    for m in (4, 5):
        for _ in range(300):
            rows = [tuple(range(m))]
            for g in range(1, m):
                row = [g] + [rng.randrange(m) for _ in range(m - 1)]
                if 0 not in row:
                    row[rng.randrange(1, m)] = 0
                rows.append(tuple(row))
            tables.append((m, tuple(rows)))
    for group in (cyclic_group(4), klein_four_group(), cyclic_group(5),
                  cyclic_group(6), symmetric_group_3()):
        m = group.order
        for _ in range(5):
            perm = [0] + rng.sample(range(1, m), m - 1)
            t = [[0] * m for _ in range(m)]
            for a in range(m):
                for b in range(m):
                    t[perm[a]][perm[b]] = perm[group.mul(a, b)]
            tables.append((m, tuple(map(tuple, t))))
    # GroupTable checks associativity on a generating set only; these add
    # tables where associativity alone fails: relabelled groups with two
    # entries of one row swapped (identity and right inverses stay), and
    # loops, Latin squares with identity 0
    extra = random.Random(12)
    n_old = len(tables)
    for m, t in tables[-25:]:
        for _ in range(4):
            g = extra.randrange(1, m)
            h, k = extra.sample(range(1, m), 2)
            row = list(t[g])
            row[h], row[k] = row[k], row[h]
            tables.append((m, t[:g] + (tuple(row),) + t[g + 1:]))
    for m in (5, 6):
        for _ in range(150):
            tables.append((m, _loop(m, extra)))
    accepted = one_sided = 0
    for m, t in tables:
        ok, only_right = group_table_checks(m, t)
        accepted += ok
        one_sided += only_right
        if ok:
            GroupTable(m, t)
        else:
            with pytest.raises(InputError):
                GroupTable(m, t)
    assert accepted >= 26 and one_sided >= 500
    assert sum(not group_table_checks(m, t)[0] for m, t in tables[n_old:]) >= 350


def test_subgroup_test_by_closure_matches_all_pairs():
    # is_subgroup closes the greedy generators of the set inside the set;
    # the all-pairs predicate decides every subset of every group of order
    # at most 6 and sets of subgroups, near-subgroups and random subsets
    # of the order-400 cyclic document the same way
    from families import groups_up_to_order_6
    from search_oracles import is_subgroup_all_pairs
    outcomes = {True: 0, False: 0}
    for _, group in groups_up_to_order_6():
        for keep in itertools.product((False, True), repeat=group.order):
            elems = [g for g, k in enumerate(keep) if k]
            expected = is_subgroup_all_pairs(group, elems)
            assert group.is_subgroup(elems) == expected
            outcomes[expected] += 1
    assert outcomes[True] == 1 + 2 + 2 + 3 + 5 + 2 + 4 + 6
    group = _cyclic_400()
    rng = random.Random(400)
    subs = [set(sub.elements) for sub in cyclic_subgroups(group)]
    sets = []
    for sub in subs:
        outside = sorted(set(range(group.order)) - sub)
        sets += [sub, sub - {max(sub)}, sub | set(rng.sample(outside, min(1, len(outside))))]
        sets.append(sub | subs[rng.randrange(len(subs))])
    for size in (2, 5, 20, 80, 200, 399):
        sets.append({0} | set(rng.sample(range(1, group.order), size - 1)))
    for elems in sets:
        outcomes[is_subgroup_all_pairs(group, elems)] += 1
        assert group.is_subgroup(elems) == is_subgroup_all_pairs(group, elems)
    assert outcomes == {True: 54, False: 218}


def test_generic_places_are_the_nontrivial_cyclic_subgroups_in_order():
    # place models and h1_star both read this tuple, so Sha(S) and H1_*
    # cut by the same subgroups in the same order
    from locglob.abelian import FinAb
    from locglob.gmodules import trivial_action_module
    from locglob.models import PlaceModel
    for group in (trivial_group(), cyclic_group(8), klein_four_group(), symmetric_group_3(),
                  direct_product(cyclic_group(2), cyclic_group(4))):
        places = generic_places(group)
        assert places == tuple(z.elements for z in cyclic_subgroups(group) if z.order > 1)
        model = PlaceModel(trivial_action_module(group, FinAb((2,))), {}, ())
        assert model.cyclic == places
