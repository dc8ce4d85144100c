import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locglob.abelian import (FinAb, Pairing, Subgroup, annihilator, linear_table,
                             matrix_is_compatible, orthogonal_complement_chain,
                             standard_pairing,
                             subgroup_from_generators, subgroup_intersection,
                             trivial_subgroup)
from locglob.errors import InputError
from locglob.linalg import lattice_quotient

from search_oracles import matrix_is_automorphism

shapes = st.sampled_from([(2,), (3,), (4,), (2, 2), (2, 4), (8,), (2, 2, 2),
                          (3, 3), (2, 6), (4, 4), (12,), (2, 8)])


def test_finab_validation():
    with pytest.raises(InputError):
        FinAb((3, 2))        # not a divisibility chain
    with pytest.raises(InputError):
        FinAb((1, 2))        # factors must be >= 2
    assert FinAb(()).order == 1
    assert FinAb((2, 6)).order == 12
    assert FinAb((2, 6)).exponent == 6
    assert (str(FinAb(())), str(FinAb((2, 6)))) == ("0", "Z/2 x Z/6")


@given(shapes, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_group_laws(shape, seed_a, seed_b):
    space = FinAb(shape)
    elems = list(space.elements())
    a = elems[seed_a % len(elems)]
    b = elems[seed_b % len(elems)]
    assert space.add(a, space.neg(a)) == space.zero()
    assert space.add(a, b) == space.add(b, a)
    assert space.sub(a, b) == space.add(a, space.neg(b))
    assert space.scale(space.exponent, a) == space.zero()


def test_element_order():
    space = FinAb((2, 4))
    assert space.element_order((0, 0)) == 1
    assert space.element_order((1, 0)) == 2
    assert space.element_order((0, 1)) == 4
    assert space.element_order((1, 2)) == 2


def test_subgroup_structure():
    space = FinAb((4, 4))
    sub = subgroup_from_generators(space, [(2, 0), (0, 2)])
    assert sub.structure.invariant_factors == (2, 2)
    assert sub.contains((2, 2))
    assert not sub.contains((1, 0))
    assert len(sub.elements()) == 4
    gen = sub.structure_generator(0)
    assert sub.contains(gen)


@given(st.sampled_from([(), (2,), (6,), (2, 2), (2, 4), (3, 6), (2, 2, 2), (4, 8)]),
       st.data())
@settings(max_examples=80, deadline=None)
def test_subgroup_contains_matches_elements(shape, data):
    space = FinAb(shape)
    element = st.tuples(*(st.integers(-2 * d, 2 * d) for d in shape))
    sub = subgroup_from_generators(space, data.draw(st.lists(element, max_size=3)))
    members = set(sub.elements())
    assert len(members) == sub.order
    for e in space.elements():
        assert sub.contains(e) == (e in members)
    # unreduced lifts of ambient elements are read mod the invariant factors
    vec = data.draw(element)
    assert sub.contains(vec) == (space.reduce(vec) in members)


def test_subgroup_intersection():
    a3 = FinAb((4, 4))
    a = subgroup_from_generators(a3, [(1, 0)])
    b = subgroup_from_generators(a3, [(2, 0), (0, 1)])
    inter = subgroup_intersection(a, b)
    assert inter.elements() == [(0, 0), (2, 0)]
    both = set(a.elements()) & set(b.elements())
    assert set(inter.elements()) == both
    import random
    rng = random.Random(17)
    space = FinAb((2, 4, 8))
    elems = list(space.elements())
    for _ in range(20):
        x = subgroup_from_generators(space, [rng.choice(elems) for _ in range(2)])
        y = subgroup_from_generators(space, [rng.choice(elems) for _ in range(2)])
        inter = subgroup_intersection(x, y)
        assert set(inter.elements()) == set(x.elements()) & set(y.elements())


def _chains_up_to(bound, rank):
    """Every divisibility chain of the given length with entries 2..bound."""
    if rank == 0:
        return [()]
    return [c + (d,) for c in _chains_up_to(bound, rank - 1)
            for d in range(2, bound + 1) if not c or d % c[-1] == 0]


def test_trivial_subgroup_matches_its_smith_form():
    # the zero subgroup written down directly behaves as the one that
    # lattice_quotient builds from the relations diag(d): the same order,
    # structure, elements and membership, and the same intersections with
    # random subgroups, taken either side; generators that all reduce to
    # zero give it
    rng = random.Random(19)
    shapes = [c for rank in range(4) for c in _chains_up_to(8, rank)]
    assert len(shapes) == 1 + 7 + 12 + 18
    for shape in shapes:
        space = FinAb(shape)
        n = space.rank
        direct = trivial_subgroup(space)
        if n:
            rel = [[d if i == j else 0 for i in range(n)] for j, d in enumerate(shape)]
            quo = lattice_quotient(rel, rel, n)
            by_snf = Subgroup(space, (), FinAb(quo.invariant_factors), quo)
        else:
            by_snf = Subgroup(space, (), FinAb(()), None)
        assert direct.order == by_snf.order == 1
        assert direct.structure == by_snf.structure == FinAb(())
        assert direct.elements() == by_snf.elements() == [space.zero()]
        elems = list(space.elements())
        for x in elems:
            assert direct.contains(x) == by_snf.contains(x) == (not any(x))
        lifted = [tuple(d * rng.randrange(-2, 3) for d in shape) for _ in range(2)]
        assert subgroup_from_generators(space, [space.zero()] + lifted) == direct
        for _ in range(6):
            other = subgroup_from_generators(space, [rng.choice(elems)
                                                     for _ in range(rng.randint(1, 2))])
            for a, b in ((direct, other), (other, direct)):
                a_snf = by_snf if a is direct else a
                b_snf = by_snf if b is direct else b
                got, want = subgroup_intersection(a, b), subgroup_intersection(a_snf, b_snf)
                assert got.order == want.order == 1
                assert got.structure == want.structure
                assert got.elements() == want.elements()


def test_standard_pairing_perfect():
    for shape in [(2,), (4,), (2, 4), (3, 9), (2, 2, 2)]:
        assert standard_pairing(FinAb(shape)).is_perfect()


def test_degenerate_pairing_rejected():
    space = FinAb((2, 2))
    degenerate = Pairing(space, ((1, 0), (0, 0)))
    assert not degenerate.is_perfect()
    with pytest.raises(InputError):
        orthogonal_complement_chain(space, [], [(1, 0)], degenerate)


def test_annihilator_counts():
    space = FinAb((4,))
    pairing = standard_pairing(space)
    ann = annihilator(pairing, [(2,)])
    # characters killing 2Z/4 are the even ones
    assert ann.order == 2
    full = annihilator(pairing, [])
    assert full.order == 4


def test_chain_example_z4():
    a3 = FinAb((4,))
    out = orthogonal_complement_chain(a3, [], [(2,)])
    assert out.quotient_order == 2
    assert out.a1_perp.order == 4
    assert out.a2_perp.order == 2


def test_chain_rejects_non_chain():
    a3 = FinAb((4, 4))
    with pytest.raises(InputError):
        # A1 not contained in A2
        orthogonal_complement_chain(a3, [(1, 0)], [(0, 1)])


def test_chain_a1_equals_a2():
    a3 = FinAb((2, 4))
    out = orthogonal_complement_chain(a3, [(1, 0)], [(1, 0)])
    assert out.quotient_order == 1
    assert out.a1_perp.order == out.a2_perp.order


def _random_chain(rng, a3):
    elems = list(a3.elements())
    g2 = [rng.choice(elems) for _ in range(rng.randrange(1, 3))]
    a2 = subgroup_from_generators(a3, g2)
    a2_elems = a2.elements()
    g1 = [rng.choice(a2_elems) for _ in range(rng.randrange(1, 3))]
    return g1, g2


@pytest.mark.parametrize("shape", [(4,), (2, 4), (8,), (2, 2, 2), (16,), (4, 4),
                                   (2, 8), (3, 3), (2, 2, 4), (256,)])
def test_chain_duality_random(shape):
    rng = random.Random(sum(shape))
    a3 = FinAb(shape)
    for _ in range(5):
        g1, g2 = _random_chain(rng, a3)
        out = orthogonal_complement_chain(a3, g1, g2)
        a1 = subgroup_from_generators(a3, g1)
        a2 = subgroup_from_generators(a3, g2)
        assert out.quotient_order == a2.order // a1.order
        assert out.a1_perp.order // out.a2_perp.order == out.quotient_order


def test_matrix_automorphism():
    space = FinAb((2, 4))
    ident = ((1, 0), (0, 1))
    assert matrix_is_automorphism(ident, space)
    assert not matrix_is_automorphism(((0, 0), (0, 1)), space)
    # the compatibility constraint: entry (2,1) must be even in (2,4)
    assert not matrix_is_automorphism(((1, 0), (1, 1)), space)
    assert matrix_is_automorphism(((1, 0), (2, 1)), space)
    # a matrix of the wrong shape is no endomorphism
    assert not matrix_is_compatible(((1, 0),), space)
    assert not matrix_is_compatible(((1,), (0,)), space)


def test_character_value():
    space = FinAb((2, 4))
    value = standard_pairing(space).value
    # character (1, 1): e1 -> n/2 = 2, e2 -> n/4 = 1 mod 4
    assert value((1, 0), (1, 0)) == 2
    assert value((0, 1), (0, 1)) == 1
    assert value((1, 1), (1, 1)) == 3


def test_column_by_column_automorphisms_match_the_per_matrix_loop():
    # Automorphisms enumerates column by column and reads each permutation
    # off the span it grows; one matrix at a time by kernel triviality,
    # every shape of order <= 16 gives the same list in the same order, and
    # each permutation indexes linear_table's images of the elements
    from families import Automorphisms, abelian_shapes_up_to
    from search_oracles import automorphisms_by_kernel
    for space in abelian_shapes_up_to(16):
        auts = Automorphisms(space)
        assert auts.mats == automorphisms_by_kernel(space)
        elems = list(space.elements())
        for mat, perm in zip(auts.mats, auts.perms):
            table = linear_table(space, zip(*mat), space.invariant_factors)
            assert list(map(elems.__getitem__, perm)) == table


# |Aut(A)| for each of the 25 shapes of order <= 16, and the sha256 of
# repr([(group name, invariant factors, action), ...]) over the criterion-6
# family
_AUT_COUNTS = {
    (): 1, (2,): 1, (3,): 2, (2, 2): 6, (4,): 2, (5,): 4, (6,): 2, (7,): 6,
    (2, 2, 2): 168, (2, 4): 8, (8,): 4, (3, 3): 48, (9,): 6, (10,): 4, (11,): 10,
    (2, 6): 12, (12,): 4, (13,): 12, (14,): 6, (15,): 8, (2, 2, 2, 2): 20160,
    (2, 2, 4): 192, (2, 8): 16, (4, 4): 96, (16,): 8,
}
_FAMILY_SHA256 = "6405668264b11232e6287e0cf5ee30dc5d4959e6461e42fc5c498bdf2dcb59bf"


def test_the_test_families_are_pinned():
    # the 1,954 modules of criterion 6, their order and their action
    # matrices, and the automorphism count of every shape they range over
    from families import abelian_shapes_up_to, enumerate_automorphisms, lemma_consistency_family
    counts = {s.invariant_factors: len(enumerate_automorphisms(s)) for s in abelian_shapes_up_to(16)}
    assert counts == _AUT_COUNTS and sum(counts.values()) == 20786
    rows = [(gname, module.space.invariant_factors, module.action)
            for gname, module in lemma_consistency_family(6, 16)]
    assert len(rows) == 1954
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _FAMILY_SHA256
