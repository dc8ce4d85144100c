"""Deterministic families of groups, modules, and place models.

Used by the consistency sweeps: the exhaustive small-model family for the
strong-Hasse/cyclic-kernel comparison, random place models, the seeded
models of the Sha(T) tests, and random modules admitting a fixed-point-free
central homothety.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
from math import gcd

from locglob.abelian import FinAb
from locglob.cohomology import h1_star
from locglob.gmodules import GModule, mu8_klein_model
from locglob.groups import (GroupTable, cyclic_group, direct_product,
                            klein_four_group, symmetric_group_3, trivial_group)
from locglob.linalg import identity_matrix, mat_mod, mat_mul, scalar_matrix
from locglob.models import PlaceModel
from locglob.schema import load_document, parse_model


def groups_up_to_order_6():
    """All isomorphism classes of groups of order at most 6."""
    return [
        ("1", trivial_group()),
        ("Z2", cyclic_group(2)),
        ("Z3", cyclic_group(3)),
        ("Z4", cyclic_group(4)),
        ("V4", klein_four_group()),
        ("Z5", cyclic_group(5)),
        ("Z6", cyclic_group(6)),
        ("S3", symmetric_group_3()),
    ]


def abelian_shapes_up_to(max_order: int):
    """All invariant-factor shapes with group order <= max_order, trivial
    shape included: chains d1 | d2 | ... with bounded product."""
    out = [FinAb(())]
    stack = [((), 2)]
    while stack:
        prefix, start = stack.pop()
        prod = _prod(prefix)
        for d in range(start, max_order + 1):
            if prefix and d % prefix[-1]:
                continue
            if prod * d > max_order:
                continue
            shape = prefix + (d,)
            out.append(FinAb(shape))
            stack.append((shape, d))
    out.sort(key=lambda s: (s.order, s.invariant_factors))
    return out


def _prod(xs):
    p = 1
    for x in xs:
        p *= x
    return p


def _mat_pow_mod(a, k, space: FinAb):
    d = space.invariant_factors
    out = mat_mod(identity_matrix(space.rank), d)
    base = a
    while k:
        if k & 1:
            out = mat_mod(mat_mul(out, base), d)
        base = mat_mod(mat_mul(base, base), d)
        k >>= 1
    return out


def enumerate_automorphisms(space: FinAb) -> list[tuple]:
    """All automorphisms of a small FinAb as matrices, in the order of their
    entries."""
    return automorphisms(space).mats


@functools.cache
def automorphisms(space: FinAb) -> "Automorphisms":
    """Aut(space), built once per shape."""
    return Automorphisms(space)


class Automorphisms:
    """Aut(space) of a small FinAb, enumerated column by column: the image
    of e_j is killed by d_j, and it is kept only when the span of the
    columns so far grows by exactly a factor d_j, so the partial map stays
    injective.  The span is the partial map's `linear_table`, with elements
    as their indices in `elements()` order; after the last column it is the
    automorphism's permutation of the element list, in which conjugation
    and powers are tuple compositions.  Each member's order, and the class
    representatives of those of order dividing c, are computed once."""

    def __init__(self, space: FinAb):
        d = space.invariant_factors
        elems = list(space.elements())
        index = {e: k for k, e in enumerate(elems)}
        plus = [[index[space.add(a, b)] for b in elems] for a in elems]
        killed = [[index[v] for v in itertools.product(
                       *(range(0, di, di // gcd(di, dj)) for di in d))] for dj in d]
        found = []

        def extend(cols, table):
            j = len(cols)
            if j == len(d):
                found.append((tuple(zip(*map(elems.__getitem__, cols))), tuple(table)))
                return
            span = set(table)
            for g in killed[j]:
                steps = [0, g]
                while len(steps) < d[j]:
                    steps.append(plus[steps[-1]][g])
                if span.isdisjoint(steps[1:]):
                    extend(cols + [g], [plus[a][b] for a in table for b in steps])

        extend([], [0])
        found.sort()
        self.mats = [mat for mat, _ in found]
        self.perms = [perm for _, perm in found]
        self.matrix = dict(zip(self.perms, self.mats))
        self._orders = None
        self._inverses = None
        self._first_conjugate = {}
        self._class_reps = {}

    def of_order(self, c: int) -> list:
        """The permutations p with p^c = 1, in the order of their matrices."""
        if self._orders is None:
            self._orders = list(map(_perm_order, self.perms))
        return [p for p, k in zip(self.perms, self._orders) if c % k == 0]

    def class_representatives(self, c: int) -> list:
        """The first permutation, in the order of their matrices, of each
        conjugacy class of those with p^c = 1; exact, by sweeping out each
        whole conjugacy class once, whatever c first asks for it."""
        if c not in self._class_reps:
            if self._inverses is None:
                self._inverses = [tuple(sorted(range(len(p)), key=p.__getitem__))
                                  for p in self.perms]
            first = self._first_conjugate
            for p in self.of_order(c):
                if p not in first:
                    first.update((tuple(map(g.__getitem__, map(p.__getitem__, ginv))), p)
                                 for g, ginv in zip(self.perms, self._inverses))
            self._class_reps[c] = [p for p in self.of_order(c) if first[p] == p]
        return self._class_reps[c]


def _perm_order(p) -> int:
    ident = tuple(range(len(p)))
    power, k = p, 1
    while power != ident:
        power = tuple(map(p.__getitem__, power))
        k += 1
    return k


def all_actions(group: GroupTable, space: FinAb, dedup_first: bool = True):
    """Every homomorphism from the group into Aut(space), enumerated by
    generator images.

    With dedup_first, the image of the first generator runs over one
    representative per conjugacy class; this still reaches every
    homomorphism up to Aut(space)-conjugacy, because conjugating the first
    image back to its representative carries the other images along, and
    those range over the full candidate set."""
    gens = group.generating_set()
    if not gens:
        yield (identity_matrix(space.rank),) * group.order
        return
    auts = automorphisms(space)
    per_gen = []
    for idx, g in enumerate(gens):
        c = group.element_order(g)
        per_gen.append(auts.class_representatives(c) if idx == 0 and dedup_first
                       else auts.of_order(c))
    for images in itertools.product(*per_gen):
        act = _extend_action(group, gens, images)
        if act is not None:
            yield tuple(map(auts.matrix.__getitem__, act))


def _extend_action(group: GroupTable, gens, images):
    """Extend generator images, as permutations, along the Cayley graph,
    then verify the result is a homomorphism; None when the images violate
    a relation."""
    act = {0: tuple(range(len(images[0])))}
    queue = [0]
    img = dict(zip(gens, images))
    while queue:
        g = queue.pop(0)
        for s in gens:
            gs = group.mul(g, s)
            if gs not in act:
                act[gs] = tuple(map(act[g].__getitem__, img[s]))
                queue.append(gs)
    table = [act[g] for g in range(group.order)]
    for g in range(group.order):
        for h in range(group.order):
            if tuple(map(table[g].__getitem__, table[h])) != table[group.mul(g, h)]:
                return None
    return table


def lemma_consistency_family(max_group: int = 6, max_module: int = 16):
    """The exhaustive small family: every group of order <= max_group, every
    module shape of order <= max_module, every action up to conjugation of
    the first generator image."""
    for gname, group in groups_up_to_order_6():
        if group.order > max_group:
            continue
        for space in abelian_shapes_up_to(max_module):
            for act in all_actions(group, space):
                yield gname, GModule(group, space, act)


# ---------------------------------------------------------------------------
# random models


def random_place_model(rng: random.Random, require_full_place: bool = True) -> PlaceModel:
    """A random PlaceModel over a small module.

    With require_full_place, one designated place carries the full group,
    the analogue of a totally ramified prime; this forces the Hasse
    principle for the model, which is the regime where vanishing off the
    non-cyclic support set is guaranteed.
    """
    pool = _random_module_pool()
    module = pool[rng.randrange(len(pool))]
    grp = module.group
    designated = {}
    if require_full_place:
        designated["ram"] = tuple(range(grp.order))
    for i in range(rng.randrange(1, 4)):
        g = rng.randrange(grp.order)
        designated["p%d" % i] = grp.generated_subgroup((g,))
    archimedean = set()
    invol = [g for g in range(grp.order) if grp.element_order(g) <= 2]
    if rng.random() < 0.7:
        designated["inf"] = grp.generated_subgroup((rng.choice(invol),))
        archimedean.add("inf")
    return PlaceModel(module, designated, frozenset(archimedean))


def mu8_q_model():
    """(module, character, place model) of mu8 over Q with the places 2 and
    infinity."""
    module, chi = mu8_klein_model()
    return module, chi, PlaceModel(module, {"2": (0, 1, 2, 3), "inf": (0, 3)},
                                   frozenset({"inf"}))


def v4_trivial_z2_model():
    """V4 acting trivially on Z/2: H1 = Hom(V4, Z/2) has order 4, every class
    dies on a cyclic subgroup, so H1_* = 0 while S = {v}, the whole group."""
    path = os.path.join(os.path.dirname(__file__), "data", "v4_trivial_z2.json")
    return parse_model(load_document(path))


def seeded_models():
    """mu8, random place models, and random places on the pool's modules
    with H1_* != 0, where singular T occur."""
    rng = random.Random(12)
    models = [mu8_q_model()[2]] + [random_place_model(rng, require_full_place=i % 2 == 0)
                                   for i in range(24)]
    for module in [m for m in _random_module_pool() if h1_star(m).order > 1]:
        grp = module.group
        for _ in range(4):
            designated = {"p%d" % i: grp.generated_subgroup(
                              rng.sample(range(grp.order), rng.randrange(1, 3)))
                          for i in range(rng.randrange(2, 5))}
            models.append(PlaceModel(module, designated, frozenset()))
    return models


def with_a_new_module(model: PlaceModel) -> PlaceModel:
    """An equal model over an equal but new module object, which keeps no
    H1 yet: with `cohomology._H1_CACHE` empty, its first H1 query computes."""
    m = model.module
    return PlaceModel(GModule(m.group, m.space, m.action), model.designated, model.archimedean)


_MODULE_POOL: list | None = None


def _random_module_pool():
    """A fixed, deterministic pool of small modules with varied actions."""
    global _MODULE_POOL
    if _MODULE_POOL is not None:
        return _MODULE_POOL
    pool = []
    specs = [
        (cyclic_group(2), FinAb((2,))),
        (cyclic_group(2), FinAb((4,))),
        (cyclic_group(2), FinAb((2, 2))),
        (cyclic_group(3), FinAb((3,))),
        (cyclic_group(4), FinAb((8,))),
        (klein_four_group(), FinAb((2,))),
        (klein_four_group(), FinAb((8,))),
        (klein_four_group(), FinAb((2, 4))),
        (symmetric_group_3(), FinAb((3,))),
        (symmetric_group_3(), FinAb((2, 2))),
        (cyclic_group(6), FinAb((9,))),
    ]
    for group, space in specs:
        count = 0
        for act in all_actions(group, space):
            pool.append(GModule(group, space, act))
            count += 1
            if count >= 12:
                break
    _MODULE_POOL = pool
    return pool


def random_homothety_module(rng: random.Random) -> GModule:
    """A random module admitting a fixed-point-free central homothety.

    The first factor of an abelian group acts as multiplication by a unit m
    of order dividing p - 1 with m != 1 mod p (so m - 1 is invertible); the
    optional second factor acts by any automorphism of small order, which
    commutes with the homothety since homotheties are central in Aut."""
    p = rng.choice((3, 5, 7, 13))
    e = rng.choice((1, 1, 2))
    q = p ** e
    shape = FinAb(tuple(rng.choice([(q,), (p, q)])))
    # m = g^(p^(e-1)) has order dividing p - 1 and stays != 1 mod p
    while True:
        g = rng.randrange(2, q)
        if g % p not in (0, 1):
            break
    m = pow(g, p ** (e - 1), q)
    c = 1
    acc = m % q
    while acc != 1:
        acc = acc * m % q
        c += 1
    group = cyclic_group(c)
    r = shape.rank
    homothety = [scalar_matrix(pow(m, k, q), r) for k in range(c)]
    if rng.random() < 0.5 or shape.order > 50:
        return GModule(group, shape, tuple(homothety))
    # add an independent commuting factor of small order
    auts = enumerate_automorphisms(shape)
    b = auts[rng.randrange(len(auts))]
    k = 1
    power = b
    d = shape.invariant_factors
    while mat_mod(power, d) != mat_mod(identity_matrix(r), d):
        power = mat_mod(mat_mul(power, b), d)
        k += 1
        if k > 8:
            return GModule(group, shape, tuple(homothety))
    prod = direct_product(group, cyclic_group(k))
    act = []
    for a in range(c):
        for bb in range(k):
            act.append(mat_mod(mat_mul(scalar_matrix(pow(m, a, q), r),
                                       _mat_pow_mod(b, bb, shape)), d))
    return GModule(prod, shape, tuple(act))
