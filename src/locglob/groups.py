"""Finite groups as explicit multiplication tables.

Index 0 is always the identity.  Every table is validated at construction;
associativity is checked on a generating set S (Light's test), at
|S| * m^2 table reads instead of m^3.  A subgroup is an element set of its
group (is_subgroup, subgroup_generators), never a table of its own.
"""

from __future__ import annotations

from operator import contains, itemgetter

from .errors import InputError
from .value import Value


class GroupTable(Value):
    """Construction checks shape, the identity 0, right inverses (read by inv)
    and associativity; gh = e = hk gives g = g(hk) = (gh)k = k: two-sided.
    Associativity is Light's test, (xa)y = x(ay) for a in the generating set
    and all x, y: the a that pass contain 0 and are closed under products,
    as (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), and each element
    is a product (...(0 s1) ...) sk, since the greedy set takes every element
    that the generators before it do not reach from 0.  _places keeps what
    generic_places walks."""

    __slots__ = ("order", "table", "_gens", "_places")
    _compare = ("order", "table")

    def __init__(self, order: int, table: tuple):
        m = order
        t = table          # t[g][h] = index of g*h
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_places", None)
        if m < 1:
            raise InputError("group order must be >= 1")
        if len(t) != m or any(len(row) != m for row in t):
            raise InputError("multiplication table has wrong shape")
        entries = set().union(*t)
        if min(entries) < 0 or max(entries) >= m:
            raise InputError("table entry out of range")
        rows = tuple(map(tuple, t))     # each check reads whole rows or columns
        if rows[0] != tuple(range(m)) or tuple(map(itemgetter(0), rows)) != rows[0]:
            raise InputError("index 0 is not a two-sided identity")
        inverses = list(map(contains, rows, (0,) * m))
        if not all(inverses):
            raise InputError("element %d has no right inverse" % inverses.index(False))
        object.__setattr__(self, "_gens", self.subgroup_generators(range(m)))
        for a in self._gens:
            if list(map(rows.__getitem__, map(itemgetter(a), rows))) != list(
                    map(itemgetter(*rows[a]), rows)):
                raise InputError("table is not associative")

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        return self.table[g].index(0)

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul(x, g)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return all(self.table[g][h] == self.table[h][g]
                   for g in range(self.order) for h in range(self.order))

    def generated_subgroup(self, gens) -> tuple:
        """The elements reached from 0 by right multiplication by gens; in a
        finite group each s^-1 is a power of s, so this is the subgroup."""
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.mul(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return tuple(sorted(seen))

    def generating_set(self) -> tuple:
        """Greedy generating set, deterministic, identity excluded."""
        return self._gens

    def is_subgroup(self, elements) -> bool:
        """Whether the set is a subgroup: the closure of 0 under right
        multiplication by its greedy generators is the subgroup they
        generate, so the set is one exactly when it holds 0 and that closure
        never leaves it; the greedy choice makes it reach every element."""
        return self.subgroup_generators(elements) is not None

    def subgroup_generators(self, elements) -> tuple | None:
        """The greedy generators of the subgroup with the given element set:
        in ascending order, each element that the ones before it do not
        reach from 0 by right multiplication.  None if the set lacks 0 or
        as soon as that closure leaves the set."""
        es = set(elements)
        if 0 not in es:
            return None
        gens, have = [], {0}
        for g in sorted(es):
            if g in have:
                continue
            gens.append(g)
            frontier = list(have)
            while frontier:
                row = self.table[frontier.pop()]
                for s in gens:
                    nxt = row[s]
                    if nxt not in have:
                        if nxt not in es:
                            return None
                        have.add(nxt)
                        frontier.append(nxt)
        return tuple(gens)


class SubgroupSpec(Value):
    """A cyclic subgroup given by its sorted element set and the least
    element that generates it."""

    __slots__ = _compare = ("elements", "generator")

    @property
    def order(self):
        return len(self.elements)


def cyclic_subgroups(group: GroupTable) -> list[SubgroupSpec]:
    """Every distinct cyclic subgroup exactly once, trivial one included.

    Deduplicates by element-set equality; the chosen generator is the least
    element generating the subgroup, whose elements are its powers g, g^2,
    ... up to the first that is 0.
    """
    seen = {}
    table = group.table
    for g in range(group.order):
        powers = [0]
        x = g
        while x:
            powers.append(x)
            x = table[x][g]
        seen.setdefault(tuple(sorted(powers)), g)
    # by element set, then stably by order
    return [SubgroupSpec(elems, seen[elems]) for elems in sorted(sorted(seen), key=len)]


def generic_places(group: GroupTable) -> tuple:
    """The element tuples of the nontrivial cyclic subgroups, in the order
    of cyclic_subgroups: the generic places of every place model over the
    group, and the subgroups whose restriction kernel is H1_*; walked once
    per group and kept on it."""
    if group._places is None:
        object.__setattr__(group, "_places", tuple(
            z.elements for z in cyclic_subgroups(group) if z.order > 1))
    return group._places


# ---------------------------------------------------------------------------
# constructors


def trivial_group() -> GroupTable:
    return GroupTable(1, ((0,),))

def cyclic_group(n: int) -> GroupTable:
    return GroupTable(n, tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))

def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    m = g.order * h.order
    def idx(a, b):
        return a * h.order + b
    table = [[0] * m for _ in range(m)]
    for a1 in range(g.order):
        for b1 in range(h.order):
            for a2 in range(g.order):
                for b2 in range(h.order):
                    table[idx(a1, b1)][idx(a2, b2)] = idx(g.mul(a1, a2), h.mul(b1, b2))
    return GroupTable(m, tuple(tuple(row) for row in table))

def klein_four_group() -> GroupTable:
    return direct_product(cyclic_group(2), cyclic_group(2))

def symmetric_group_3() -> GroupTable:
    """S3 on {0,1,2}; permutations ordered with the identity first."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    idx = {p: i for i, p in enumerate(perms)}
    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))
    table = tuple(tuple(idx[compose(p, q)] for q in perms) for p in perms)
    return GroupTable(6, table)

def unit_group_mod(n: int, elements) -> tuple[GroupTable, tuple]:
    """Multiplicative table of a set of units mod n closed under product.

    Returns the table and the unit labels in table order (1 first).
    """
    elems = sorted(set(x % n for x in elements))
    if 1 not in elems:
        raise InputError("unit set must contain 1")
    elems = [1] + [e for e in elems if e != 1]
    pos = {e: i for i, e in enumerate(elems)}
    table = []
    for a in elems:
        row = []
        for b in elems:
            c = (a * b) % n
            if c not in pos:
                raise InputError("unit set is not closed under multiplication")
            row.append(pos[c])
        table.append(tuple(row))
    return GroupTable(len(elems), tuple(table)), tuple(elems)
