"""The built-in H1 check: H1 by enumeration of cocycles.

`brute_force_h1` recomputes the order and torsion profile of H1, staying
independent of the linear-algebra path that `h1` checks with it; its
enumerations tabulate additive maps from their values on a basis
(`linear_table`).  Nothing here decides an answer.  Oracles that only the
tests read live in `tests/search_oracles.py`.
"""

from __future__ import annotations

from collections import Counter
from operator import add, mod, sub

from .abelian import linear_table
from .errors import SelfCheckError
from .gmodules import GModule
from .value import Value


class BruteH1(Value):
    """torsion_counts maps k to the number of classes killed by k."""

    __slots__ = _compare = ("order", "torsion_counts")


def brute_force_h1(module: GModule) -> BruteH1:
    """Z1 and B1 on the generating set of G by enumeration of M; returns the
    order and the k-torsion profile of Z1/B1, for k dividing the exponent of
    M.

    A cocycle is determined by its generator values x = (x_1, ..., x_k):
    extended along a breadth-first spanning tree by f(gs) = f(g) + g.f(s),
    they give a cocycle exactly when that identity also holds on the #checks
    pairs (g, s) off the tree.  The walk is additive in x, so each residual
    f(gs) - f(g) - g.f(s) is C_1(x_1) + ... + C_k(x_k), with C_s the walk of
    x_s alone, and each C_s is tabulated over M from its values on the basis
    (`linear_table`).  Z1 is the zero set of the sum: a hash map of -C_k
    joined with the sums over the first k - 1 slots.  B1 on the generators
    is tabulated the same way, and each cocycle's order modulo B1 gives the
    profile.  No linear algebra runs, so the check is independent of the
    Smith normal form.  With #checks = (k - 1) * |G| + 1, the tables and the
    join take #checks * (k * |M| + |M|^(k-1)) tuple operations, and each of
    at most |M|^k cocycles a few more; `cohomology._check_work` prices it.
    """
    grp = module.group
    space = module.space
    m = grp.order
    gens = grp.generating_set()
    k = len(gens)
    r = space.rank
    zero = space.zero()

    # tree edges (g, generator position, gs) in breadth-first order; every
    # other (g, s) pair is a cocycle condition to check
    tree, checks = [], []
    reached = [0]
    seen = {0}
    for g in reached:
        for si, s in enumerate(gens):
            gs = grp.mul(g, s)
            if gs in seen:
                checks.append((g, si, gs))
            else:
                seen.add(gs)
                reached.append(gs)
                tree.append((g, si, gs))
    if len(reached) != m:
        raise SelfCheckError("generating set does not reach the whole group")

    # the residuals, flat, of the walk of e_j in generator slot si, 0 in the
    # others, where g.e_j is column j of the action matrix of g; a residual
    # coordinate that vanishes in every walk constrains nothing and is dropped
    d = space.invariant_factors
    cols = [[tuple(map(mod, col, d)) for col in zip(*mat)] for mat in module.action]
    walks = []
    for si in range(k):
        for j in range(r):
            f = [zero] * m
            for g, sj, gs in tree:
                f[gs] = tuple(map(add, f[g], cols[g][j])) if sj == si else f[g]
            res = []
            for g, sj, gs in checks:
                res.extend(map(mod, map(sub, f[gs], map(add, f[g], cols[g][j]) if sj == si
                                        else f[g]), d))
            walks.append(res)
    live = [i for i, coords in enumerate(zip(*walks)) if any(coords)]
    moduli = tuple(map((d * len(checks)).__getitem__, live))
    slots = [[tuple(map(res.__getitem__, live)) for res in walks[si * r:(si + 1) * r]]
             for si in range(k)]

    elems = list(space.elements())
    gen_moduli = d * k
    basis = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    cobs = set(linear_table(space, [_flat(space.sub(cols[s][j], e) for s in gens)
                                    for j, e in enumerate(basis)], gen_moduli))
    if k:
        last = {}
        negated = [tuple(-x % q for x, q in zip(img, moduli)) for img in slots[-1]]
        for v, c in enumerate(linear_table(space, negated, moduli)):
            last.setdefault(c, []).append(v)
        prefixes = _sums([linear_table(space, imgs, moduli) for imgs in slots[:-1]], moduli)
        found = (x + (v,) for x, c in prefixes for v in last.get(c, ()))
    else:
        found = [()]

    # count the cocycles by their order modulo B1, the least o with o*z a
    # coboundary for z the generator values
    orders = Counter()
    for x in found:
        z = sum(map(elems.__getitem__, x), ())
        o, w = 1, z
        while w not in cobs:
            w = tuple(map(mod, map(add, w, z), gen_moduli))
            o += 1
        orders[o] += 1

    z1, b1 = sum(orders.values()), len(cobs)
    if z1 % b1:
        raise SelfCheckError("coboundaries do not tile the cocycles")
    counts = {}
    expo = space.exponent
    for t in (t for t in range(1, expo + 1) if expo % t == 0):
        cnt = sum(c for o, c in orders.items() if t % o == 0)
        if cnt % b1:
            raise SelfCheckError("torsion count is not a multiple of |B1|")
        counts[t] = cnt // b1

    return BruteH1(z1 // b1, counts)


def _flat(vectors) -> tuple:
    return tuple(x for v in vectors for x in v)


def _sums(tables, moduli):
    """(x, tables[0][x_0] + ... + tables[-1][x_-1]) for every index tuple x,
    depth first, keeping only the running sums."""
    if not tables:
        yield (), (0,) * len(moduli)
        return
    for x, p in _sums(tables[:-1], moduli):
        for i, c in enumerate(tables[-1]):
            yield x + (i,), tuple(map(mod, map(add, p, c), moduli))
