"""Search oracles that only the tests read.

Each recomputes by enumeration or by a direct test a quantity that the
program decides by a formula or a shortcut: H1 of a cyclic group as
ker(norm)/im(sigma - 1), squares mod p, n-th powers in Q_p by a residue
sweep at the Hensel modulus, 2-power divisibility by the whole halving
tree and, at a good odd prime, by the multiples in the reduced group
E~(F_p) with no p-adics at all, and bijectivity of a matrix on a finite
abelian group by the triviality of its kernel (GModule reads it from the
homomorphism check; the test families build each automorphism column by
column, keeping a column only when the span grows by its order).
The axioms of a group table, an action, a cocycle and a character, and
closure of a subgroup, are tested here on all triples or pairs of
elements; the program checks them on a generating set.  Cyclic subgroups
are closures here, where the program walks the powers of each element.
The built-in H1 check and the canonical representatives are recomputed
here element by element, where the program sums tables of basis images.
The verdicts on a place model are read here from one Sha(T) per queried
T, where the program reads them from one Sha(K) per K = T & S.
Restriction to a subgroup Z is read here through H1(Z, M) of the
restricted module (subgroup_table, restrict_module, restrict_class), where
the program reads it off the coboundary lattice of Z's generators.  A
p-adic n-th root is lifted here one digit at a time, and a square root by
the Newton steps of x^2 - u or digit by digit, where the program takes the
Newton steps of x^n - u for every n.  An n-th root mod p is taken here by
the Adleman-Manders-Miller tower of l-th roots and a Bezout recombination,
with each digit of a discrete log found by a walk, where the program takes
the same root in closed form and each digit by baby-step giant-step.
The Smith normal form is taken here with both transforms whole and every
operation applied to every row and column, where the program builds only
the transforms its caller reads and leaves the entries an operation
cannot change.

The entries of `locglob/data/golden.json` are computed here alone
(`oracle_golden`); run as a script, this module prints the file byte for
byte:

    PYTHONPATH=src python tests/search_oracles.py
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, isclose, sqrt

from locglob.abelian import FinAb, apply_matrix, matrix_is_compatible
from locglob.arith import (factorize, int_valuation, rational_unit_mod,
                           rational_valuation, sqrt_mod_prime)
from locglob.cohomology import CocycleClass, coboundary, h1
from locglob.elliptic import CurvePoint, divisible_by_2k, group_law, halve_point
from locglob.errors import InputError, SelfCheckError
from locglob.gmodules import CyclotomicData, GModule, dual_module
from locglob.groups import GroupTable, SubgroupSpec, cyclic_subgroups
from locglob.linalg import Snf, identity_matrix, kernel_mod_lattice, mat_mod, mat_mul
from locglob.oracles import BruteH1
from locglob.padics import Place
from locglob.reproduce import DZ_CURVE, DZ_POINT_X, DZ_POINT_Y, duplication_x, mu8_model
from locglob.schema import format_rational


def cyclic_h1_profile(module: GModule):
    """ker(norm)/im(sigma - 1) for cyclic G, by enumeration over M.

    Returns (order, torsion counts) in the same shape as brute_force_h1.
    """
    grp = module.group
    space = module.space
    gen = None
    for g in range(grp.order):
        if grp.element_order(g) == grp.order:
            gen = g
            break
    if gen is None:
        raise InputError("group is not cyclic")
    kernel = []
    for e in space.elements():
        acc = space.zero()
        x = e
        for _ in range(grp.order):
            acc = space.add(acc, x)
            x = module.act(gen, x)
        if acc == space.zero():
            kernel.append(e)
    image = {space.sub(module.act(gen, e), e) for e in space.elements()}
    b = len(image)
    order = len(kernel) // b
    counts = {}
    expo = space.exponent
    for k in [k for k in range(1, expo + 1) if expo % k == 0]:
        cnt = sum(1 for e in kernel if space.scale(k, e) in image)
        counts[k] = cnt // b
    return order, counts


def brute_force_h1_by_assignments(module: GModule):
    """The built-in H1 check's answer (order and torsion counts, as
    `oracles.BruteH1`) and every cocycle, as a sorted tuple of value-index
    tuples, by walking each of the |M|^k assignments of values to the
    generating set along a breadth-first spanning tree, with the action
    tabulated element by element."""
    grp = module.group
    space = module.space
    m = grp.order
    gens = grp.generating_set()
    elems = list(space.elements())
    act = [[module.act(g, e) for e in elems] for g in range(m)]
    add = space.add
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
    cobs = {tuple(space.sub(act[s][i], e) for s in gens) for i, e in enumerate(elems)}
    orders = Counter()
    full = []
    for x in itertools.product(range(len(elems)), repeat=len(gens)):
        f = [space.zero()] * m
        for g, si, gs in tree:
            f[gs] = add(f[g], act[g][x[si]])
        if all(f[gs] == add(f[g], act[g][x[si]]) for g, si, gs in checks):
            z = tuple(elems[i] for i in x)
            o, w = 1, z
            while w not in cobs:
                w = tuple(add(a, b) for a, b in zip(w, z))
                o += 1
            orders[o] += 1
            full.append(f)
    b1 = len(cobs)
    expo = space.exponent
    counts = {k: sum(c for o, c in orders.items() if k % o == 0) // b1
              for k in range(1, expo + 1) if expo % k == 0}
    index = {e: i for i, e in enumerate(elems)}
    cocycles = tuple(sorted(tuple(index[v] for v in f) for f in full))
    return BruteH1(sum(orders.values()) // b1, counts), cocycles


def canonical_representative_by_enumeration(c: CocycleClass) -> CocycleClass:
    """The lexicographically least cocycle in the class of c, by adding each
    of the |M| coboundary objects in turn."""
    best = c
    best_flat = c.flat()
    for elem in c.module.space.elements():
        shifted = c.add(coboundary(c.module, elem))
        if shifted.flat() < best_flat:
            best, best_flat = shifted, shifted.flat()
    return best


def is_square_mod_prime_brute(a: int, p: int) -> bool:
    """Residue test by sweeping x^2 over Z/p."""
    a %= p
    return any((x * x - a) % p == 0 for x in range(p))


def is_nth_power_search(a, n: int, p: int) -> bool:
    """Whether a is an n-th power in Q_p, by sweeping x^n over the units mod
    p^(2t+1), t = val_p(n).  At a unit x the derivative of x^n - u has
    valuation exactly t, so a root mod p^(2t+1) lifts to Z_p (Hensel).
    Linear in p^(2t+1)."""
    a = Fraction(a)
    if a == 0:
        raise InputError("zero is excluded from power tests")
    if rational_valuation(a, p) % n:
        return False
    mod = p ** (2 * int_valuation(n, p) + 1)
    u = rational_unit_mod(a, p, mod)
    return any(pow(x, n, mod) == u for x in range(1, mod) if x % p)


def unit_nth_root_by_digits(u: int, n: int, p: int, t: int, work: int) -> int:
    """x with x^n == u mod p^work, t = v_p(n), lifted one p-adic digit per
    step from the least root mod p^(2t+1) that is a unit: with f(x) = 0 mod
    p^j, j >= 2t + 1, the update x += y p^(j-t), y = -(f(x)/p^j) /
    (f'(x)/p^t) mod p, gains one digit.  The program takes Newton steps
    from the same seed, which double the digits instead."""
    seed_mod = p ** (2 * t + 1)
    x = next(x for x in range(1, seed_mod) if x % p and pow(x, n, seed_mod) == u % seed_mod)
    n0 = n // p ** t
    for j in range(2 * t + 1, work):
        fx = (pow(x, n, p ** (j + 1)) - u) % p ** (j + 1)
        if fx:
            y = -(fx // p ** j) * pow(n0 * pow(x, n - 1, p), -1, p) % p
            x = (x + y * p ** (j - t)) % p ** work
    return x


def sqrt_unit_odd(u: int, p: int, n: int) -> int:
    """The square root mod p^n of a unit u, p odd, by the Newton steps of
    x^2 - u from the Tonelli-Shanks root mod p, each doubling the digits."""
    x = sqrt_mod_prime(u % p, p)
    if x is None:
        raise InputError("unit is not a square mod p")
    k = 1
    while k < n:
        k = min(2 * k, n)
        mod = p ** k
        x = (x - (x * x - u) * pow(2 * x, -1, mod)) % mod
    return x % p ** n


def sqrt_unit_2adic(u: int, n: int) -> int:
    """A square root mod 2^n of x^2 = u mod 2^n, u = 1 mod 8, lifted one
    binary digit per step from x = 1: x^2 = u mod 2^(j+1) is restored by
    adding 2^(j-1) when it fails.  The root is 1 mod 4 and fixed mod
    2^(n-1)."""
    if u % 8 != 1:
        raise InputError("2-adic unit is not a square")
    x = 1
    for j in range(3, n):
        if (x * x - u) % 2 ** (j + 1):
            x += 2 ** (j - 1)
    return x % 2 ** n


def halving_depth(curve, point, k: int, place, fiber_sizes: list) -> int:
    """The largest j <= k with P in 2^j E over the place, by recursion over
    every half, with no early exit: a half of the origin counts as
    divisible to any depth.  The halves are those that halve_point lists,
    and at the real place those of _real_halves.  Appends the number of
    halves of every affine point halved to fiber_sizes."""
    if k == 0 or point.infinity:
        return k
    if place is not None and place.is_real:
        halves = _real_halves(curve, point)
    else:
        halves = halve_point(curve, point, place)
    fiber_sizes.append(len(halves))
    depths = [1 + halving_depth(curve, q, k - 1, place, fiber_sizes) for q in halves]
    return max(depths, default=0)


def _real_halves(curve, point) -> list:
    """The real halves of an affine point in floats, which halve_point does
    not take as input: the point (x(P) + r1 r2 + r1 r3 + r2 r3,
    (r1 + r2)(r1 + r3)(r2 + r3)) for each of the eight sign choices of
    r_i = +-sqrt(x(P) - e_i), kept when its chord-tangent double is P
    within a relative 1e-9, a float-accuracy bound of this oracle alone."""
    x, y = float(point.x), float(point.y)
    diffs = [x - float(e) for e in curve.roots]
    if min(diffs) < 0:
        return []
    a2, a4 = float(curve.a2), float(curve.a4)
    halves = []
    for signs in itertools.product((1, -1), repeat=3):
        r1, r2, r3 = (s * sqrt(d) for s, d in zip(signs, diffs))
        xq = x + r1 * r2 + r1 * r3 + r2 * r3
        yq = (r1 + r2) * (r1 + r3) * (r2 + r3)
        lam = (3 * xq * xq + 2 * a2 * xq + a4) / (2 * yq)
        x2 = lam * lam - a2 - 2 * xq
        if (isclose(x2, x, rel_tol=1e-9)
                and isclose(lam * (xq - x2) - yq, y, rel_tol=1e-9)):
            halves.append(CurvePoint(xq, yq))
    return halves


def reduced_divisible_by_2k(curve, point, k: int, p: int) -> bool:
    """Whether the reduction of a rational point lies in 2^k E~(F_p), for
    y^2 = (x - e1)(x - e2)(x - e3) with good reduction at the odd prime p,
    by membership in the set of 2^k-multiples of the enumerated E~(F_p).
    A point with p in the denominator of x reduces to the origin, which is
    always divisible."""
    roots = tuple(e.numerator * pow(e.denominator, -1, p) % p for e in curve.roots)
    if len(set(roots)) < 3:
        raise InputError("the reduced-group oracle needs a good odd prime")
    if point.infinity or point.x.denominator % p == 0:
        return True
    reduced = (point.x.numerator * pow(point.x.denominator, -1, p) % p,
               point.y.numerator * pow(point.y.denominator, -1, p) % p)
    assert reduced in _reduced_multiples(roots, p, 0)
    return reduced in _reduced_multiples(roots, p, k)


@functools.lru_cache(maxsize=None)
def _reduced_multiples(roots: tuple, p: int, k: int) -> frozenset:
    """2^k E~(F_p) for y^2 = prod (x - e_i) mod p; None is the origin."""
    e1, e2, e3 = roots
    if k == 0:
        sqrt = {}
        for y in range(p):
            sqrt.setdefault(y * y % p, []).append(y)
        return frozenset([None] + [(x, y) for x in range(p)
                                   for y in sqrt.get((x - e1) * (x - e2) * (x - e3) % p, ())])
    a2, a4 = -(e1 + e2 + e3), e1 * e2 + e1 * e3 + e2 * e3

    def double(q):
        if q is None or q[1] == 0:
            return None
        x, y = q
        lam = (3 * x * x + 2 * a2 * x + a4) * pow(2 * y, -1, p) % p
        x3 = (lam * lam - a2 - 2 * x) % p
        return x3, (lam * (x - x3) - y) % p
    return frozenset(map(double, _reduced_multiples(roots, p, k - 1)))


def verdict_by_queries(model, queries) -> tuple:
    """(t_singular, witnesses) of models.verdict, from one Sha(T) per query:
    the Hasse witnesses are the least nonzero members of Sha(empty) and
    Sha(all labels), and the T-singular witness is the least member of Sha(T)
    restricting nontrivially at some place of support_set & T."""
    from locglob.models import sha_of_model

    def least(sha, keep):
        return min((c for coords, c in sha.members.all_classes() if keep(coords)),
                   key=CocycleClass.flat, default=None)
    witnesses = []
    for kind, T in (("hasse", frozenset()), ("strong_hasse", model.labels)):
        sha = sha_of_model(model, T)
        if not sha.is_trivial():
            witnesses.append((kind, (), least(sha, any)))
    t_singular = []
    for T in queries:
        key = tuple(sorted(str(x) for x in T))
        sha = sha_of_model(model, key)
        targets = [elems for label, elems in model.designated
                   if label in sha.support_set & sha.excluded]
        wit = least(sha, lambda coords: not all(sha.ambient.vanishes_on(elems, [coords])
                                                for elems in targets))
        t_singular.append((key, wit is not None))
        if wit is not None:
            witnesses.append(("t_singular", key, wit))
    return tuple(t_singular), tuple(witnesses)


def subgroup_table(group: GroupTable, elements) -> GroupTable:
    """The multiplication table of a subgroup, elements reindexed 0..k-1
    in ascending order (identity first)."""
    elems = tuple(sorted(set(elements)))
    if not group.is_subgroup(elems):
        raise InputError("element set is not closed under the group operation")
    local = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(local[group.mul(a, b)] for b in elems) for a in elems)
    return GroupTable(len(elems), table)


def restrict_module(module: GModule, elements) -> GModule:
    """The module over a subgroup, its elements reindexed in ascending
    order, through the checking constructors."""
    sub = subgroup_table(module.group, elements)
    act = tuple(module.action[e] for e in sorted(set(elements)))
    return GModule(sub, module.space, act)


def restrict_class(c: CocycleClass, elements) -> CocycleClass:
    """A cocycle restricted to a subgroup (given by its element set), as a
    cocycle of the restricted module, checked by its constructor."""
    elems = tuple(sorted(set(elements)))
    return CocycleClass(restrict_module(c.module, elems), tuple(c.values[e] for e in elems))


def h1_star_by_restricted_modules(module: GModule):
    """(order, witness) as brute_force_h1_star gives them, with
    each cyclic restriction tested on the restricted module: a cocycle of
    the enumeration lies in H1_* when, on every nontrivial cyclic subgroup
    Z, its values are a coboundary of the module over Z."""
    space = module.space
    elems = list(space.elements())
    subs = [(z.elements, restrict_module(module, z.elements))
            for z in cyclic_subgroups(module.group) if z.order > 1]
    star = [tuple(elems[i] for i in z)
            for z in brute_force_h1_by_assignments(module)[1]
            if all(brute_force_is_coboundary(sub_mod, [elems[z[g]] for g in sub])
                   for sub, sub_mod in subs)]
    cobs = {tuple(space.sub(module.act(g, e), e) for g in range(module.group.order))
            for e in elems}
    order = len(star) // len(cobs)
    return order, (min(f for f in star if f not in cobs) if order > 1 else None)


def restriction_through_subgroup_h1(h, elements) -> tuple:
    """(rows, moduli) of the restriction H1(G, M) -> H1(Z, M) to the
    subgroup Z with the given element set, by H1 of the restricted module:
    row i . x mod moduli[i] is coordinate i of the image of class x."""
    hz = h1(restrict_module(h.module, elements))
    cols = [hz.coordinates_of(restrict_class(rep, elements)) for rep in h.representatives]
    moduli = hz.structure.invariant_factors
    return tuple(tuple(col[i] for col in cols) for i in range(len(moduli))), moduli


def matrix_is_automorphism(mat, space: FinAb) -> bool:
    """Whether an integer matrix is compatible with the moduli of space and
    bijective on it, by triviality of its kernel (exact, no determinants)."""
    if not matrix_is_compatible(mat, space):
        return False
    d = space.invariant_factors
    gens = kernel_mod_lattice([list(row) for row in mat], list(d), space.rank)
    return not any(any(x % m for x, m in zip(g, d)) for g in gens)


def automorphisms_by_kernel(space: FinAb) -> list[tuple]:
    """The compatible matrices on space, in the order of their entries, that
    are bijective, one matrix at a time: exactly those that send no nonzero
    element to zero."""
    d = space.invariant_factors
    r = space.rank
    choices = [range(0, d[i], d[i] // gcd(d[i], d[j])) for i in range(r) for j in range(r)]
    nonzero = list(space.elements())[1:]
    zero = space.zero()
    out = []
    for flat in itertools.product(*choices):
        mat = tuple(tuple(flat[i * r + j] for j in range(r)) for i in range(r))
        if all(apply_matrix(mat, e, space) != zero for e in nonzero):
            out.append(mat)
    return out


def is_subgroup_all_pairs(group: GroupTable, elements) -> bool:
    """Whether the set contains 0 and every product of two of its elements."""
    es = set(elements)
    return 0 in es and all(group.mul(a, b) in es for a in es for b in es)


def cyclic_subgroups_by_closure(group: GroupTable) -> list[SubgroupSpec]:
    """Every cyclic subgroup once, each as the closure of 0 under right
    multiplication by its least generator, ordered by (order, elements)."""
    seen = {}
    for g in range(group.order):
        elems = group.generated_subgroup((g,))
        if elems not in seen:
            seen[elems] = g
    out = [SubgroupSpec(elems, gen) for elems, gen in seen.items()]
    out.sort(key=lambda s: (s.order, s.elements))
    return out


def greedy_generators_by_closure(group: GroupTable) -> tuple:
    """Each element, in ascending order, outside the subgroup generated by
    the ones taken before it; the closure is recomputed from scratch after
    every new generator."""
    gens, have = [], {0}
    for g in range(1, group.order):
        if g not in have:
            gens.append(g)
            have = set(group.generated_subgroup(gens))
            if len(have) == group.order:
                break
    return tuple(gens)


def group_table_checks(m, t) -> tuple[bool, bool]:
    """(every group axiom holds, right inverses exist but are not two-sided)
    for an m x m table with entries in range, identity 0 tested, two-sided
    inverses tested apart from associativity, which runs over all triples."""
    right_inverses = all(0 in row for row in t)
    two_sided = right_inverses and all(t[t[g].index(0)][g] == 0 for g in range(m))
    ok = (all(t[0][g] == g == t[g][0] for g in range(m)) and two_sided
          and all(t[t[g][h]][k] == t[g][t[h][k]]
                  for g in range(m) for h in range(m) for k in range(m)))
    return ok, right_inverses and not two_sided


def is_action(group: GroupTable, space: FinAb, act) -> bool:
    """Every matrix an automorphism (compatibility included), action[0] the
    identity and action a homomorphism on all pairs, each decided on its own."""
    d = space.invariant_factors
    return (all(matrix_is_automorphism(mat, space) for mat in act)
            and mat_mod(act[0], d) == mat_mod(identity_matrix(space.rank), d)
            and all(mat_mod(mat_mul(act[g], act[h]), d) == mat_mod(act[group.mul(g, h)], d)
                    for g in range(group.order) for h in range(group.order)))


def first_non_homomorphic_pair(group: GroupTable, space: FinAb, act):
    """The first (g, s), g outer and s over the generating set inner, where
    the product of the action matrices as given differs from act[gs] mod the
    invariant factors; None if there is none."""
    d = space.invariant_factors
    for g in range(group.order):
        for s in group.generating_set():
            if mat_mod(mat_mul(act[g], act[s]), d) != mat_mod(act[group.mul(g, s)], d):
                return g, s
    return None


def is_cocycle(module: GModule, values) -> bool:
    """f(1) = 0 and f(gh) = f(g) + g.f(h) on all pairs, for reduced values."""
    space = module.space
    grp = module.group
    return (values[0] == space.zero()
            and all(values[grp.mul(g, h)] == space.add(values[g], module.act(g, values[h]))
                    for g in range(grp.order) for h in range(grp.order)))


def is_character(group: GroupTable, n: int, values) -> bool:
    """chi(1) = 1, unit values and chi(gh) = chi(g) chi(h) mod n on all pairs."""
    return ((values[0] - 1) % n == 0
            and all(gcd(v, n) == 1 for v in values)
            and all((values[g] * values[h] - values[group.mul(g, h)]) % n == 0
                    for g in range(group.order) for h in range(group.order)))


def brute_force_is_coboundary(module: GModule, values, elements=None) -> bool:
    """Direct search over M for an element m with f(g) = g.m - m for every g
    in elements (every group element by default), values[g] being f(g): on
    the element set of a subgroup Z this tests the restriction of f to Z."""
    space = module.space
    vals = tuple(space.reduce(v) for v in values)
    elements = range(module.group.order) if elements is None else elements
    for e in space.elements():
        if all(vals[g] == space.sub(module.act(g, e), e) for g in elements):
            return True
    return False


def brute_force_h1_star(module: GModule):
    """Order of the kernel of restriction to all cyclic subgroups, and the
    lexicographically least cocycle of a nontrivial member (None if the
    kernel is trivial); entirely by enumeration."""
    space = module.space
    grp = module.group
    elems = list(space.elements())
    index = {e: i for i, e in enumerate(elems)}
    cobs = set()
    for e in elems:
        cobs.add(tuple(index[space.sub(module.act(g, e), e)] for g in range(grp.order)))
    subs = [z.elements for z in cyclic_subgroups(grp) if z.order > 1]
    star = []
    for z in brute_force_h1_by_assignments(module)[1]:
        values = [elems[i] for i in z]
        if all(brute_force_is_coboundary(module, values, sub) for sub in subs):
            star.append(z)
    b1 = len(cobs)
    if len(star) % b1:
        raise SelfCheckError("star cocycles do not tile into classes")
    order = len(star) // b1
    witness = None
    if order > 1:
        nontrivial = [z for z in star if z not in cobs]
        flat = sorted(tuple(x for g in z for x in elems[g]) for z in nontrivial)
        best = flat[0]
        # recover the value map from the flattened form
        r = space.rank
        witness = tuple(best[i * r:(i + 1) * r] for i in range(grp.order))
    return order, witness


def invariants_from_torsion(counts: dict) -> tuple:
    """Invariant factors of a finite abelian group from its k-torsion
    profile {k: #elements killed by k}, k running over the divisors of an
    exponent bound."""
    exp_bound = max(counts)
    order = counts[exp_bound]
    if order == 1:
        return ()
    heights = {}
    for p, emax in factorize(exp_bound).items():
        ns = []
        prev = 1
        for j in range(1, emax + 1):
            cur = counts[p ** j] if p ** j in counts else prev
            ratio = cur // prev
            nj = 0
            while ratio > 1:
                ratio //= p
                nj += 1
            ns.append(nj)
            prev = cur
        if ns and ns[0]:
            heights[p] = ns
    rank = max((ns[0] for ns in heights.values()), default=0)
    factors = []
    for slot in range(rank):
        level = rank - slot           # ascending factors get the lower heights
        d = 1
        for p, ns in heights.items():
            e = sum(1 for nj in ns if nj >= level)
            d *= p ** e
        factors.append(d)
    check = 1
    for d in factors:
        check *= d
    if check != order:
        raise SelfCheckError("torsion profile does not define an abelian group")
    return tuple(d for d in factors if d > 1)


def dual_pairing_value(module: GModule, chi: CyclotomicData, dual_elem, elem) -> int:
    """Evaluation pairing M^ x M -> Z/n in coordinates."""
    n = chi.modulus
    d = module.space.invariant_factors
    return sum((n // dj) * b * a for dj, b, a in zip(d, dual_elem, elem)) % n


def double_dual_isomorphism(module: GModule, chi: CyclotomicData):
    """The natural isomorphism M -> (M^)^ (evaluation), as a callable.

    In the chosen coordinates evaluation is the identity; this is verified
    at the matrix level always, and elementwise over every module and group
    element when |M| <= 512.  Returns the map."""
    dd = dual_module(dual_module(module, chi), chi)
    d = module.space.invariant_factors
    if any(mat_mod(dd.action[g], d) != mat_mod(module.action[g], d)
           for g in range(module.group.order)):
        raise SelfCheckError("double dual does not match the module")
    if module.space.order <= 512:
        for g in range(module.group.order):
            for m in module.space.elements():
                if dd.act(g, m) != module.act(g, m):
                    raise SelfCheckError("double dual disagrees on an element")
    return lambda m: module.space.reduce(m)


def _squarefree_part(x: int) -> int:
    """x / (largest square divisor); sign preserved.  Trial division."""
    if x == 0:
        raise InputError("zero has no squarefree part")
    sign = -1 if x < 0 else 1
    x = abs(x)
    out = 1
    d = 2
    while d * d <= x:
        if x % d == 0:
            e = 0
            while x % d == 0:
                x //= d
                e += 1
            if e % 2:
                out *= d
        d += 1 if d == 2 else 2
    return sign * out * x


def hilbert_symbol_search(a, b, p: int) -> int:
    """Solvability of z^2 = a x^2 + b y^2 over Q_p by residue search.

    Reduces a, b to squarefree integers, then looks for a primitive solution
    mod p^3 (odd p) or mod 2^5.  At these moduli every primitive solution
    satisfies the Hensel lifting bound, so existence is equivalent to
    solvability over Q_p.  Quadratic in p^3.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise InputError("Hilbert symbol arguments must be nonzero")
    a0 = _squarefree_part(a.numerator * a.denominator)
    b0 = _squarefree_part(b.numerator * b.denominator)
    k = 5 if p == 2 else 3
    mod = p ** k
    squares = {z * z % mod for z in range(mod)}
    # the values a x^2 (and b y^2) mod p^k, over units x and over all x;
    # primitivity: a solution with x and y both divisible by p forces
    # val(rhs) >= 2, hence z divisible by p too, so it is enough to ask
    # that x or y be a unit
    ax_unit = {a0 * x * x % mod for x in range(mod) if x % p}
    by_unit = {b0 * y * y % mod for y in range(mod) if y % p}
    ax_all = ax_unit | {a0 * x * x % mod for x in range(0, mod, p)}
    by_all = by_unit | {b0 * y * y % mod for y in range(0, mod, p)}
    if any((u + v) % mod in squares
           for xs, ys in ((ax_unit, by_all), (ax_all, by_unit))
           for u in xs for v in ys):
        return 1
    return -1


def propagation_by_torsion_translates(curve, point, n: int, m: int, divisible) -> bool:
    """The torsion-translate criterion for m = 2: 2P is 2n-divisible at v
    iff some 2-torsion translate P + T is n-divisible at v, with
    divisible(Q, k) deciding whether Q lies in 2^k E(Q_v)."""
    if m != 2:
        raise InputError("the torsion-translate oracle is stated for m = 2")
    k = n.bit_length() - 1
    return k == 0 or any(divisible(group_law(curve, point, t), k)
                         for t in curve.two_torsion())


# ---------------------------------------------------------------------------
# n-th roots mod p by the Adleman-Manders-Miller tower


def nth_root_mod_prime_by_tower(u: int, n: int, p: int) -> int | None:
    """Some x with x^n == u mod p, or None; p prime, p not dividing u.

    Splits g = gcd(n, p - 1) into prime powers, extracts each root in its
    own Sylow tower of l-th roots, and recombines with a Bezout identity;
    then x = y^((n/g)^-1 mod (p - 1)/g).  The program takes the same root in
    closed form."""
    if p == 2:
        return u % 2
    u %= p
    if u == 0:
        return 0
    g = gcd(n, p - 1)
    if pow(u, (p - 1) // g, p) != 1:
        return None
    if g == 1:
        return pow(u, pow(n % (p - 1), -1, p - 1), p)
    parts = []
    hs = []
    for l, e in factorize(g).items():
        zi = _prime_power_root(u, l, e, p)
        if zi is None:
            raise SelfCheckError("residue test passed but no prime-power root found")
        parts.append(zi)
        hs.append(g // l ** e)
    cs = _bezout_combination(hs)            # gcd of the h_i is 1
    y = 1
    for zi, ci in zip(parts, cs):
        y = (y * pow(zi, ci, p)) % p
    m = (p - 1) // g
    c = pow((n // g) % m, -1, m) if m > 1 else 1
    x = pow(y, c, p)
    if pow(x, n, p) != u:
        raise SelfCheckError("internal nth root construction failed")
    return x


def discrete_log_by_walk(b: int, gen: int, l: int, s: int, p: int) -> int:
    """Discrete log of b base gen, where gen has order l**s mod p, one
    base-l digit at a time, each found by walking the powers of an element
    of order l; the program takes each digit by baby-step giant-step."""
    e = 0
    gamma = pow(gen, l ** (s - 1), p)       # order l
    for i in range(s):
        h = pow(b * pow(gen, -e, p) % p, l ** (s - 1 - i), p)
        d = 0
        x = 1
        while x != h:
            x = (x * gamma) % p
            d += 1
            if d >= l:
                raise SelfCheckError("element is outside the cyclic subgroup")
        e += d * l ** i
    return e


def _lth_root_mod_prime(a: int, l: int, p: int) -> int | None:
    """An l-th root of a mod p for prime l, or None if a is not an l-th
    power.  Adleman-Manders-Miller when l divides p - 1."""
    a %= p
    if a == 0:
        return 0
    if (p - 1) % l:
        # x -> x^l is a bijection
        return pow(a, pow(l, -1, p - 1), p)
    if pow(a, (p - 1) // l, p) != 1:
        return None
    # p - 1 = l^s * m with l not dividing m
    m, s = p - 1, 0
    while m % l == 0:
        m //= l
        s += 1
    big = l ** s
    alpha = pow(big, -1, m) if m > 1 else 0
    beta = pow(m, -1, big)
    # split a into its order-m component and its Sylow-l component
    comp_m = pow(a, (big * alpha) % (p - 1), p)
    r1 = pow(comp_m, pow(l, -1, m), p) if m > 1 else 1
    z = 2
    while pow(z, (p - 1) // l, p) == 1:
        z += 1
    gen = pow(z, m, p)                      # order exactly l^s
    b = pow(a, (m * beta) % (p - 1), p)     # Sylow-l component
    e = discrete_log_by_walk(b, gen, l, s, p)
    if e % l:
        return None
    r2 = pow(gen, e // l, p)
    return (r1 * r2) % p


def _prime_power_root(a: int, l: int, e: int, p: int) -> int | None:
    """y with y**(l**e) == a mod p, searching over root-of-unity twists so
    that a root deeper in the tower is always found when one exists."""
    if e == 0:
        return a
    y = _lth_root_mod_prime(a, l, p)
    if y is None:
        return None
    if e == 1:
        return y
    if (p - 1) % l:
        return _prime_power_root(y, l, e - 1, p)
    z = 2
    while pow(z, (p - 1) // l, p) == 1:
        z += 1
    zeta = pow(z, (p - 1) // l, p)
    cand = y
    for _ in range(l):
        deeper = _prime_power_root(cand, l, e - 1, p)
        if deeper is not None:
            return deeper
        cand = (cand * zeta) % p
    return None


def _bezout_combination(values: list[int]) -> list[int]:
    """Coefficients c with sum(c_i * values_i) == gcd(values), by the
    extended Euclidean algorithm folded over the list."""
    coeffs = [1]
    g = values[0]
    for v in values[1:]:
        a, b = g, v
        x0, x1, y0, y1 = 1, 0, 0, 1
        while b:
            q, a, b = a // b, b, a % b
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        g = a
        coeffs = [c * x0 for c in coeffs] + [y0]
    return coeffs


# ---------------------------------------------------------------------------
# the reference elimination


class _SnfState:
    """Mutable S with unimodular P, Q and S = P*A*Q."""

    def __init__(self, mat):
        self.s = [row[:] for row in mat]
        self.m = len(mat)
        self.n = len(mat[0]) if mat else 0
        self.p = identity_matrix(self.m)
        self.q = identity_matrix(self.n)

    def swap_rows(self, i, j):
        if i == j:
            return
        self.s[i], self.s[j] = self.s[j], self.s[i]
        self.p[i], self.p[j] = self.p[j], self.p[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.s:
            row[i], row[j] = row[j], row[i]
        for row in self.q:
            row[i], row[j] = row[j], row[i]

    def negate_row(self, i):
        self.s[i] = [-x for x in self.s[i]]
        self.p[i] = [-x for x in self.p[i]]

    def add_row(self, i, j, c):
        # row i += c * row j
        if c == 0:
            return
        self.s[i] = [x + c * y for x, y in zip(self.s[i], self.s[j])]
        self.p[i] = [x + c * y for x, y in zip(self.p[i], self.p[j])]

    def add_col(self, i, j, c):
        # col i += c * col j
        if c == 0:
            return
        for row in self.s:
            row[i] += c * row[j]
        for row in self.q:
            row[i] += c * row[j]


def smith_normal_form_by_reference(mat) -> Snf:
    """Smith normal form with both transforms whole, every operation applied
    to every row and column of S, P and Q: the elimination that
    `linalg.smith_normal_form` performs, pivot for pivot and operation for
    operation, where the program builds only the transforms its caller
    reads and skips the entries an operation cannot change."""
    st = _SnfState(mat)
    m, n = st.m, st.n
    t = 0
    while t < min(m, n):
        # locate a pivot of least absolute value in the trailing block
        pi = pj = -1
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = st.s[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pi, pj = i, j
        if best is None:
            break
        st.swap_rows(t, pi)
        st.swap_cols(t, pj)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                v = st.s[i][t]
                if v:
                    q = v // st.s[t][t]
                    st.add_row(i, t, -q)
                    if st.s[i][t]:
                        st.swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                v = st.s[t][j]
                if v:
                    q = v // st.s[t][t]
                    st.add_col(j, t, -q)
                    if st.s[t][j]:
                        st.swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # make every entry of the trailing block divisible by the pivot
        piv = st.s[t][t]
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if st.s[i][j] % piv:
                    st.add_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if st.s[t][t] < 0:
                st.negate_row(t)
            t += 1
    d = tuple(st.s[i][i] for i in range(min(m, n)))
    return Snf(d, tuple(map(tuple, st.p)), tuple(map(tuple, st.q)), sum(1 for x in d if x))


# ---------------------------------------------------------------------------
# the golden file


def oracle_golden() -> dict:
    """Every derived entry of `locglob/data/golden.json`, recomputed by the
    oracles above: H1 and H1_* of mu8 by enumeration, the Hilbert symbols by
    residue search, and the level-raising entries by the torsion-translate
    criterion.  At the good prime 3 that criterion reads divisibility in
    the reduced group E~(F_3), so the entry takes no p-adics; 2 is a bad
    prime for the DZ curve, so the entry at 2 reads `divisible_by_2k`."""
    module, _, _ = mu8_model()
    brute, _ = brute_force_h1_by_assignments(module)
    star_order, star_witness = brute_force_h1_star(module)

    e = DZ_CURVE
    p0 = e.point(DZ_POINT_X, DZ_POINT_Y)
    halves = halve_point(e, p0)
    for h in halves:
        if duplication_x(e, h.x) != DZ_POINT_X:
            raise SelfCheckError("duplication oracle rejects a computed half")

    return {
        "mu8_h1_invariants": list(invariants_from_torsion(brute.torsion_counts)),
        "mu8_h1_star_order": star_order,
        "mu8_h1_star_representative": [list(v) for v in star_witness],
        "mu8_sha_T2_order": star_order,
        "dz_halves_x": sorted(format_rational(h.x) for h in halves),
        "dz_propagation_n4_m2_v3": propagation_by_torsion_translates(
            e, p0, 4, 2, lambda q, k: reduced_divisible_by_2k(e, q, k, 3)),
        "dz_propagation_n4_m2_v2": propagation_by_torsion_translates(
            e, p0, 4, 2, lambda q, k: divisible_by_2k(e, q, k, Place.finite(2))),
        "hilbert_3_5": {
            "2": hilbert_symbol_search(3, 5, 2),
            "3": hilbert_symbol_search(3, 5, 3),
            "5": hilbert_symbol_search(3, 5, 5),
            "inf": 1 if not (3 < 0 and 5 < 0) else -1,
        },
    }


def golden_text(golden: dict) -> str:
    """The golden file's text for its entries."""
    return json.dumps(golden, indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    # print the golden file: PYTHONPATH=src python tests/search_oracles.py
    sys.stdout.write(golden_text(oracle_golden()))
