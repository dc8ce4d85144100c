"""Search oracles that only the tests read.

Each recomputes by enumeration or by a direct test a quantity that the
program decides by a formula or a shortcut: H1 of a cyclic group as
ker(norm)/im(sigma - 1), squares mod p, n-th powers in Q_p by a residue
sweep at the Hensel modulus, 2-power divisibility by the whole halving
tree, and bijectivity of a matrix on a finite abelian group by the
triviality of its kernel (GModule reads it from the homomorphism check).
The axioms of a group table, an action, a cocycle and a character are
tested here on all triples or pairs of elements; the program checks them
on a generating set.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from locglob.abelian import FinAb, matrix_is_compatible
from locglob.arith import int_valuation, rational_unit_mod, rational_valuation
from locglob.elliptic import halve_point
from locglob.errors import InputError
from locglob.gmodules import GModule
from locglob.groups import GroupTable
from locglob.linalg import identity_matrix, kernel_mod_lattice, mat_mod, mat_mul


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


def halving_depth(curve, point, k: int, place, fiber_sizes: list) -> int:
    """The largest j <= k with P in 2^j E over the place, by recursion over
    every half that halve_point lists, with no early exit: a half of the
    origin counts as divisible to any depth.  Appends the number of halves
    of every affine point halved to fiber_sizes."""
    if k == 0 or point.infinity:
        return k
    halves = halve_point(curve, point, place)
    fiber_sizes.append(len(halves))
    depths = [1 + halving_depth(curve, q, k - 1, place, fiber_sizes) for q in halves]
    return max(depths, default=0)


def matrix_is_automorphism(mat, space: FinAb) -> bool:
    """Whether an integer matrix is compatible with the moduli of space and
    bijective on it, by triviality of its kernel (exact, no determinants)."""
    if not matrix_is_compatible(mat, space):
        return False
    d = space.invariant_factors
    gens = kernel_mod_lattice([list(row) for row in mat], list(d), space.rank)
    return not any(any(x % m for x, m in zip(g, d)) for g in gens)


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
