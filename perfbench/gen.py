"""Seeded inputs for the three workloads.

Each generator takes a seed and returns plain data: JSON documents in the
README schema, integers and Fractions, command lines.  Only the public API
is touched (the group constructors and `GroupTable` methods); nothing comes
from `locglob.families` or `locglob.oracles`, so moving those modules
cannot change the inputs.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import gcd, isqrt

import locglob as lg

# --------------------------------------------------------------------------
# modules: place-model documents

GROUP_NAMES = ("C1", "C2", "C3", "C4", "V4", "C5", "C6", "S3")

# every finite abelian group of order 2..16, in invariant-factor form
SHAPES = ((2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2),
          (9,), (3, 3), (10,), (11,), (12,), (2, 6), (13,), (14,), (15,),
          (16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2))

CHECK_LIMIT = 2 ** 20      # |M|^|G| at or below which h1 runs its built-in check
LABELS = ("2", "3", "5", "7")
TRIVIAL_SHARE = 0.1        # documents given the trivial action by choice
DRAWS = 3                  # draws of a document before a repeated module is left out


def _group(name):
    if name == "C1":
        return lg.trivial_group()
    if name == "V4":
        return lg.klein_four_group()
    if name == "S3":
        return lg.symmetric_group_3()
    return lg.cyclic_group(int(name[1:]))


def _order(shape):
    out = 1
    for d in shape:
        out *= d
    return out


def _apply(mat, vec, shape):
    return tuple(sum(a * x for a, x in zip(row, vec)) % d
                 for row, d in zip(mat, shape))


def _mat_mul(a, b, shape):
    r = len(shape)
    if r == 1:
        return ((a[0][0] * b[0][0] % shape[0],),)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(r)) % shape[i]
                       for j in range(r)) for i in range(r))


def _identity(shape):
    r = len(shape)
    return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


def _random_automorphism(rng, shape, elems):
    for _ in range(64):
        # entry (i, j) maps Z/d_j to Z/d_i, so it is a multiple of d_i/gcd
        mat = tuple(tuple(di // gcd(di, dj) * rng.randrange(gcd(di, dj))
                          for dj in shape) for di in shape)
        if len({_apply(mat, v, shape) for v in elems}) == len(elems):
            return mat
    return _identity(shape)


def _power_of_order_dividing(mat, shape, n):
    """mat^(k / gcd(k, n)) for k the order of mat: its order divides n."""
    ident = _identity(shape)
    power, k = mat, 1
    while power != ident:
        power = _mat_mul(power, mat, shape)
        k += 1
    out = ident
    for _ in range(k // gcd(k, n)):
        out = _mat_mul(out, mat, shape)
    return out


def _extend_action(group, gens, images, shape):
    """The action on every element from generator images, or None when the
    images do not define a homomorphism."""
    act = {0: _identity(shape)}
    queue = [0]
    while queue:
        g = queue.pop(0)
        for s, img in zip(gens, images):
            gs = group.mul(g, s)
            if gs not in act:
                act[gs] = _mat_mul(act[g], img, shape)
                queue.append(gs)
    for g in range(group.order):
        for h in range(group.order):
            if _mat_mul(act[g], act[h], shape) != act[group.mul(g, h)]:
                return None
    return tuple(act[g] for g in range(group.order))


class ModelMaker:
    """Random place models over the groups of GROUP_NAMES.

    Each (group, shape) pair gets a small pool of nontrivial actions,
    searched once.  Every document then presents its module afresh: the
    action is conjugated by a random automorphism of M (a change of
    coordinates) and the group elements other than the identity are
    relabeled at random, so documents over isomorphic modules still differ
    as data, as inputs from independent users would.
    """

    ATTEMPTS = 16
    POOL = 6

    def __init__(self, rng):
        self.rng = rng
        self.groups = {}
        for name in GROUP_NAMES:
            g = _group(name)
            gens = g.generating_set()
            self.groups[name] = (g, gens, [g.element_order(s) for s in gens],
                                 [z.elements for z in lg.cyclic_subgroups(g)])
        self.pools = {}
        self.changes = {}

    def _pool(self, name, shape):
        """Distinct nontrivial actions found by drawing generator images:
        random automorphisms of fitting order, some set to the identity so
        that actions through quotients (the sign of S3, one factor of V4)
        come up."""
        if (name, shape) not in self.pools:
            group, gens, orders, _ = self.groups[name]
            rng = self.rng
            trivial = (_identity(shape),) * group.order
            elems = list(itertools.product(*(range(d) for d in shape)))
            found = []
            for _ in range(self.ATTEMPTS):
                images = [_identity(shape) if len(gens) > 1 and rng.random() < 0.3 else
                          _power_of_order_dividing(_random_automorphism(rng, shape, elems),
                                                   shape, n)
                          for n in orders]
                act = _extend_action(group, gens, images, shape)
                if act is not None and act != trivial and act not in found:
                    found.append(act)
                    if len(found) == self.POOL:
                        break
            self.pools[name, shape] = found
        return self.pools[name, shape]

    def _coordinate_changes(self, shape):
        """A few random automorphisms of M with their inverses."""
        if shape not in self.changes:
            elems = list(itertools.product(*(range(d) for d in shape)))
            auts = [_random_automorphism(self.rng, shape, elems) for _ in range(self.POOL)]
            self.changes[shape] = [(p, _inverse(p, shape)) for p in auts]
        return self.changes[shape]

    def model(self, name, shape):
        """(document, trivial_action, module key).  A place model has one
        full-group place, 1-3 cyclic places and, with probability 1/2, one
        archimedean place."""
        group, _, _, cyclic = self.groups[name]
        rng = self.rng
        m = group.order
        pool = self._pool(name, shape)
        trivial = not pool or rng.random() < TRIVIAL_SHARE
        action = (_identity(shape),) * m if trivial else rng.choice(pool)
        if not trivial:
            p, p_inv = rng.choice(self._coordinate_changes(shape))
            action = [_mat_mul(_mat_mul(p, a, shape), p_inv, shape) for a in action]
        perm = [0] + rng.sample(range(1, m), m - 1)
        table = [[0] * m for _ in range(m)]
        for g in range(m):
            for h in range(m):
                table[perm[g]][perm[h]] = perm[group.mul(g, h)]
        relabeled = [None] * m
        for g in range(m):
            relabeled[perm[g]] = action[g]
        subgroups = [sorted(perm[e] for e in z) for z in cyclic]
        labels = list(LABELS)
        rng.shuffle(labels)
        designated = {labels[0]: list(range(m))}
        for label in labels[1:1 + rng.randint(1, 3)]:
            designated[label] = rng.choice(subgroups)
        archimedean = []
        if rng.random() < 0.5:
            designated["inf"] = rng.choice([z for z in subgroups if len(z) <= 2])
            archimedean = ["inf"]
        doc = {
            "order": m,
            "table": [x for row in table for x in row],
            "invariant_factors": list(shape),
            "action": {str(g): [x for row in a for x in row] for g, a in enumerate(relabeled)},
            "designated": designated,
            "archimedean": archimedean,
        }
        return doc, trivial, json.dumps([doc["table"], doc["invariant_factors"], doc["action"]])


def _inverse(mat, shape):
    ident = _identity(shape)
    prev, power = ident, mat
    while power != ident:
        prev, power = power, _mat_mul(power, mat, shape)
    return prev


def modules_inputs(seed, rounds):
    """Documents over distinct modules, as (document, properties), from
    `rounds` rounds of one draw per group.

    Each group walks through a seeded permutation of all module shapes, so
    every stretch of 24 rounds offers each (group, shape) pair once.  A
    draw whose module (table, invariant factors and action) came up before
    is drawn again, DRAWS times in all, and then left out, so documents
    reach the program's caches only through the submodules they share.
    Groups with few modules drop out after their first rounds (the trivial
    group has one module per shape), so the batch is shuffled at the end:
    every stretch of it then has the same mix, and how far a run gets does
    not change what it measures.
    """
    rng = random.Random("modules-%d" % seed)
    maker = ModelMaker(rng)
    perms = {}
    for name in GROUP_NAMES:
        perm = list(SHAPES)
        rng.shuffle(perm)
        perms[name] = perm
    docs = []
    seen = set()
    for r in range(rounds):
        order = list(GROUP_NAMES)
        rng.shuffle(order)
        for name in order:
            shape = perms[name][r % len(SHAPES)]
            for _ in range(DRAWS):
                doc, trivial, key = maker.model(name, shape)
                if key not in seen:
                    seen.add(key)
                    docs.append((doc, {"under_check_limit": 1 < doc["order"]
                                       and _order(shape) ** doc["order"] <= CHECK_LIMIT,
                                       "trivial_action": trivial}))
                    break
    rng.shuffle(docs)
    return docs


# --------------------------------------------------------------------------
# local: p-adic, real and global decisions

def primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(n + 1) if sieve[i]]


PRIMES = primes_upto(997)
DZ_CURVE = (-15, 5, 10)
DZ_POINT = (Fraction(1561, 144), Fraction(19459, 1728))
# p^3 <= 2^20 for these p, so a p | n power test sweeps residues mod p^3
SEARCH_PRIMES = (53, 59, 61, 67)


def _rhs(curve, x):
    e1, e2, e3 = curve
    return (x - e1) * (x - e2) * (x - e3)


def double_point(curve, pt):
    """2P on y^2 = (x-e1)(x-e2)(x-e3) over Q, for y(P) != 0."""
    x, y = pt
    e1, e2, e3 = curve
    a2 = -(e1 + e2 + e3)
    a4 = e1 * e2 + e1 * e3 + e2 * e3
    lam = (3 * x * x + 2 * a2 * x + a4) / (2 * y)
    x3 = lam * lam - a2 - 2 * x
    return x3, lam * (x - x3) - y


def curve_with_point(rng):
    """(roots, P, 2P): distinct integer roots in [-12, 12] and an integral
    point P with y(P) != 0 and y(2P) != 0."""
    while True:
        e = tuple(sorted(rng.sample(range(-12, 13), 3)))
        pts = []
        for x in range(e[0] + 1, 60):
            v = _rhs(e, x)
            if v > 0 and isqrt(v) ** 2 == v:
                pts.append((Fraction(x), Fraction(isqrt(v))))
        if pts:
            pt = rng.choice(pts)
            two = double_point(e, pt)
            if two[1] != 0:
                return e, pt, two


def _rand_rational(rng, lo, hi):
    return Fraction(rng.randint(lo, hi) or 1, rng.randint(1, hi))


def local_rounds(seed, rounds):
    """`rounds` rounds of local decisions, each shuffled, as lists of
    (kind, arguments, label).

    Round 0 carries the Dvornicich-Zannier point; after it the point kinds
    alternate random, 2Q, random, 4Q.  A point's ops are divisible_by_2k
    for k in {1, 2} at every prime <= 997, at the real place and globally.
    Every round adds 40 power queries (one with p | n at a prime of
    SEARCH_PRIMES on a non-power, so the residue search sweeps all of
    (Z/p^3)^x; seven of 16 as an 8th power, one of them at 2; the rest b^n
    as an n-th power), 10 product-formula pairs and 2 Grunwald-Wang
    decisions.
    """
    rng = random.Random("local-%d" % seed)
    kinds = ("random", "2Q", "random", "4Q")
    out = []
    for r in range(rounds):
        if r == 0:
            curve, point, kind = DZ_CURVE, DZ_POINT, "dz"
        else:
            kind = kinds[(r - 1) % 4]
            curve, pt, two = curve_with_point(rng)
            point = {"random": pt, "2Q": two, "4Q": double_point(curve, two)}[kind]
        ops = [("div", (r, curve, point, k, place), kind)
               for k in (1, 2) for place in PRIMES + ["inf", "global"]]
        ops += [_power_query(rng, i, r) for i in range(40)]
        for _ in range(10):
            ops.append(("pf", (_rand_rational(rng, -60, 60), _rand_rational(rng, -60, 60)),
                        None))
        for _ in range(2):
            t = tuple(sorted(rng.sample((2, 3, 5, 7, 11), rng.randint(0, 3))))
            ops.append(("gw", (rng.randint(2, 64), t), None))
        rng.shuffle(ops)
        out.append(ops)
    return out


def _power_query(rng, i, r):
    """Labels: 'search' (p | n on a non-power: the residue sweep),
    'sixteen' (16 as an 8th power), 'power' (b^n as an n-th power)."""
    if i == 0:
        p = SEARCH_PRIMES[r % len(SEARCH_PRIMES)]
        n = p * rng.randint(1, 3)
        b = _rand_rational(rng, 1, 9)
        # 1 + p is no p-th power in Z_p, so b^n (1 + p) is no n-th power in Q_p
        return ("pow", (b ** n * (1 + p), n, p), "search")
    if i < 8:
        place = 2 if i == 1 else rng.choice(PRIMES[:25] + ["inf"])
        return ("pow", (Fraction(16), 8, place), "sixteen")
    n = rng.randint(2, 12)
    b = _rand_rational(rng, -9, 9)
    return ("pow", (b ** n, n, rng.choice(PRIMES + ["inf"])), "power")


# --------------------------------------------------------------------------
# cli: short invocations

MU8_DOC = {
    "order": 4,
    "table": [0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0],
    "invariant_factors": [8],
    "action": {"0": [1], "1": [3], "2": [5], "3": [7]},
    "chi": {"0": 1, "1": 3, "2": 5, "3": 7},
    "designated": {"2": [0, 1, 2, 3], "inf": [0, 3]},
    "archimedean": ["inf"],
}


def _mu8_with(path, value):
    """The mu8 document with the field at `path` (a key list) replaced, or
    removed when value is None."""
    doc = json.loads(json.dumps(MU8_DOC))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(doc)


_TABLE_WITH_LIST = MU8_DOC["table"][:5] + [[1]] + MU8_DOC["table"][6:]

# (name, document text, known_crash).  The known crashes are the documents
# that reach a Python exception (exit 1 with a traceback) or are accepted
# (exit 0) at the time of writing; the others exit 2 cleanly.
MALFORMED_DOCS = (
    ("table_entry_list", _mu8_with(["table"], _TABLE_WITH_LIST), True),
    ("action_entry_null", _mu8_with(["action", "1"], [None]), True),
    ("invariant_factor_text", _mu8_with(["invariant_factors"], ["abc"]), True),
    ("designated_scalar", _mu8_with(["designated", "inf"], 5), True),
    ("designated_out_of_range", _mu8_with(["designated", "inf"], [0, 99]), True),
    ("order_bool", json.dumps({"order": True, "table": [0], "invariant_factors": [2],
                               "action": {"0": [1]}, "designated": {"2": [0]}}), True),
    ("missing_table", _mu8_with(["table"], None), False),
    ("short_table", _mu8_with(["table"], [0, 1]), False),
    ("not_a_subgroup", _mu8_with(["designated", "inf"], [0, 1, 2]), False),
    ("archimedean_too_big", _mu8_with(["designated", "inf"], [0, 1, 2, 3]), False),
    ("action_not_homomorphism", _mu8_with(["action", "1"], [5]), False),
    ("factors_not_a_chain", _mu8_with(["invariant_factors"], [4, 2]), False),
    ("not_an_object", "[1, 2, 3]", False),
    ("not_json", "{nope", False),
)

MALFORMED_ARGS = (
    ("power", "--a", "0", "--n", "2", "--p", "3"),
    ("power", "--a", "2", "--n", "2", "--p", "4"),
    ("hilbert", "--a", "1/0", "--b", "3", "--p", "5"),
    ("gw", "--n", "1", "--places", "2"),
    ("ec-div", "--curve=1,1,2", "--point", "inf", "--k", "1", "--place", "3"),
    ("hasse", "--input", "{mu8}", "--t", "9"),
    ("quadroots", "--quadratics", ";", "--place", "5"),
    ("frobnicate",),
)


CLI_MODELS = 12            # random models written at set-up, besides mu8
MALFORMED_EVERY = 10       # every 10th invocation is malformed


def cli_plan(seed, n_ops):
    """(documents to write at set-up as name -> JSON text, invocations).

    Every MALFORMED_EVERY-th invocation is malformed.  These walk through
    MALFORMED_DOCS (given to `hasse`) and MALFORMED_ARGS with the known
    crashes spread evenly among them, so every stretch of the plan has about
    the same share of known crashes.  The others draw, with repeats, from a
    pool of valid invocations over every subcommand except reproduce and
    sweeps, on models with |M|^|G| <= 2^12.  An argument "{name}" stands for
    the path of document `name`.
    """
    rng = random.Random("cli-%d" % seed)
    maker = ModelMaker(rng)
    docs = {"mu8": json.dumps(MU8_DOC)}
    for i in range(CLI_MODELS):
        name = GROUP_NAMES[i % len(GROUP_NAMES)]
        order = maker.groups[name][0].order
        small = [s for s in SHAPES if _order(s) ** order <= 2 ** 12]
        docs["model%d" % i] = json.dumps(maker.model(name, rng.choice(small))[0])
    crashes, clean = [], []
    for name, text, crash in MALFORMED_DOCS:
        docs["bad_" + name] = text
        (crashes if crash else clean).append(
            {"args": ["hasse", "--input", "{bad_%s}" % name],
             "expect": "reject", "known_crash": crash})
    clean += [{"args": list(args), "expect": "reject", "known_crash": False}
              for args in MALFORMED_ARGS]
    rng.shuffle(crashes)
    rng.shuffle(clean)
    n_crash, total = len(crashes), len(crashes) + len(clean)
    # the j-th malformed invocation is a crash when j * n_crash / total
    # passes an integer, which spaces the crashes evenly
    malformed = [crashes.pop() if (j + 1) * n_crash // total > j * n_crash // total
                 else clean.pop() for j in range(total)]
    pool = _valid_invocations(rng, ["mu8"] + ["model%d" % i for i in range(CLI_MODELS)])
    plan = []
    for i in range(n_ops):
        if i % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            plan.append(malformed[(i // MALFORMED_EVERY) % len(malformed)])
        else:
            plan.append(rng.choice(pool))
    return docs, plan


def _valid_invocations(rng, doc_names):
    """Valid invocations.  'expect' is the exit code the answer must give
    when the input was built to have a known answer ('yes' 0, 'no' 1) and
    'any' otherwise; every report must agree with its own exit code."""
    pool = []
    for name in doc_names:
        pool.append({"args": ["h1", "--input", "{%s}" % name], "expect": "yes"})
        pool.append({"args": ["h1star", "--input", "{%s}" % name], "expect": "yes"})
        pool.append({"args": ["hasse", "--input", "{%s}" % name], "expect": "any"})
    pool.append({"args": ["hasse", "--input", "{mu8}", "--t", "2", "--t", "2,inf"],
                 "expect": "no"})
    for _ in range(6):
        t = ",".join(str(p) for p in sorted(rng.sample((2, 3, 5, 7), rng.randint(0, 2))))
        pool.append({"args": ["gw", "--n", str(rng.randint(2, 64)), "--places", t],
                     "expect": "yes"})
    for _ in range(6):
        n = rng.randint(2, 9)
        b = _rand_rational(rng, 1, 9)
        pool.append({"args": ["power", "--a=" + fmt(b ** n), "--n", str(n),
                              "--p", str(rng.choice(PRIMES[:30]))], "expect": "yes"})
    pool.append({"args": ["power", "--a", "16", "--n", "8", "--p", "7"], "expect": "yes"})
    pool.append({"args": ["power", "--a", "16", "--n", "8", "--p", "2"], "expect": "no"})
    for _ in range(6):
        a = _rand_rational(rng, -30, 30)
        b = _rand_rational(rng, -30, 30)
        pool.append({"args": ["hilbert", "--a=" + fmt(a), "--b=" + fmt(b),
                              "--p", str(rng.choice(PRIMES[:10] + ["inf"]))],
                     "expect": "yes"})
    for _ in range(4):
        curve, _, two = curve_with_point(rng)
        pool.append({"args": ["ec-div", "--curve=%d,%d,%d" % curve,
                              "--point=%s,%s" % (fmt(two[0]), fmt(two[1])),
                              "--k", "1", "--place", str(rng.choice(PRIMES[:40] + ["inf"]))],
                     "expect": "yes"})
    pool.append({"args": ["ec-div", "--curve=-15,5,10", "--point", "1561/144,19459/1728",
                          "--k", "2", "--place", "2"], "expect": "no"})
    for _ in range(4):
        r = rng.randint(1, 20)
        pool.append({"args": ["quadroots", "--quadratics=0,%d;1,1" % (-r * r),
                              "--place", str(rng.choice(PRIMES[:20] + ["inf"]))],
                     "expect": "yes"})
    for item in pool:
        item["known_crash"] = False
    return pool


def fmt(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
