"""Local-global machinery over a Chebotarev place model.

A PlaceModel carries finitely many labeled places with explicit
decomposition subgroups plus the guarantee that every cyclic subgroup
occurs as the decomposition group of infinitely many unlabeled places.
This is exactly the structure that makes the kernel-of-restriction groups
finitely computable: generic places contribute the cyclic-subgroup
conditions, labeled places their designated subgroups.
"""

from __future__ import annotations

from itertools import chain, repeat

from .abelian import Subgroup, subgroup_from_generators, subgroup_intersection
# h1 is not called here: perfbench's tracer test checks that it rebinds models.h1
from .cohomology import (CocycleClass, H1Subgroup, h1, h1_star,  # noqa: F401
                         joint_restriction_kernel, subgroup_to_h1subgroup)
from .errors import InputError, SelfCheckError
from .gmodules import CyclotomicData, GModule, dual_module
from .groups import generic_places
from .value import Value


class PlaceModel(Value):
    """Finite Galois module plus designated decomposition data.

    designated maps place labels to subgroups (element tuples) of the
    module's group; archimedean labels must carry subgroups of order at
    most 2.  cyclic holds the generic places, which the group walks once
    and keeps (`groups.generic_places`).  Labels are read with str() here.
    """

    __slots__ = ("module", "designated", "archimedean", "labels", "cyclic", "support_bound")
    _compare = ("module", "designated", "archimedean")

    def __init__(self, module: GModule, designated, archimedean):
        pairs = designated.items() if isinstance(designated, dict) else designated
        # sorted ((label, elements), ...)
        designated = tuple(sorted([(str(k), tuple(sorted(set(v)))) for k, v in pairs]))
        archimedean = frozenset(map(str, archimedean))
        grp = module.group
        cyclic = generic_places(grp)
        # sets known to be subgroups skip the closure test of is_subgroup
        known = set(cyclic)
        accepted = known | {(0,), tuple(range(grp.order))}
        labels = set()
        for label, elems in designated:
            if label in labels:
                raise InputError("duplicate place label %r" % label)
            labels.add(label)
            if elems not in accepted and not grp.is_subgroup(elems):
                raise InputError("designated set at %r is not a subgroup" % label)
        subgroups = dict(designated)
        for label in archimedean:
            if label not in labels:
                raise InputError("archimedean label %r has no designated subgroup" % label)
            if len(subgroups[label]) > 2:
                raise InputError("archimedean place %r must have order <= 2" % label)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "designated", designated)
        object.__setattr__(self, "archimedean", archimedean)
        object.__setattr__(self, "labels", frozenset(labels))
        object.__setattr__(self, "cyclic", cyclic)
        # S: the labels whose designated subgroup is neither trivial nor
        # cyclic (finite_support_bound); the whole group is in S unless it
        # is cyclic, so S reads known alone
        object.__setattr__(self, "support_bound", frozenset(
            label for label, elems in designated
            if len(elems) > 1 and elems not in known))


class ShaGroup(Value):
    """Sha(V, T) for V = H1(G, M): classes trivial at every place outside T.
    excluded is the set T; support_set holds the labels where some member
    restricts nontrivially."""

    __slots__ = _compare = ("ambient", "members", "excluded", "support_set")

    @property
    def order(self) -> int:
        return self.members.order

    def is_trivial(self) -> bool:
        return self.members.is_trivial()


def sha_of_model(model: PlaceModel, T, v_generators=None) -> ShaGroup:
    """Kernel of restriction away from T: coboundary on every cyclic
    subgroup (generic places) and on every designated subgroup whose label
    is not in T.

    Sha(T) is read off Sha(T & S) (_sha_parts), and Sha(S) is H1_*, the
    same group that `h1_star` returns for the module.

    v_generators optionally restricts the ambient group from the full H1 to
    the subgroup V generated by the given coordinate vectors; the result is
    then Sha(V, T) = V intersected with the restriction kernel."""
    T = frozenset(str(x) for x in T)
    _check_labels(model, T)
    members, support = _sha_parts(model, T & model.support_bound, h1_star(model.module))
    ambient = members.ambient
    if v_generators is not None:
        v_sub = subgroup_from_generators(ambient.structure, v_generators)
        members = subgroup_to_h1subgroup(
            ambient, subgroup_intersection(members.coordinate_subgroup, v_sub))
        support = _support(model, members)
    return ShaGroup(ambient, members, T, support)


def _check_labels(model: PlaceModel, T):
    """Raise unless every label in T is a label of the model."""
    if not model.labels.issuperset(T):
        raise InputError("unknown labels in T: %s" % sorted(set(T) - model.labels))


def _sha_parts(model: PlaceModel, key: frozenset, members: H1Subgroup) -> tuple:
    """(members, support set) of Sha(K) for K = key, a subset of S, from
    members = `h1_star` of the module, looked up once by the caller.
    Sha(T) = Sha(T & S) (see finite_support_bound), and Sha(K) is cut out by
    the nontrivial cyclic subgroups and the designated subgroups of the
    labels in S - K: every other label outside K carries a trivial subgroup
    or one of the cyclic ones.

    Sha(S) is cut out by the cyclic subgroups alone, so it is Tate's H1_*,
    which `h1_star` computes once per H1 from the same subgroups in the same
    order (`groups.generic_places`), so with the same representatives.
    Sha(K) <= Sha(S) for K <= S (see finite_support_bound), so when Sha(S)
    is zero every Sha(K) is zero; only a nonzero Sha(S) takes a kernel of
    its own for each K != S."""
    S = model.support_bound
    if key != S and not members.is_trivial():
        sets = list(model.cyclic) + [elems for label, elems in model.designated
                                     if label in S and label not in key]
        members = joint_restriction_kernel(members.ambient, sets)
    return members, _support(model, members)


def _support(model: PlaceModel, members: H1Subgroup) -> frozenset:
    """The labels where some member restricts nontrivially; none without
    generators."""
    gens = members.coordinate_generators
    return frozenset(label for label, elems in model.designated
                     if not members.ambient.vanishes_on(elems, gens)) if gens else frozenset()


def _subgroups_equal(a: Subgroup, b: Subgroup) -> bool:
    return a.order == b.order and all(b.contains(g) for g in a.generators)


class Verdict(Value):
    """Definition-style verdicts for a model, with failure witnesses.

    strong_hasse implies hasse, and strong_hasse holds exactly when hasse
    holds and no queried-or-possible T is singular; both are enforced
    internally.  t_singular is ((sorted label tuple, bool), ...) and
    witnesses is ((kind, labels, CocycleClass), ...).
    """

    __slots__ = _compare = ("hasse", "strong_hasse", "t_singular", "witnesses")

    def singular(self, T) -> bool:
        key = tuple(sorted(str(x) for x in T))
        for labels, value in self.t_singular:
            if labels == key:
                return value
        raise InputError("T was not among the queried sets")


def verdict(model: PlaceModel, queries) -> Verdict:
    """hasse <=> Sha(empty) = 0; strong_hasse <=> Sha(all labels) = 0 (the
    cyclic-restriction reduction); T-singular <=> the support set of Sha(T)
    meets T, i.e. some member restricts nontrivially at a place of T.

    Each T is answered from K = T & S: Sha(T) = Sha(K) (see
    finite_support_bound), and the support set of Sha(K) lies inside K, so
    inside T.  Hence T is singular iff Sha(K) has a nonempty support set,
    and each distinct K takes one Sha group and at most one witness search.
    H1_* is looked up once; the labels of all queries are checked as one
    set, and query by query only to name the first that fails.  A zero
    H1_* answers at once: every Sha(T) lies in Sha(S) = H1_*, so is zero."""
    S = model.support_bound
    keys = [tuple(sorted(map(str, T))) for T in queries]
    if not model.labels.issuperset(chain.from_iterable(keys)):
        for key in keys:
            _check_labels(model, key)
    star = h1_star(model.module)
    if star.is_trivial():
        return Verdict(True, True, tuple(zip(keys, repeat(False))), ())
    parts = [S.intersection(key) for key in keys] if S else [S] * len(keys)
    shas = {}
    for K in dict.fromkeys([frozenset(), S] + parts):
        members, support = _sha_parts(model, K, star)
        shas[K] = ShaGroup(members.ambient, members, K, support)
    sha_empty = shas[frozenset()]
    sha_all = shas[S]
    hasse = sha_empty.is_trivial()
    strong = sha_all.is_trivial()
    witnesses = []
    if not hasse:
        witnesses.append(("hasse", (), _nonzero_witness(sha_empty)))
    if not strong:
        witnesses.append(("strong_hasse", (), _nonzero_witness(sha_all)))
    nonsingular = _subgroups_equal(sha_all.members.coordinate_subgroup,
                                   sha_empty.members.coordinate_subgroup)
    if strong != (hasse and nonsingular):
        raise SelfCheckError("verdict invariant violated")
    found = {K: _singular_witness(model, shas[K]) for K in dict.fromkeys(parts)}
    wits = list(map(found.__getitem__, parts))
    witnesses += [("t_singular", key, wit) for key, wit in zip(keys, wits) if wit is not None]
    return Verdict(hasse, strong, tuple([(key, wit is not None) for key, wit in zip(keys, wits)]),
                   tuple(witnesses))


def _nonzero_witness(sha: ShaGroup) -> CocycleClass:
    return min((c for coords, c in sha.members.all_classes() if any(coords)),
               key=CocycleClass.flat)


def _singular_witness(model: PlaceModel, sha: ShaGroup) -> CocycleClass | None:
    """Lexicographically least member of Sha(K) restricting nontrivially at
    some place of K, or None.  Only the places in support_set are tested:
    the support holds every place where some generator, so some member,
    does, and it lies inside K (see finite_support_bound)."""
    if not sha.support_set:
        return None
    targets = [elems for label, elems in model.designated if label in sha.support_set]
    hits = (c for coords, c in sha.members.all_classes()
            if not all(sha.ambient.vanishes_on(elems, [coords]) for elems in targets))
    return min(hits, key=CocycleClass.flat, default=None)


def finite_support_bound(model: PlaceModel) -> frozenset:
    """S = labels with non-cyclic designated subgroup: neither trivial nor
    among the model's cyclic subgroups (PlaceModel.cyclic).

    Sha(T) is cut out by one restriction condition per nontrivial cyclic
    subgroup (the generic places) and one per designated subgroup whose
    label is not in T.  Two identities follow, for all label sets T, T':

    - Sha(T) = Sha(T & S).  A label outside S carries a trivial subgroup,
      whose condition every class meets, or a nontrivial cyclic subgroup,
      which is one of the generic ones and so imposes its condition for
      every T.  Adding such labels to T or removing them leaves the
      conditions as they are.
    - Sha(T) <= Sha(T') when T <= T'.  The labels outside T' are among
      those outside T, so Sha(T') is cut out by fewer conditions.

    Hence Sha(T) <= Sha(S) for every T, and Sha(T) = Sha(empty) whenever T
    misses S; when the model satisfies the Hasse principle, Sha(T) = 0 for
    every such T.  Every Sha(T) of the model is one of the 2^|S| groups
    Sha(K), K <= S.

    The support set of Sha(K), the labels where some member restricts
    nontrivially, lies inside K.  Every member of Sha(K) restricts trivially
    at a label outside K: at a trivial subgroup every class does, at a
    nontrivial cyclic one it meets the generic condition, and a label in
    S - K imposes its own condition on Sha(K).  So T is singular iff Sha(T & S)
    has a nonempty support set (verdict).
    """
    return model.support_bound


# ---------------------------------------------------------------------------
# weak approximation verdicts (Corollary-style, dual side)


class WeakApproxVerdict(Value):
    """witnesses is ((place string, target, constructed rational), ...)."""

    __slots__ = _compare = ("surjective", "reason", "dual", "witnesses")


def weak_approx_verdict(model: PlaceModel, chi: CyclotomicData, T) -> WeakApproxVerdict:
    """Surjectivity of restriction for the dual module at T: holds exactly
    when H1 of the original module is not T-singular.

    For the exponent-2 self-dual case with place-like labels, surjectivity
    is additionally demonstrated by rationals hitting a generating set of
    the local square-class groups, each verified by the exact local square
    test."""
    T = frozenset(str(x) for x in T)
    v = verdict(model, [T])
    singular = v.singular(T)
    dual = dual_module(model.module, chi)
    if singular:
        return WeakApproxVerdict(False, "H1 of the module is T-singular at T=%s"
                                 % sorted(T), dual, ())
    if not T:
        return WeakApproxVerdict(True, "empty product", dual, ())
    witnesses = ()
    if chi.modulus == 2 and model.module.space.invariant_factors == (2,):
        places = _parse_places(model, T)
        if places is not None:
            witnesses = tuple(_square_class_witnesses(places))
    return WeakApproxVerdict(True, "Sha(T) restricts trivially on T", dual, witnesses)


def _parse_places(model: PlaceModel, T):
    from .padics import Place
    out = []
    for label in sorted(T):
        if label in model.archimedean:
            out.append(Place.real())
            continue
        try:
            out.append(Place.finite(int(label)))
        except (ValueError, InputError):
            return None
    return out


def _local_square_class_generators(place: Place):
    from fractions import Fraction

    from .arith import legendre_symbol
    if place.is_real:
        return [Fraction(-1)]
    p = place.prime
    if p == 2:
        return [Fraction(3), Fraction(5), Fraction(2)]
    u = 2
    while legendre_symbol(u, p) != -1:
        u += 1
    return [Fraction(u), Fraction(p)]


def _square_class_witnesses(places):
    from fractions import Fraction

    from .padics import square_class_approximate
    for v0 in places:
        for gen in _local_square_class_generators(v0):
            targets = {v: (gen if v == v0 else Fraction(1)) for v in places}
            x = square_class_approximate(targets)
            yield (str(v0), gen, x)
