import random
from fractions import Fraction
from math import isclose

import pytest

from locglob import elliptic
from locglob.arith import is_prime
from locglob.elliptic import (MAX_K, Curve, CurvePoint, divisible_by_2k,
                              group_law, halve_point, negate, points_equal,
                              propagation_check, quad_local_roots, scalar_mul)
from locglob.errors import InputError
from locglob.padics import PadicNumber, Place
from locglob.reproduce import duplication_x
from search_oracles import propagation_by_torsion_translates, reduced_divisible_by_2k

DZ = Curve(Fraction(-15), Fraction(5), Fraction(10))
DZ_P = DZ.point(Fraction(1561, 144), Fraction(19459, 1728))
TRIPLE = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(5)),
          (Fraction(0), Fraction(-5)))

ODD_PRIMES_100 = [p for p in range(3, 100) if is_prime(p)]
PRIMES_200 = [p for p in range(2, 200) if is_prime(p)]
SCALES = [Fraction(1, 100), Fraction(1, 10), Fraction(10), Fraction(100)]


def _dz_scaled(u):
    """DZ and DZ_P under (x, y) -> (u^2 x, u^3 y), an isomorphism over Q."""
    curve = Curve(*(e * u * u for e in DZ.roots))
    return curve, curve.point(DZ_P.x * u * u, DZ_P.y * u ** 3)


def _random_rational_points(curve, rng, count):
    """Random points generated from the known rational points by the group
    law, so associativity checks run on honest curve data."""
    base = [DZ_P] + curve.two_torsion()[1:]
    out = []
    while len(out) < count:
        p = curve.infinity()
        for _ in range(rng.randrange(1, 4)):
            q = rng.choice(base)
            if rng.random() < 0.5:
                q = negate(q)
            p = group_law(curve, p, q)
        out.append(p)
    return out


def test_curve_validation():
    with pytest.raises(InputError):
        Curve(Fraction(1), Fraction(1), Fraction(2))
    with pytest.raises(InputError):
        DZ.point(Fraction(0), Fraction(1))


def test_halving_a_point_off_the_curve_is_an_input_error():
    off = CurvePoint(Fraction(1561, 144), Fraction(1))
    for place in (None, Place.real(), Place.finite(7)):
        with pytest.raises(InputError):
            halve_point(DZ, off, place)
    # the floats of a real half are for display; no float point is input
    half = halve_point(DZ, DZ_P, Place.real())[0]
    with pytest.raises(InputError):
        halve_point(DZ, half, Place.real())
    with pytest.raises(InputError):
        divisible_by_2k(DZ, half, 1, Place.real())


def test_group_law_identity_and_inverse():
    assert points_equal(group_law(DZ, DZ_P, DZ.infinity()), DZ_P)
    assert group_law(DZ, DZ_P, negate(DZ_P)).infinity
    t = DZ.point(Fraction(-15), Fraction(0))
    assert scalar_mul(DZ, 2, t).infinity
    assert negate(DZ.infinity()).infinity
    for k in (1, 2, 3):
        assert points_equal(scalar_mul(DZ, -k, DZ_P), negate(scalar_mul(DZ, k, DZ_P)))


def test_a_rational_point_equals_its_padic_image_from_either_side():
    # coordinates compare to the p-adic operand's precision, whichever
    # point holds it
    local = CurvePoint(*(PadicNumber.from_rational(c, 3, 20) for c in (DZ_P.x, DZ_P.y)))
    assert points_equal(DZ_P, local) and points_equal(local, DZ_P)
    assert not points_equal(negate(DZ_P), local)


def test_group_law_associativity_spot_checks():
    rng = random.Random(8)
    pts = _random_rational_points(DZ, rng, 12)
    for _ in range(25):
        a, b, c = (rng.choice(pts) for _ in range(3))
        lhs = group_law(DZ, group_law(DZ, a, b), c)
        rhs = group_law(DZ, a, group_law(DZ, b, c))
        assert points_equal(lhs, rhs)


def test_halve_origin_gives_torsion_fiber():
    fiber = halve_point(DZ, DZ.infinity())
    assert len(fiber) == 4
    assert sorted(str(q.x) for q in fiber if not q.infinity) == ["-15", "10", "5"]


def test_global_halves_frozen_values():
    # derived by exact rational square roots and verified by doubling:
    # x(P) - e_i are (61/12)^2, (29/12)^2, (11/12)^2
    assert (DZ_P.x - DZ.e1) == Fraction(3721, 144) == Fraction(61, 12) ** 2
    assert (DZ_P.x - DZ.e2) == Fraction(841, 144) == Fraction(29, 12) ** 2
    assert (DZ_P.x - DZ.e3) == Fraction(121, 144) == Fraction(11, 12) ** 2
    halves = halve_point(DZ, DZ_P)
    xs = sorted(str(h.x) for h in halves)
    assert xs == ["-35/9", "1", "30", "65/4"]
    for h in halves:
        assert points_equal(scalar_mul(DZ, 2, h), DZ_P)
        assert duplication_x(DZ, h.x) == DZ_P.x


def test_halves_double_back_locally():
    for p in (3, 5, 17):
        place = Place.finite(p)
        halves = halve_point(DZ, DZ_P, place)
        assert halves
        for h in halves:
            doubled = group_law(DZ, h, h)
            assert (doubled.x - DZ_P.x).is_zero
            assert (doubled.y - DZ_P.y).is_zero


def test_no_second_halving_at_two():
    halves = halve_point(DZ, DZ_P, Place.finite(2))
    assert len(halves) == 4
    for h in halves:
        assert halve_point(DZ, h, Place.finite(2)) == []


def test_divisibility_table_small():
    for p in ODD_PRIMES_100:
        assert divisible_by_2k(DZ, DZ_P, 2, Place.finite(p))
    assert not divisible_by_2k(DZ, DZ_P, 2, Place.finite(2))
    assert divisible_by_2k(DZ, DZ_P, 2, Place.real())
    assert divisible_by_2k(DZ, DZ.infinity(), 7, Place.finite(2))


def test_global_implies_local():
    # 4 * DZ_P is divisible by 4 globally; check the implication at many places
    q = scalar_mul(DZ, 4, DZ_P)
    assert divisible_by_2k(DZ, q, 2, None)
    for p in ODD_PRIMES_100:
        assert divisible_by_2k(DZ, q, 2, Place.finite(p))
    assert divisible_by_2k(DZ, q, 2, Place.finite(2))
    assert divisible_by_2k(DZ, q, 2, Place.real())


def test_two_divisibility_square_criterion():
    # for P not 2-torsion, halvable at v iff all x(P) - e_i are squares in Q_v
    from locglob.padics import is_nth_power
    rng = random.Random(31)
    pts = [p for p in _random_rational_points(DZ, rng, 10) if not p.infinity
           and p.y != 0]
    for pt in pts:
        for p in (2, 3, 5, 7, 11):
            place = Place.finite(p)
            expect = all(is_nth_power(pt.x - e, 2, place) if pt.x != e else True
                         for e in DZ.roots)
            got = bool(halve_point(DZ, pt, place))
            assert got == expect, (pt, p)


def test_halving_two_torsion():
    # (10, 0): x - e_i = (25, 5, 0); the zero square root collapses the
    # sign patterns and the fiber solvability is governed by 5
    t = DZ.point(Fraction(10), Fraction(0))
    assert halve_point(DZ, t) == []                       # 5 is not a rational square
    assert halve_point(DZ, t, Place.finite(5)) == []      # odd valuation
    from search_oracles import is_square_mod_prime_brute
    assert is_square_mod_prime_brute(5, 41)
    local = halve_point(DZ, t, Place.finite(41))
    assert len(local) == 4
    for h in local:
        doubled = group_law(DZ, h, h)
        assert (doubled.x - t.x).is_zero and (doubled.y - t.y).is_zero
    # over R the fiber splits across both components
    real = halve_point(DZ, t, Place.real())
    assert len(real) == 4
    assert sorted(round(h.x, 3) for h in real) == [-1.18, -1.18, 21.18, 21.18]
    egg = DZ.point(Fraction(-15), Fraction(0))
    assert halve_point(DZ, egg, Place.real()) == []


def test_square_test_counts_zero_as_a_square():
    # at a 2-torsion point one x(T) - e_i is zero, and the square test on
    # the other two must agree with the halves that halve_point finds: four
    # or none at every place, R included, on DZ and its scalings (where the
    # real halves of the 1/100 scaling have y^2 below 1e-6) and on a curve
    # whose real halves of (-26, 0) lie hundreds apart
    places = [Place.finite(p) for p in PRIMES_200] + [Place.real(), None]
    cases = []
    for curve, p in [_dz_scaled(u) for u in [1] + SCALES]:
        cases.append((curve, [p, scalar_mul(curve, 2, p), scalar_mul(curve, 3, p)]
                      + curve.two_torsion()[1:]))
    wide = Curve(-27, -26, -58778)
    cases.append((wide, wide.two_torsion()[1:]))
    verdicts = set()
    for curve, points in cases:
        for pt in points:
            for place in places:
                got = divisible_by_2k(curve, pt, 1, place)
                assert len(halve_point(curve, pt, place)) == 4 * got, (curve, pt, place)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_real_halves_match_the_rational_halves():
    # on DZ and its scalings the halves of P, 2P and 3P are rational: each
    # real half has the y sign of its rational half exactly and its
    # coordinates to float accuracy (a bound of this test alone)
    for u in [1] + SCALES:
        curve, p = _dz_scaled(u)
        for pt in (p, scalar_mul(curve, 2, p), scalar_mul(curve, 3, p)):
            exact = sorted(halve_point(curve, pt), key=lambda h: (h.x, h.y))
            real = sorted(halve_point(curve, pt, Place.real()), key=lambda h: (h.x, h.y))
            assert len(exact) == len(real) == 4, (u, pt)
            for q, h in zip(exact, real):
                assert (h.y > 0) == (q.y > 0), (u, pt, q)
                assert isclose(h.x, q.x, rel_tol=1e-12), (u, pt, q)
                assert isclose(h.y, q.y, rel_tol=1e-12), (u, pt, q)


def test_real_divisibility_component_rule():
    egg_point = DZ.point(Fraction(-15), Fraction(0))   # leftmost root: egg
    assert not divisible_by_2k(DZ, egg_point, 1, Place.real())
    top = DZ.point(Fraction(10), Fraction(0))
    assert divisible_by_2k(DZ, top, 1, Place.real())
    assert divisible_by_2k(DZ, DZ_P, 3, Place.real())


def test_halving_completeness_local():
    # halving 2Q must recover Q: random local points, several curves and
    # primes, so missed sign patterns would surface as divisibility
    # false negatives
    from locglob.elliptic import CurvePoint
    from locglob.padics import PadicNumber
    rng = random.Random(31337)
    curves = [DZ, Curve(Fraction(0), Fraction(1), Fraction(-1)),
              Curve(Fraction(-2), Fraction(3), Fraction(7))]
    total = 0
    for curve in curves:
        for p in (3, 5, 7, 2):
            place = Place.finite(p)
            tries = 0
            pts = []
            while len(pts) < 4 and tries < 300:
                tries += 1
                x = Fraction(rng.randrange(-40, 40), rng.randrange(1, 12))
                if x in curve.roots:
                    continue
                rhs = PadicNumber.from_rational(curve.rhs(x), p, 64)
                if rhs.is_zero or not rhs.is_square():
                    continue
                pts.append(CurvePoint(PadicNumber.from_rational(x, p, 64),
                                      rhs.sqrt(), False))
            for q in pts:
                twice = group_law(curve, q, q)
                if twice.infinity:
                    continue
                halves = halve_point(curve, twice, place)
                assert any(points_equal(h, q) for h in halves)
                total += 1
    assert total >= 30


def _curve_through_a_point(rng):
    """A random curve y^2 = (x - e1)(x - e2)(x - e3) with a rational point
    (x0, y0): e3 is chosen so that x0 - e3 = s^2 (x0 - e1)(x0 - e2)."""
    while True:
        e1, e2, x0 = (Fraction(rng.randrange(-30, 31)) for _ in range(3))
        s = Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
        e3 = x0 - s * s * (x0 - e1) * (x0 - e2)
        if len({e1, e2, e3, x0}) == 4:
            curve = Curve(e1, e2, e3)
            return curve, curve.point(x0, s * (x0 - e1) * (x0 - e2))


def test_lazy_descent_matches_the_whole_halving_tree():
    # the descent stops at the first half that descends; the reference
    # halves every half to the full depth
    from search_oracles import halving_depth
    rng = random.Random(2024)
    cases = [(DZ, [DZ_P] + [group_law(DZ, DZ_P, t) for t in DZ.two_torsion()[1:]]
              + [scalar_mul(DZ, 2, DZ_P), scalar_mul(DZ, 4, DZ_P)])]
    for _ in range(3):
        curve, q = _curve_through_a_point(rng)
        cases.append((curve, [q] + [group_law(curve, q, t) for t in curve.two_torsion()[1:]]
                      + [scalar_mul(curve, 2, q)]))
    places = [Place.finite(p) for p in PRIMES_200] + [Place.real(), None]
    fiber_sizes = []
    mismatches = []
    verdicts = set()
    for curve, points in cases:
        for pt in points:
            assert not scalar_mul(curve, 2, pt).infinity
            for place in places:
                depth = halving_depth(curve, pt, 3, place, fiber_sizes)
                for k in (1, 2, 3):
                    got = divisible_by_2k(curve, pt, k, place)
                    verdicts.add((k, got))
                    if got != (depth >= k):
                        mismatches.append((curve, pt, place, k))
    assert mismatches == []
    assert verdicts == {(k, v) for k in (1, 2, 3) for v in (True, False)}
    assert set(fiber_sizes) == {0, 4}


def _good_odd_primes(curve, bound):
    """The odd primes below bound where every root is integral and the
    roots stay distinct."""
    out = []
    for p in range(3, bound, 2):
        if is_prime(p) and all(e.denominator % p for e in curve.roots) \
                and len({e.numerator * pow(e.denominator, -1, p) % p
                         for e in curve.roots}) == 3:
            out.append(p)
    return out


def test_divisibility_at_good_primes_matches_the_reduced_group():
    # at a good odd prime, P is in 2^k E(Q_p) iff its reduction is in
    # 2^k E~(F_p); the oracle enumerates E~(F_p), so this checks the depth
    # cap (k up to s_p + 3), the k = 1 square test and the last level
    from search_oracles import reduced_divisible_by_2k
    rng = random.Random(1615)
    cases = [(DZ, [DZ_P] + [scalar_mul(DZ, m, DZ_P) for m in (2, 3, 4)]
              + [group_law(DZ, DZ_P, t) for t in DZ.two_torsion()[1:]])]
    for _ in range(2):
        curve, q = _curve_through_a_point(rng)
        cases.append((curve, [q, group_law(curve, q, curve.two_torsion()[1])]))
    mismatches = []
    verdicts = set()
    for curve, points in cases:
        for p in _good_odd_primes(curve, 200):
            cap = elliptic._depth_cap(p)
            for pt in points:
                for k in range(1, cap + 4):
                    got = divisible_by_2k(curve, pt, k, Place.finite(p))
                    verdicts.add((k > cap, got))
                    if got != reduced_divisible_by_2k(curve, pt, k, p):
                        mismatches.append((curve, pt, p, k))
    assert mismatches == []
    assert verdicts == {(deep, v) for deep in (True, False) for v in (True, False)}


def _reduction_kind(curve, pt, p):
    """How a rational point reduces mod p: to the origin, to a 2-torsion
    point, to an affine point with some x - e_i = 0 mod p but y != 0 (a
    zero residue that is not 2-torsion over Q), or generically."""
    if pt.x.denominator % p == 0:
        return "origin"
    if pt.y == 0:
        return "torsion"
    if any((pt.x - e).numerator % p == 0 for e in curve.roots):
        return "zero residue"
    return "generic"


def test_residue_test_matches_the_square_test_and_the_reduced_group():
    # k = 1 on a rational point at a good odd prime reads residues mod p;
    # the p-adic square test and the enumerated E~(F_p) must agree with it
    from search_oracles import reduced_divisible_by_2k
    rng = random.Random(2511)
    torsion = DZ.two_torsion()[1:]
    cases = [(DZ, [DZ_P, scalar_mul(DZ, 2, DZ_P), scalar_mul(DZ, 3, DZ_P)]
              + [group_law(DZ, DZ_P, t) for t in torsion] + torsion)]
    for _ in range(2):
        curve, q = _curve_through_a_point(rng)
        cases.append((curve, [q, scalar_mul(curve, 3, q)] + curve.two_torsion()[1:]))
    assert [_reduction_kind(DZ, DZ_P, p) for p in (3, 11, 29, 61, 7)] == [
        "origin", "zero residue", "zero residue", "zero residue", "generic"]
    mismatches = []
    verdicts = set()
    kinds = set()
    for curve, points in cases:
        for p in _good_odd_primes(curve, 200):
            place = Place.finite(p)
            for pt in points:
                got = divisible_by_2k(curve, pt, 1, place)
                squares = all(elliptic._is_square(pt.x - e, place) for e in curve.roots)
                if not got == squares == reduced_divisible_by_2k(curve, pt, 1, p):
                    mismatches.append((curve, pt, p))
                verdicts.add(got)
                kinds.add(_reduction_kind(curve, pt, p))
    assert mismatches == []
    assert verdicts == {True, False}
    assert kinds == {"origin", "torsion", "zero residue", "generic"}


def test_residue_test_calls_no_power_test(monkeypatch):
    # k = 1 at a good odd prime decides mod p; p = 2 and the bad prime 5
    # still take the p-adic square test
    def refuse(*args):
        raise RuntimeError("is_nth_power called")
    monkeypatch.setattr(elliptic, "is_nth_power", refuse)
    answers = {divisible_by_2k(DZ, DZ_P, 1, Place.finite(p))
               for p in _good_odd_primes(DZ, 200)}
    assert answers == {True}
    for p in (2, 5):
        with pytest.raises(RuntimeError, match="is_nth_power called"):
            divisible_by_2k(DZ, DZ_P, 1, Place.finite(p))


def _gate_cases():
    """DZ with P, 3P and the translates P + T, and two seeded curves with a
    point and its translates: points that the residue test refuses at some
    good odd primes and accepts at others."""
    rng = random.Random(3030)
    torsion = DZ.two_torsion()[1:]
    cases = [(DZ, [DZ_P, scalar_mul(DZ, 3, DZ_P)] + [group_law(DZ, DZ_P, t) for t in torsion])]
    for _ in range(2):
        curve, q = _curve_through_a_point(rng)
        cases.append((curve, [q] + [group_law(curve, q, t) for t in curve.two_torsion()[1:]]))
    return cases


def test_the_residue_gate_skips_the_descent(monkeypatch):
    # at a good odd prime a rational point whose reduction is not in
    # 2E~(F_p) lies in no 2^k E(Q_p): no halving is taken for any k.  p = 2
    # and the bad prime 5 still descend
    def refuse(f, p):
        raise RuntimeError("_halve_affine called")
    monkeypatch.setattr(elliptic, "_halve_affine", refuse)
    refused = 0
    for curve, points in _gate_cases():
        for p in _good_odd_primes(curve, 200):
            place = Place.finite(p)
            for pt in points:
                if reduced_divisible_by_2k(curve, pt, 1, p):
                    continue
                refused += 1
                for k in range(1, elliptic._depth_cap(p) + 2):
                    assert divisible_by_2k(curve, pt, k, place) is False, (p, k)
    assert refused >= 100, refused
    plus_t = group_law(DZ, DZ_P, DZ.two_torsion()[1])
    for p in (2, 5):
        place = Place.finite(p)
        with pytest.raises(RuntimeError, match="_halve_affine called"):
            divisible_by_2k(DZ, plus_t, 2, place)


def _change_model(curve, pt, u, c):
    """curve and pt under (x, y) -> (u^2 (x + c), u^3 y), an isomorphism
    over Q for integers u != 0 and c; the roots move to u^2 (e_i + c)."""
    moved = Curve(*(u * u * (e + c) for e in curve.roots))
    return moved, moved.point(u * u * (pt.x + c), u ** 3 * pt.y)


def test_divisibility_is_invariant_under_change_of_model():
    # 2^k-divisibility is a property of the point, not of the model.  The
    # two least good odd primes of the original model divide one u and are
    # bad primes of the new model, so there the residue gate of one model
    # meets the p-adic descent of the other
    places = [Place.finite(p) for p in PRIMES_200] + [Place.real(), None]
    mismatches = []
    compared = 0
    gate_against_descent = set()
    for curve, points in _gate_cases():
        pt = points[0]
        first, second = _good_odd_primes(curve, 200)[:2]
        for u, c in ((1, 7), (first * second, -2), (-2, 1)):
            moved, image = _change_model(curve, pt, u, c)
            for place in places:
                crossed = (elliptic._good_residues(curve, place) is not None
                           and elliptic._good_residues(moved, place) is None)
                for k in (1, 2, 3):
                    got = divisible_by_2k(curve, pt, k, place)
                    compared += 1
                    if got != divisible_by_2k(moved, image, k, place):
                        mismatches.append((curve, pt, u, c, place, k))
                    if crossed:
                        gate_against_descent.add(got)
    assert mismatches == []
    assert compared >= 1000 and gate_against_descent == {True, False}


def _multiples(curve, pt, count):
    """pt, 2 pt, ..., count pt, stopping before the origin."""
    out = [pt]
    while len(out) < count:
        nxt = group_law(curve, out[-1], pt)
        if nxt.infinity:
            break
        out.append(nxt)
    return out


def test_contains_is_the_curve_equation():
    # Curve.contains clears denominators into one integer identity; it must
    # agree with y^2 == rhs(x) in Fractions on and off the curve
    rng = random.Random(4099)
    cases = [(curve, _multiples(curve, pt, 20)) for curve, pt in
             [(DZ, DZ_P)] + [_dz_scaled(u) for u in SCALES]]
    while sum(len(points) for _, points in cases) < 1000:
        curve, q = _curve_through_a_point(rng)
        cases.append((curve, _multiples(curve, q, 12)
                      + [group_law(curve, q, t) for t in curve.two_torsion()[1:]]))
    on = off = 0
    for curve, points in cases:
        for pt in points:
            for q in (pt, CurvePoint(pt.x, pt.y + 1), CurvePoint(pt.x + Fraction(1, 7), pt.y)):
                equation = q.y * q.y == curve.rhs(q.x)
                assert curve.contains(q) == equation, (curve, q)
                on += q is pt
                off += not equation
    assert on >= 1000 and off == 2 * on
    # int coordinates: (1, 24) halves DZ_P, and (30, -150) is another half
    for x, y, want in ((1, 24, True), (30, -150, True), (10, 0, True),
                       (1, 25, False), (2, 0, False)):
        assert DZ.contains(CurvePoint(x, y)) == want, (x, y)
    # p-adic halves still compare to their precision
    for p in (3, 5, 17):
        halves = halve_point(DZ, DZ_P, Place.finite(p))
        assert halves and all(DZ.contains(h) for h in halves)
    with pytest.raises(InputError, match="^point is not on the curve$"):
        DZ.point(Fraction(1561, 144), Fraction(1))


def test_a_point_off_the_curve_is_refused_however_it_was_built():
    # CurvePoint skips the check of Curve.point; divisible_by_2k and
    # halve_point must still refuse the point, at every kind of place, and
    # so must an equal curve built separately for a point of another curve
    off = CurvePoint(DZ_P.x, DZ_P.y + 1)
    other = Curve(Fraction(-15), Fraction(5), Fraction(11))
    moved = other.point(Fraction(11), Fraction(0))
    for place in (Place.finite(2), Place.finite(3), Place.finite(101), Place.real(), None):
        for p in (off, moved):
            for k in (1, 2):
                with pytest.raises(InputError, match="^point is not on the curve$"):
                    divisible_by_2k(DZ, p, k, place)
            with pytest.raises(InputError, match="^point is not on the curve$"):
                halve_point(DZ, p, place)


def test_a_point_is_checked_once_by_the_curve_that_built_it(monkeypatch):
    # Curve.point records the curve object on the point; a sweep over the
    # places on that object checks membership once, in Curve.point, while an
    # equal curve built separately, or a point built directly, is checked
    # again on every call
    calls = []
    real = Curve.contains
    monkeypatch.setattr(Curve, "contains", lambda self, p: calls.append(p) or real(self, p))
    point = DZ.point(DZ_P.x, DZ_P.y)
    assert point._checked_by is DZ and point == DZ_P
    places = [Place.finite(p) for p in PRIMES_200] + [Place.real(), None]
    verdicts = [divisible_by_2k(DZ, point, k, v) for v in places for k in (1, 2)]
    halve_point(DZ, point, Place.finite(3))
    assert len(calls) == 1
    twin = Curve(*DZ.roots)
    assert twin == DZ and twin is not DZ
    bare = CurvePoint(DZ_P.x, DZ_P.y)
    for curve, p in ((twin, point), (DZ, bare)):
        calls.clear()
        assert [divisible_by_2k(curve, p, k, v) for v in places for k in (1, 2)] == verdicts
        assert len(calls) == 2 * len(places)


def test_precision_below_one_is_an_input_error():
    # k = 1 on a rational point takes the square test, which embeds nothing
    for prec in (0, -4):
        for k, place in ((2, Place.finite(3)), (1, Place.finite(3)), (1, None)):
            with pytest.raises(InputError):
                divisible_by_2k(DZ, DZ_P, k, place, prec)
        with pytest.raises(InputError):
            halve_point(DZ, DZ_P, Place.finite(3), prec)


def test_precision_above_the_ceiling_is_an_input_error():
    # 4,096 (_MAX_PRECISION), the top of the retry ladder, is the highest
    # precision accepted, over every field and on every path
    assert elliptic._MAX_PRECISION == 4096
    for k, place in ((2, Place.finite(101)), (1, Place.finite(3)), (1, Place.finite(2)),
                     (1, None), (2, Place.real())):
        with pytest.raises(InputError, match="between 1 and 4096, got 4097"):
            divisible_by_2k(DZ, DZ_P, k, place, 4097)
        with pytest.raises(InputError, match="between 1 and 4096, got 4097"):
            halve_point(DZ, DZ_P, place, 4097)
    assert divisible_by_2k(DZ, DZ_P, 2, Place.finite(101), 4096)
    assert len(halve_point(DZ, DZ_P, Place.finite(101), 4096)) == 4


def test_field_square_roots_decide_each_square_once(monkeypatch):
    # _Field.sqrt leaves the square test to PadicNumber.sqrt: one is_square
    # per nonzero p-adic argument, square or not, and none for a zero
    from locglob.padics import PadicNumber
    calls = []
    decide = PadicNumber.is_square
    monkeypatch.setattr(PadicNumber, "is_square", lambda c: calls.append(c) or decide(c))
    outcomes = set()
    root = elliptic._Field.sqrt

    def counted(f, c):
        before = len(calls)
        r = root(f, c)
        if isinstance(c, PadicNumber):
            assert len(calls) - before == (0 if c.is_zero else 1)
            outcomes.add(r is None)
        return r
    monkeypatch.setattr(elliptic._Field, "sqrt", counted)
    for p in PRIMES_200[:15]:
        halve_point(DZ, DZ_P, Place.finite(p))
        divisible_by_2k(DZ, DZ_P, 3, Place.finite(p))
    assert outcomes == {False, True}


def test_low_starting_precision_rises_to_the_same_verdict():
    # one precision loop per decision: a start far below the horizon must
    # retry the whole descent until it reaches the verdict at 64 digits
    mismatches = []
    for p in PRIMES_200:
        place = Place.finite(p)
        for k in (1, 2, 3):
            want = divisible_by_2k(DZ, DZ_P, k, place, 64)
            for prec in (1, 2, 5, 9):
                if divisible_by_2k(DZ, DZ_P, k, place, prec) != want:
                    mismatches.append((p, k, prec))
    assert mismatches == []
    for p in PRIMES_200:
        place = Place.finite(p)
        low = halve_point(DZ, DZ_P, place, 2)
        high = halve_point(DZ, DZ_P, place, 64)
        assert len(low) == len(high), p
        assert all(any(points_equal(h, q) for q in high) for h in low), p


def test_divisibility_depth_is_bounded(monkeypatch):
    with pytest.raises(InputError):
        divisible_by_2k(DZ, DZ_P, MAX_K + 1, Place.finite(3))
    with pytest.raises(InputError):
        divisible_by_2k(DZ, DZ_P, 0, Place.finite(3))
    halved = []
    halve = elliptic._halve_affine
    monkeypatch.setattr(elliptic, "_halve_affine",
                        lambda f, p: halved.append(p) or halve(f, p))
    # 3 is a good prime of DZ, where the depth is capped at 2: one halving
    assert divisible_by_2k(DZ, DZ_P, MAX_K, Place.finite(3))
    assert len(halved) == 1
    # 5 divides e2 - e3, so 5 is uncapped, and a True verdict there halves
    # at least MAX_K - 1 times, within the default recursion limit
    halved.clear()
    assert divisible_by_2k(DZ, DZ_P, MAX_K, Place.finite(5))
    assert len(halved) >= MAX_K - 1


def test_quad_local_roots():
    assert not quad_local_roots(TRIPLE, Place.finite(2))
    assert quad_local_roots(TRIPLE, Place.finite(3))
    assert quad_local_roots(TRIPLE, Place.real())
    for p in ODD_PRIMES_100:
        assert quad_local_roots(TRIPLE, Place.finite(p))
    # general quadratics via discriminant, incl. a rational double root
    assert quad_local_roots([(Fraction(2), Fraction(1))], Place.finite(7))
    assert not quad_local_roots([(Fraction(0), Fraction(1))], Place.real())


def test_propagation_examples():
    assert propagation_check(DZ, DZ.infinity(), 4, 2, Place.finite(2))
    # n = m = 1 asks whether P lies in E(Q_v)
    assert propagation_check(DZ, DZ_P, 1, 1, Place.finite(2))
    assert propagation_check(DZ, DZ_P, 4, 2, Place.finite(3))
    assert not propagation_check(DZ, DZ_P, 4, 2, Place.finite(2))
    with pytest.raises(InputError):
        propagation_check(DZ, DZ_P, 3, 2, Place.finite(3))


def test_propagation_matches_torsion_translate_oracle():
    # over divisible_by_2k at every place, and over the reduced group
    # E~(F_p) at the good primes 3 and 7
    for p in (2, 3, 5, 7):
        direct = propagation_check(DZ, DZ_P, 4, 2, Place.finite(p))
        oracle = propagation_by_torsion_translates(
            DZ, DZ_P, 4, 2, lambda q, k: divisible_by_2k(DZ, q, k, Place.finite(p)))
        assert direct == oracle, p
        if p in (3, 7):
            reduced = propagation_by_torsion_translates(
                DZ, DZ_P, 4, 2, lambda q, k: reduced_divisible_by_2k(DZ, q, k, p))
            assert direct == reduced, p
