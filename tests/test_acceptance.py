"""Acceptance suite: one test per criterion, each timed against its stated
budget and printing a pass/fail line.  All tolerances are exact; runtime
budgets are the only numeric margins.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from locglob.abelian import FinAb, orthogonal_complement_chain, subgroup_from_generators
from locglob.arith import is_prime
from locglob.cohomology import h1, h1_star
from locglob.elliptic import Curve, divisible_by_2k, quad_local_roots
from locglob.gmodules import homothety_criterion, mu8_klein_model
from locglob.models import PlaceModel, finite_support_bound, sha_of_model, verdict
from locglob.padics import (Place, gw_decision, is_nth_power, product_formula_check,
                            rational_nth_root, square_class_approximate)

from families import (lemma_consistency_family, random_homothety_module,
                      random_place_model)
from search_oracles import brute_force_h1_star

ODD_PRIMES_1E4 = [p for p in range(3, 10 ** 4 + 1) if is_prime(p)]
ODD_PRIMES_997 = [p for p in ODD_PRIMES_1E4 if p <= 997]


@contextmanager
def criterion(name, budget_seconds=None):
    t0 = time.monotonic()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.monotonic() - t0
        line = "[acceptance] %-38s %s (%.1fs" % (name, status, elapsed)
        line += ", budget %ds)" % budget_seconds if budget_seconds else ")"
        print(line, file=sys.stderr)
    if budget_seconds is not None:
        assert elapsed < budget_seconds, "runtime budget exceeded: %.1fs" % elapsed


def test_criterion_01_mu8_singular_class():
    with criterion("1 mu8 singular class", 5):
        module, _ = mu8_klein_model()
        star = h1_star(module)
        assert star.order == 2
        brute_order, brute_witness = brute_force_h1_star(module)
        assert brute_order == 2
        assert star.representatives[0].values == brute_witness


def test_criterion_02_wang_witness_sweep():
    with criterion("2 Wang witness sweep", 30):
        assert not is_nth_power(16, 8, Place.finite(2))
        assert is_nth_power(16, 8, Place.real())
        for p in ODD_PRIMES_1E4:
            assert is_nth_power(16, 8, Place.finite(p)), p


def test_criterion_03_hilbert_product_formula():
    with criterion("3 Hilbert product formula", 10):
        rng = random.Random(31415)
        good = 0
        for _ in range(1000):
            a = rng.randrange(-10 ** 4, 10 ** 4 + 1) or 1
            b = rng.randrange(-10 ** 4, 10 ** 4 + 1) or 1
            rep = product_formula_check(a, b)
            good += rep.product == 1
        assert good == 1000


def test_criterion_04_dvornicich_zannier_table():
    with criterion("4 Dvornicich-Zannier table", 60):
        e = Curve(Fraction(-15), Fraction(5), Fraction(10))
        p0 = e.point(Fraction(1561, 144), Fraction(19459, 1728))
        assert not divisible_by_2k(e, p0, 2, Place.finite(2))
        assert divisible_by_2k(e, p0, 2, Place.real())
        for p in ODD_PRIMES_997:
            assert divisible_by_2k(e, p0, 2, Place.finite(p)), p


def test_criterion_05_genus2_criterion():
    with criterion("5 genus-2 criterion", 10):
        triple = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(5)),
                  (Fraction(0), Fraction(-5)))
        assert not quad_local_roots(triple, Place.finite(2))
        assert quad_local_roots(triple, Place.real())
        for p in ODD_PRIMES_1E4:
            assert quad_local_roots(triple, Place.finite(p)), p


def test_criterion_06_lemma_consistency():
    with criterion("6 strong Hasse vs cyclic kernel", 120):
        count = 0
        for gname, module in lemma_consistency_family(max_group=6, max_module=16):
            model = PlaceModel(module,
                               {"ram": tuple(range(module.group.order))},
                               frozenset())
            v = verdict(model, [])
            star = h1_star(module)
            assert v.strong_hasse == star.is_trivial(), (gname, module)
            count += 1
        assert count > 1500


def test_criterion_07_support_bound_properties():
    with criterion("7 support bound on 200 models"):
        rng = random.Random(20260808)
        for i in range(200):
            model = random_place_model(rng)
            S = finite_support_bound(model)
            labels = sorted(model.labels)
            sha_s = sha_of_model(model, S)
            for r in range(len(labels) + 1):
                for T in combinations(labels, r):
                    ts = frozenset(T)
                    sha_t = sha_of_model(model, ts)
                    for gen in sha_t.members.coordinate_generators:
                        assert sha_s.members.coordinate_subgroup.contains(gen), (i, T)
                    if not (ts & S):
                        assert sha_t.is_trivial(), (i, T)


def test_criterion_08_sah_instances():
    with criterion("8 Sah instances, 100 modules"):
        rng = random.Random(11)
        for i in range(100):
            module = random_homothety_module(rng)
            assert homothety_criterion(module) is not None, i
            assert h1(module).order == 1, i


def test_criterion_09_chain_duality():
    with criterion("9 chain duality, 50 chains"):
        rng = random.Random(64)
        shapes = [(4,), (8,), (16,), (2, 4), (2, 8), (4, 4), (2, 2, 4),
                  (3, 9), (2, 2, 2), (256,), (2, 128), (12,), (2, 6)]
        done = 0
        while done < 50:
            a3 = FinAb(rng.choice(shapes))
            elems = list(a3.elements())
            g2 = [rng.choice(elems) for _ in range(rng.randrange(1, 3))]
            a2 = subgroup_from_generators(a3, g2)
            g1 = [rng.choice(a2.elements()) for _ in range(rng.randrange(1, 3))]
            out = orthogonal_complement_chain(a3, g1, g2)
            # the chain builder verified the bijection elementwise; confirm
            # the numerical duality once more here
            a1 = subgroup_from_generators(a3, g1)
            assert out.quotient_order == a2.order // a1.order
            assert out.a1_perp.order // out.a2_perp.order == out.quotient_order
            done += 1


def test_criterion_10_gw_decision_table():
    with criterion("10 GW decision table"):
        for n in range(2, 65):
            for t in ((), (2,), (3,), (2, 3)):
                dec = gw_decision(n, t)
                expect = 2 if (n % 8 == 0 and 2 in t) else 1
                assert dec.kernel_order == expect, (n, t)
                if dec.kernel_order == 2:
                    w = dec.witness
                    # gw_decision already swept p < 1000 outside T and the
                    # real place; re-assert the global root tests here
                    assert dec.checked_places > 150
                    assert rational_nth_root(w, n) is None
                    assert rational_nth_root(w, n // 2) is not None


def test_criterion_11_constructive_weak_approximation():
    with criterion("11 constructive weak approximation"):
        rng = random.Random(271828)
        odd = [p for p in ODD_PRIMES_1E4 if p < 300]
        for i in range(100):
            places = [Place.finite(p) for p in rng.sample(odd, rng.randrange(1, 4))]
            if rng.random() < 0.4:
                places.append(Place.finite(2))
            if rng.random() < 0.4:
                places.append(Place.real())
            places = places[:4]
            targets = {}
            for v in places:
                t = Fraction(rng.randrange(1, 500), rng.randrange(1, 30))
                if v.is_real and rng.random() < 0.5:
                    t = -t
                targets[v] = t
            x = square_class_approximate(targets)
            for v, t in targets.items():
                assert is_nth_power(x * t, 2, v), (i, str(v), t, x)
