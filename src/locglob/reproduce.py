"""The one-shot reproduction harness behind `locglob reproduce`.

Runs the worked examples end to end: the mu8 cyclic-restriction kernel,
the 16-is-an-8th-power sweep, Hilbert product formulas, the Grunwald-Wang
decision table, the elliptic 4-divisibility table, the quadratic-root
criterion, and the level-raising checks.  Hard expectations are asserted
inline; derived expectations are compared against a checked-in golden file
whose entries come from the search oracles of the tests (print it with
`PYTHONPATH=src python tests/search_oracles.py`)."""

from __future__ import annotations

import random
from fractions import Fraction
from importlib import resources

from .arith import is_prime
from .cohomology import h1, h1_star
from .elliptic import Curve, divisible_by_2k, halve_point, propagation_check
from .gmodules import mu8_klein_model
from .models import PlaceModel, sha_of_model, verdict
from .padics import (Place, gw_decision, hilbert_symbol, is_nth_power,
                     product_formula_check)
from .schema import format_rational, load_document
from .value import Value

WANG_SWEEP = 10 ** 4
EC_SWEEP = 997
QUAD_SWEEP = 10 ** 4
GW_RANGE = range(2, 65)
GW_TSETS = ((), (2,), (3,), (2, 3))
HILBERT_SAMPLES = 200

DZ_CURVE = Curve(Fraction(-15), Fraction(5), Fraction(10))
DZ_POINT_X = Fraction(1561, 144)
DZ_POINT_Y = Fraction(19459, 1728)
QUAD_TRIPLE = ((Fraction(0), Fraction(1)),
               (Fraction(0), Fraction(5)),
               (Fraction(0), Fraction(-5)))


class Item(Value):
    __slots__ = _compare = ("name", "ok", "detail")


def _odd_primes(bound):
    return [p for p in range(3, bound + 1) if is_prime(p)]


def load_golden(path: str | None = None) -> dict:
    """The golden file at path, the packaged one by default, read as any
    input document: a file that is not a UTF-8 JSON object is an input
    error."""
    if path is not None:
        return load_document(path)
    with resources.as_file(resources.files("locglob").joinpath("data/golden.json")) as builtin:
        return load_document(str(builtin))


def mu8_model() -> tuple:
    module, chi = mu8_klein_model()
    model = PlaceModel(module, {"2": (0, 1, 2, 3), "inf": (0, 3)},
                       frozenset({"inf"}))
    return module, chi, model


def run_reproduce(golden: dict, precision: int = 64) -> list[Item]:
    items: list[Item] = []

    def check(name, ok, detail=""):
        items.append(Item(name, bool(ok), detail))

    def golden_check(name, key, actual):
        if key not in golden:
            check(name, False, "golden file has no entry %r" % key)
            return
        expect = golden[key]
        ok = expect == actual
        detail = "" if ok else "golden %r != computed %r" % (expect, actual)
        check(name, ok, detail)

    # --- mu8: the cyclic-restriction kernel and the model verdicts
    module, chi, model = mu8_model()
    star = h1_star(module)
    check("mu8.h1_star_order_divides_2", star.order in (1, 2))
    check("mu8.h1_star_order_is_2", star.order == 2)
    golden_check("mu8.h1_invariants", "mu8_h1_invariants",
                 list(h1(module).structure.invariant_factors))
    rep = star.representatives[0] if star.representatives else None
    golden_check("mu8.h1_star_representative", "mu8_h1_star_representative",
                 [list(v) for v in rep.values] if rep else None)
    sha2 = sha_of_model(model, {"2"})
    golden_check("mu8.sha_T2_order", "mu8_sha_T2_order", sha2.order)
    v = verdict(model, [set(), {"2"}, {"inf"}, {"2", "inf"}])
    check("mu8.hasse_holds", v.hasse)
    check("mu8.strong_hasse_fails", not v.strong_hasse)
    check("mu8.singular_exactly_at_sets_containing_2",
          v.singular({"2"}) and v.singular({"2", "inf"})
          and not v.singular(set()) and not v.singular({"inf"}))

    # --- 16 as an 8th power
    ok = not is_nth_power(16, 8, Place.finite(2))
    bad = [p for p in _odd_primes(WANG_SWEEP) if not is_nth_power(16, 8, Place.finite(p))]
    ok = ok and not bad and is_nth_power(16, 8, Place.real())
    check("wang.16_8th_power_iff_v_ne_2", ok,
          "" if ok else "failures at %s" % bad[:5])

    # --- Hilbert product formula
    rng = random.Random(0x1657)
    ok = True
    for _ in range(HILBERT_SAMPLES):
        a = rng.randrange(-10 ** 4, 10 ** 4) or 1
        b = rng.randrange(-10 ** 4, 10 ** 4) or 1
        rep_ab = product_formula_check(a, b)
        ok = ok and rep_ab.product == 1
    check("hilbert.product_formula_%d_samples" % HILBERT_SAMPLES, ok)
    sym35 = {str(v): hilbert_symbol(3, 5, v)
             for v in (Place.finite(2), Place.finite(3), Place.finite(5), Place.real())}
    golden_check("hilbert.symbols_3_5", "hilbert_3_5", sym35)

    # --- Grunwald-Wang decisions
    ok = True
    details = []
    for n in GW_RANGE:
        for t in GW_TSETS:
            dec = gw_decision(n, t)
            want = 2 if (n % 8 == 0 and 2 in t) else 1
            if dec.kernel_order != want:
                ok = False
                details.append((n, t, dec.kernel_order))
    check("gw.kernel_rule_n_2_to_64", ok, "" if ok else str(details[:4]))

    # --- the elliptic divisibility table
    e = DZ_CURVE
    p0 = e.point(DZ_POINT_X, DZ_POINT_Y)
    halves = halve_point(e, p0)
    xs = sorted(format_rational(h.x) for h in halves)
    golden_check("dz.halves_x", "dz_halves_x", xs)
    dup_ok = all(duplication_x(e, h.x) == DZ_POINT_X for h in halves)
    check("dz.halves_satisfy_duplication_polynomial", dup_ok)
    bad = [p for p in _odd_primes(EC_SWEEP)
           if not divisible_by_2k(e, p0, 2, Place.finite(p), precision)]
    ok = not bad and not divisible_by_2k(e, p0, 2, Place.finite(2), precision) \
        and divisible_by_2k(e, p0, 2, Place.real())
    check("dz.divisible_by_4_iff_v_ne_2", ok, "" if ok else "failures at %s" % bad[:5])

    # --- the genus-2 quadratic criterion
    bad = [p for p in _odd_primes(QUAD_SWEEP)
           if not quad_ok(p)]
    ok = not bad and not quad_ok(2) and quad_ok(None)
    check("quad.root_iff_v_ne_2", ok, "" if ok else "failures at %s" % bad[:5])

    # --- level raising
    check("prop.origin_trivial", propagation_check(e, e.infinity(), 4, 2, Place.finite(2)))
    golden_check("prop.n4_m2_v3", "dz_propagation_n4_m2_v3",
                 propagation_check(e, p0, 4, 2, Place.finite(3), precision))
    golden_check("prop.n4_m2_v2", "dz_propagation_n4_m2_v2",
                 propagation_check(e, p0, 4, 2, Place.finite(2), precision))

    return items


def duplication_x(curve, x):
    """x(2Q) from x(Q) by the duplication polynomial, independent of the
    chord-tangent code path."""
    a2, a4, a6 = curve.a2, curve.a4, curve.a6
    num = x ** 4 - 2 * a4 * x * x - 8 * a6 * x + a4 * a4 - 4 * a2 * a6
    den = 4 * curve.rhs(x)
    return num / den


def quad_ok(p) -> bool:
    from .elliptic import quad_local_roots
    place = Place.real() if p is None else Place.finite(p)
    return quad_local_roots(QUAD_TRIPLE, place)
