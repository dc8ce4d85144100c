import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locglob.arith import is_prime, legendre_symbol, nth_root_mod_prime, sqrt_mod_prime
from locglob.errors import InputError, PrecisionError, SelfCheckError
from locglob.padics import (PadicNumber, Place, hilbert_symbol, is_nth_power,
                            nth_root, parse_rational, product_formula_check,
                            rational_nth_root, square_class_approximate)
from search_oracles import (hilbert_symbol_search, is_nth_power_search,
                            is_square_mod_prime_brute, nth_root_mod_prime_by_tower)

SMALL_PRIMES = [p for p in range(2, 100) if is_prime(p)]

rationals = st.fractions(min_value=Fraction(-200), max_value=Fraction(200),
                         max_denominator=60).filter(lambda q: q != 0)


def test_place_validation():
    assert str(Place.finite(7)) == "7"
    assert str(Place.real()) == "inf"
    assert Place.parse("inf").is_real
    assert Place.parse(" 13 ").prime == 13
    with pytest.raises(InputError):
        Place.finite(6)
    with pytest.raises(InputError):
        Place.parse("seven")


# --- PadicNumber arithmetic ---------------------------------------------

@given(rationals, rationals, st.sampled_from([2, 3, 7, 13]))
@settings(max_examples=120, deadline=None)
def test_field_ops_match_rationals(a, b, p):
    xa = PadicNumber.from_rational(a, p, 48)
    xb = PadicNumber.from_rational(b, p, 48)
    assert (xa + xb).equals_to_precision(PadicNumber.from_rational(a + b, p, 40))
    assert (xa * xb).equals_to_precision(PadicNumber.from_rational(a * b, p, 40))
    assert (xa - xb).equals_to_precision(PadicNumber.from_rational(a - b, p, 40))
    assert (xa / xb).equals_to_precision(PadicNumber.from_rational(a / b, p, 40))


def _rebuilt(r):
    """r through the checking constructor, which reduces the unit, rejects
    a unit divisible by p and a precision below 1."""
    return PadicNumber(r.prime, r.valuation, r.unit, r.precision)


operands = st.one_of(st.integers(-300, 300),
                     st.fractions(min_value=Fraction(-200), max_value=Fraction(200),
                                  max_denominator=60))


@given(operands, operands, st.sampled_from([2, 3, 7, 13]), st.integers(1, 30),
       st.integers(1, 30), st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_arithmetic_results_pass_the_checking_constructor(a, b, p, na, nb, shift):
    # results skip __post_init__, so each must already be what the checking
    # constructor builds; x + near = p^shift b cancels the low digits
    x = PadicNumber.from_rational(a, p, na)
    y = PadicNumber.from_rational(b, p, nb)
    near = PadicNumber.from_rational(-a + p ** shift * Fraction(b), p, nb)
    cases = [lambda: -x, lambda: -y]
    for u, v in ((x, y), (x, near), (x, b), (a, y), (x, p ** shift)):
        cases += [lambda u=u, v=v: u + v, lambda u=u, v=v: u - v,
                  lambda u=u, v=v: u * v, lambda u=u, v=v: u / v]
    for case in cases:
        try:
            r = case()
        except PrecisionError:
            continue          # complete cancellation or an approximate zero divisor
        assert r == _rebuilt(r)
    other = PadicNumber.from_rational(b or 1, 5, nb)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(InputError):
            op(x, other)


@given(operands, operands, st.sampled_from([2, 3, 7, 13]), st.integers(1, 30),
       st.integers(1, 30), st.integers(0, 12))
@settings(max_examples=300, deadline=None)
def test_subtraction_equals_adding_the_negation(a, b, p, na, nb, shift):
    # x - y and q - x are computed in the body of x + y with a sign; each
    # result, precision included, equals adding the negation
    x = PadicNumber.from_rational(a, p, na)
    y = PadicNumber.from_rational(b, p, nb)
    near = PadicNumber.from_rational(a - p ** shift * Fraction(b), p, nb)
    pairs = [(lambda u=u, v=v: u - v, lambda u=u, v=v: u + (-v))
             for u, v in ((x, y), (x, near), (y, x), (x, x))]
    pairs += [(lambda u=u, q=q: u - q, lambda u=u, q=q: u + (-u._operand(q)))
              for u in (x, y) for q in (b, p ** shift)]
    pairs += [(lambda u=u, q=q: q - u, lambda u=u, q=q: (-u) + q)
              for u in (x, y) for q in (a, p ** shift)]
    for subtract, add_negation in pairs:
        try:
            want = add_negation()
        except PrecisionError:
            with pytest.raises(PrecisionError):
                subtract()
            continue
        assert subtract() == want


def test_cancellation_tracks_precision():
    x = PadicNumber.from_rational(Fraction(1, 3), 5, 10)
    y = x - Fraction(1, 3)
    assert y.is_zero
    x2 = PadicNumber.from_rational(1 + 5 ** 6, 5, 10)
    d = x2 - 1
    assert d.valuation == 6
    assert d.precision == 4          # carries consumed six digits


def test_zeros_negative_powers_and_plain_operands():
    third = Fraction(1, 3)
    assert parse_rational(third) is third and parse_rational(7) == Fraction(7)
    zero = PadicNumber.zero(3, 10)
    assert zero.abs_known == 10
    # a zero known to 3^10 over 9 is known to 3^8
    assert zero / PadicNumber.from_rational(9, 3) == PadicNumber.zero(3, 8)
    # 27 is invisible to a zero known only to 3^2
    assert PadicNumber.zero(3, 2) + 27 == PadicNumber.zero(3, 2)
    x = PadicNumber.from_rational(6, 3, 10)
    assert x ** -2 == 1 / (x * x)


def test_padic_square_and_sqrt():
    for p in (2, 3, 5, 7, 13):
        for q in (Fraction(4), Fraction(9, 16), Fraction(p * p)):
            x = PadicNumber.from_rational(q, p, 40)
            assert x.is_square()
            r = x.sqrt()
            assert (r * r).equals_to_precision(x)
    x = PadicNumber.from_rational(5, 2, 40)
    assert not x.is_square()         # 5 = 101_2 is not 1 mod 8
    assert PadicNumber.from_rational(17, 2, 40).is_square()


# --- n-th power decisions ------------------------------------------------

def test_wang_example():
    assert is_nth_power(16, 8, Place.finite(7))
    assert not is_nth_power(16, 8, Place.finite(2))
    assert is_nth_power(16, 8, Place.real())
    assert is_nth_power(1, 11, Place.finite(3))


def test_wang_sweep_small():
    for p in SMALL_PRIMES:
        assert is_nth_power(16, 8, Place.finite(p)) == (p != 2)


def test_power_errors():
    with pytest.raises(InputError):
        is_nth_power(0, 2, Place.finite(3))
    with pytest.raises(InputError):
        is_nth_power(4, 0, Place.finite(3))


@given(rationals, st.integers(1, 12), st.sampled_from(SMALL_PRIMES))
@settings(max_examples=150, deadline=None)
def test_perfect_powers_recognized(a, n, p):
    assert is_nth_power(a ** n, n, Place.finite(p))
    assert is_nth_power(a ** n, n, Place.real())


@given(rationals, st.integers(2, 4), st.integers(2, 3), st.sampled_from(SMALL_PRIMES))
@settings(max_examples=100, deadline=None)
def test_power_divisor_property(a, n1, n2, p):
    v = Place.finite(p)
    if is_nth_power(a, n1 * n2, v):
        assert is_nth_power(a, n1, v)


def test_negative_and_odd_powers_at_real_place():
    assert is_nth_power(-8, 3, Place.real())
    assert not is_nth_power(-4, 2, Place.real())


def test_structure_criterion_matches_hensel_search():
    # the unit-group criterion of is_nth_power must agree with the residue
    # sweep mod p^(2t+1), the Hensel sufficiency modulus for x^n - u, on
    # units, non-units and negative numbers, with and without denominators
    rng = random.Random(12)
    checked = 0
    outcomes = set()
    for p, t in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (5, 1),
                 (7, 0), (7, 1)]:
        mod = p ** (2 * t + 1)
        for _ in range(40):
            n = p ** t * rng.choice([x for x in (1, 3, 5, 7, 9, 11) if x % p])
            u = rng.randrange(1, mod)
            a = rng.choice((1, -1)) * u * Fraction(p) ** (n * rng.randrange(-1, 2))
            search = is_nth_power_search(a, n, p)
            assert search == is_nth_power(a, n, Place.finite(p)), (a, n, p)
            outcomes.add(search)
            checked += 1
    assert checked > 150
    assert outcomes == {True, False}


def test_huge_power_degree_terminates():
    # principal units: (Z_2^x)^(2^t) = 1 + 2^(t+2) Z_2
    assert is_nth_power(Fraction(1 + 2 ** 30), 2 ** 28, Place.finite(2))
    assert not is_nth_power(Fraction(1 + 2 ** 29), 2 ** 28, Place.finite(2))
    assert not is_nth_power(Fraction(3), 2 ** 28, Place.finite(2))
    assert is_nth_power(Fraction(1 + 5 ** 12), 5 ** 11, Place.finite(5))
    assert not is_nth_power(Fraction(2 + 5 ** 12), 5 ** 11, Place.finite(5))


def test_nth_root_witnesses():
    r = nth_root(1, 9, Place.finite(5), 20)
    assert (r - 1).is_zero
    r = nth_root(16, 8, Place.finite(7), 32)
    target = PadicNumber.from_rational(16, 7, 32)
    assert (r ** 8).equals_to_precision(target)
    assert nth_root(16, 8, Place.finite(2), 16) is None
    real_root = nth_root(Fraction(27, 8), 3, Place.real())
    assert abs(real_root - 1.5) < 1e-12
    for prec in (0, -4):
        with pytest.raises(InputError):
            nth_root(16, 8, Place.finite(7), prec)
    # a real root is a float: a must round to a finite nonzero float
    for a in (10 ** 400, Fraction(1, 10 ** 400), -10 ** 401):
        with pytest.raises(InputError):
            nth_root(a, 3, Place.real())


def test_real_root_self_check_raises(monkeypatch):
    # a power test that wrongly accepts -4 as a square must be caught by the
    # re-powering check, which raises (an assert would vanish under -O)
    import locglob.padics as padics
    monkeypatch.setattr(padics, "is_nth_power", lambda a, n, place: True)
    with pytest.raises(SelfCheckError):
        nth_root(-4, 2, Place.real())


@given(st.sampled_from([p for p in SMALL_PRIMES if p > 2]),
       st.integers(2, 50), st.integers(2, 20))
@settings(max_examples=120, deadline=None)
def test_nth_root_mod_prime(p, x, n):
    assume(x % p)
    u = pow(x, n, p)
    r = nth_root_mod_prime(u, n, p)
    assert r is not None
    assert pow(r, n, p) == u


def test_residue_roots_at_their_edge_cases():
    # p = 2 and a = 0 return a itself; a non-residue has no square root
    assert [sqrt_mod_prime(a, 2) for a in (0, 1, 2, 3, -1)] == [0, 1, 0, 1, 1]
    assert sqrt_mod_prime(0, 7) == 0 and sqrt_mod_prime(14, 7) == 0
    for p in (7, 13, 17):
        squares = {x * x % p for x in range(p)}
        for a in range(1, p):
            r = sqrt_mod_prime(a, p)
            assert (r is None) == (a not in squares), (a, p)
            assert r is None or r * r % p == a
    assert legendre_symbol(0, 7) == legendre_symbol(21, 7) == legendre_symbol(-14, 7) == 0
    assert legendre_symbol(2, 7) == 1 and legendre_symbol(3, 7) == -1
    # p | u: 0 is the n-th root of 0 mod p
    assert nth_root_mod_prime(0, 3, 7) == nth_root_mod_prime(14, 5, 7) == 0
    assert nth_root_mod_prime(11, 4, 11) == 0


def test_rational_nth_root_of_degree_at_least_three():
    assert rational_nth_root(27, 3) == 3
    assert rational_nth_root(28, 3) is None
    assert rational_nth_root(26, 3) is None
    assert rational_nth_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert rational_nth_root(2 ** 60, 5) == 2 ** 12
    assert rational_nth_root(2 ** 60 + 1, 5) is None
    assert rational_nth_root(Fraction(1, 3 ** 12), 4) == Fraction(1, 27)
    for b in range(1, 40):
        for n in (3, 4, 5, 7):
            assert rational_nth_root(b ** n, n) == b
            assert rational_nth_root(b ** n + 1, n) is None


def _same_root_as_the_tower(u, n, p):
    """The closed-form root equals the tower's, or both are None, and a
    None is exactly a non-power."""
    r = nth_root_mod_prime(u, n, p)
    assert r == nth_root_mod_prime_by_tower(u, n, p), (u, n, p)
    assert (r is None) == (pow(u, (p - 1) // gcd(n, p - 1), p) != 1), (u, n, p)
    return r


@given(st.sampled_from([p for p in range(3, 500) if is_prime(p)]),
       st.integers(1, 10 ** 6), st.integers(2, 64), st.booleans())
@settings(max_examples=300, deadline=None)
def test_nth_root_mod_prime_equals_the_tower_on_draws(p, x, n, power):
    assume(x % p)
    _same_root_as_the_tower(pow(x, n, p) if power else x % p, n, p)


# primes p with q^2 | p - 1 for a prime q > 1000: p - 1 = m q^2
_BIG_SYLOW = ((1013, 4), (1019, 6), (1009, 22), (2003, 4))


def test_nth_root_mod_prime_equals_the_tower():
    # every prime below 500 with n in 2..64, p - 1 and 2(p - 1), on an n-th
    # power and on random residues, non-powers among them; every residue
    # where g = gcd(n, p - 1) is composite with q^e || g below q^s || p - 1
    # (p = 73, 97, 257); and draws at p = 2^61 - 1 and at four primes with
    # q^2 | p - 1 for a prime q > 1000
    rng = random.Random(29)
    roots = nones = 0
    cases = [(rng.randrange(1, p), n, p) for p in range(3, 500) if is_prime(p)
             for n in [*range(2, 65), p - 1, 2 * (p - 1)] for _ in range(3)]
    cases += [(pow(u, n, p), n, p) for u, n, p in cases[::3]]
    cases += [(u, n, p) for p, ns in ((73, (6, 12, 24, 36)), (97, (6, 12, 24, 48)),
                                      (257, (4, 16, 48, 96)))
              for n in ns for u in range(1, p)]
    big = 2 ** 61 - 1                       # p - 1 = 2 3^2 5^2 7 11 13 31 41 61 151 331 1321
    for n in (2, 6, 9, 30, 50, 90, 2 * 3 * 5 * 7 * 11 * 13, 3 ** 3 * 5 ** 3 * 31):
        for _ in range(4):
            x = rng.randrange(2, big)
            cases += [(x, n, big), (pow(x, n, big), n, big)]
    for q, m in _BIG_SYLOW:                 # each log has two base-q digits
        p = m * q * q + 1
        for n in (q, q * q, 2 * q, 3 * q * q, m * q, (p - 1) // q):
            for _ in range(10):
                x = rng.randrange(2, p)
                cases += [(x, n, p), (pow(x, n, p), n, p)]
    for u, n, p in cases:
        if _same_root_as_the_tower(u, n, p) is None:
            nones += 1
        else:
            roots += 1
    assert roots + nones >= 5000 and roots >= 1000 and nones >= 1000, (roots, nones)


@pytest.mark.parametrize("table", [None, 7])
def test_discrete_log_digits_by_baby_step_giant_step(monkeypatch, table):
    # each base-q digit of a Pohlig-Hellman log is found by baby-step
    # giant-step; the oracle walks the digit.  Both agree on every log, and
    # an element outside the subgroup is refused, also when the table is
    # capped below sqrt(q) and the giant steps make up the rest
    from locglob import arith
    from locglob.arith import _pohlig_hellman_prime_power
    from search_oracles import discrete_log_by_walk
    if table is not None:
        monkeypatch.setattr(arith, "_BABY_STEPS", table)
    rng = random.Random(30)
    for q, m in _BIG_SYLOW:
        p = m * q * q + 1
        assert is_prime(p)
        z = 2
        while pow(z, (p - 1) // q, p) == 1:
            z += 1
        gen = pow(z, m, p)                  # order q^2
        for _ in range(20):
            e = rng.randrange(q * q)
            b = pow(gen, e, p)
            assert _pohlig_hellman_prime_power(b, gen, q, 2, p) == e
            assert discrete_log_by_walk(b, gen, q, 2, p) == e
        with pytest.raises(SelfCheckError, match="outside the cyclic subgroup"):
            _pohlig_hellman_prime_power(z, gen, q, 2, p)
    with pytest.raises(SelfCheckError, match="outside the cyclic subgroup"):
        _pohlig_hellman_prime_power(2, pow(2, 4, 13), 3, 1, 13)


def test_nth_root_mod_prime_with_a_large_prime_exactly_dividing_n_and_p_minus_1():
    # p = 2q + 1 with q near 2^63 and q | n: q^e || g and q^s || p - 1 with
    # e = s = 1, so u's Sylow-q part is 1 and its log has the one digit 0,
    # found without the baby-step table of about 3 * 10^9 entries
    q = 9223372036854775073
    p = 2 * q + 1
    assert is_prime(q) and is_prime(p)
    rng = random.Random(31)
    cases = [(p - 1, q, p), (1, p - 1, p), (rng.randrange(2, p - 1), q, p)]
    for n in (q, 2 * q, 3 * q, p - 1):
        cases += [(pow(rng.randrange(2, p), n, p), n, p) for _ in range(3)]
    roots = [_same_root_as_the_tower(u, n, p) for u, n, p in cases]
    assert roots.count(None) == 1 and roots[0] == p - 1


def test_nth_root_hensel_at_dividing_prime():
    # 3-adic cube roots where val_3(n) = 1
    r = nth_root(Fraction(217 ** 3), 3, Place.finite(3), 24)
    assert (r ** 3).equals_to_precision(PadicNumber.from_rational(217 ** 3, 3, 24))


def test_newton_lifting_reaches_the_root_of_digit_by_digit_lifting():
    # the seed mod p^(2t+1) fixes one p-adic root; Newton steps and single
    # digits must both reach it, so they agree mod p^(work - t), beyond the
    # precision nth_root keeps (work - 2t - 2)
    from locglob.padics import _unit_nth_root
    from search_oracles import unit_nth_root_by_digits
    rng = random.Random(29)
    seen = set()
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 13])
        t = rng.choice([0, 0, 1, 2])
        m = rng.choice([1, 2, 3, 5, 7, 1001])
        n = p ** t * m
        if n < 2 or m % p == 0:
            continue
        work = rng.randrange(2 * t + 2, 260)
        u = pow(rng.randrange(1, p ** work, p) or 1, n, p ** work)
        u = u if u % p else u + 1
        if not is_nth_power(Fraction(u), n, Place.finite(p)):
            continue
        got = _unit_nth_root(u, n, p, t, work)
        assert pow(got, n, p ** work) == u
        assert got % p ** (work - t) == unit_nth_root_by_digits(u, n, p, t, work) % p ** (work - t)
        seen.add((p, t))
    assert len(seen) >= 12


def test_square_roots_take_the_shared_newton_lift():
    # PadicNumber.sqrt lifts through _newton_lift.  At odd p, from the
    # Tonelli-Shanks root mod p, it is the root of the Newton steps of
    # x^2 - u, and from the least root mod p, the digit-by-digit root.  At
    # p = 2, from 1, both are the digit-by-digit roots mod 2^(n - 1), which
    # x^2 = u mod 2^n fixes
    from locglob.arith import sqrt_mod_prime
    from locglob.padics import _newton_lift
    from search_oracles import sqrt_unit_2adic, sqrt_unit_odd, unit_nth_root_by_digits
    rng = random.Random(28)
    for p in (2, 3, 5, 101):
        for _ in range(80):
            n = rng.randrange(11, 201)
            v = 2 * rng.randrange(-3, 4)
            x = rng.randrange(1, p ** n)
            u = (x if x % p else x + 1) ** 2 % p ** n
            root = PadicNumber(p, v, u, n).sqrt()
            assert root.valuation == v // 2
            if p == 2:
                want = sqrt_unit_2adic(u, n) % 2 ** (n - 1)
                assert _newton_lift(u, 2, 2, 1, 1, n) % 2 ** (n - 1) == want
                assert unit_nth_root_by_digits(u, 2, 2, 1, n) % 2 ** (n - 1) == want
                assert (root.unit, root.precision) == (want, n - 1)
                continue
            want = sqrt_unit_odd(u, p, n)
            assert _newton_lift(u, 2, p, 0, sqrt_mod_prime(u, p), n) == want
            least = min(x for x in range(1, p) if (x * x - u) % p == 0)
            assert (_newton_lift(u, 2, p, 0, least, n)
                    == unit_nth_root_by_digits(u, 2, p, 0, n))
            assert (root.unit, root.precision) == (want, n)


def test_sqrt_is_none_for_a_non_square():
    # a unit that is no square mod p (mod 8 at 2) and an odd valuation
    for q, p in ((5, 2), (3, 2), (2, 2), (2, 3), (3, 5), (7, 7), (2, 101), (Fraction(1, 5), 5)):
        x = PadicNumber.from_rational(q, p, 40)
        assert not x.is_square() and x.sqrt() is None
    assert PadicNumber.zero(3).sqrt() == PadicNumber.zero(3)
    with pytest.raises(PrecisionError):
        PadicNumber.zero(3, 20).sqrt()


def test_a_root_above_the_print_bound_is_its_short_residue_or_refused(monkeypatch):
    # with the print bound lowered to 10^30, a precision above k (the least
    # with p^k above it, by bit lengths) takes the root mod p^k: nth_root
    # must return the full lift's unit when that is below 10^30 and refuse
    # it otherwise, also when the root is short mod p^k but long mod
    # p^precision (base + p^m with k <= m < precision)
    import locglob.padics as padics
    from locglob.arith import int_valuation, rational_unit_mod
    from locglob.padics import _unit_nth_root
    monkeypatch.setattr(padics, "_DIGIT_BOUND", 10 ** 30)
    monkeypatch.setattr(padics, "_DIGITS", 30)
    rng = random.Random(31)
    outcomes = set()
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 13])
        n = rng.choice([1, 2, 3, 5, 8, p, 2 * p, p * p])
        k = -(-(10 ** 30).bit_length() // (p.bit_length() - 1))
        prec = rng.randrange(2, 3 * k)
        base = Fraction(rng.choice([1, 2, 3, 11, -1, -2, 10 ** 12 + 1]),
                        rng.choice([1, 1, 3, 11]))
        if rng.random() < 0.3:
            base += p ** rng.randrange(k, 3 * k)
        if base == 0 or base.denominator % p == 0 or base.numerator % p == 0:
            continue
        a = base ** n * Fraction(p) ** (n * rng.randrange(-2, 3))
        t = int_valuation(n, p)
        work = prec + 2 * t + 2
        full = _unit_nth_root(rational_unit_mod(a, p, p ** work), n, p, t, work) % p ** prec
        try:
            got = nth_root(a, n, Place.finite(p), prec)
        except InputError as exc:
            assert full >= 10 ** 30 and "more than 30 decimal digits" in str(exc)
            outcomes.add(("refused", prec > k))
        else:
            assert got.unit == full < 10 ** 30 and got.precision == prec
            outcomes.add(("printed", prec > k))
    assert outcomes == {("refused", True), ("refused", False),
                        ("printed", True), ("printed", False)}


def test_a_unit_too_long_to_print_is_refused():
    # Python writes at most 4,300 digits: one more is an InputError
    assert str(PadicNumber(2, 0, 10 ** 4300 - 1, 14286)).startswith("2^0 * (9999")
    with pytest.raises(InputError, match="more than 4300 decimal digits"):
        str(PadicNumber(2, 0, 10 ** 4300 + 1, 14286))


# --- Hilbert symbols ------------------------------------------------------

def test_hilbert_examples():
    assert hilbert_symbol(1, Fraction(-5, 7), Place.finite(3)) == 1
    assert hilbert_symbol(-1, -1, Place.finite(2)) == -1
    assert hilbert_symbol(-1, -1, Place.real()) == -1
    assert hilbert_symbol(3, 5, Place.finite(5)) == -1
    # legendre oracle: 3 is a nonresidue mod 5
    assert not is_square_mod_prime_brute(3, 5)


def test_hilbert_zero_rejected():
    with pytest.raises(InputError):
        hilbert_symbol(0, 3, Place.finite(5))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_hilbert_against_search_oracle(p):
    rng = random.Random(p * 1009)
    for _ in range(25):
        a = rng.randrange(-50, 51) or 1
        b = rng.randrange(-50, 51) or 1
        assert hilbert_symbol(a, b, Place.finite(p)) == hilbert_symbol_search(a, b, p)


@given(rationals, rationals, rationals,
       st.sampled_from([Place.finite(2), Place.finite(3), Place.finite(5),
                        Place.finite(7), Place.real()]))
@settings(max_examples=150, deadline=None)
def test_hilbert_bilinearity(a, b, c, v):
    s = hilbert_symbol
    assert s(a, b, v) == s(b, a, v)
    assert s(a * c, b, v) == s(a, b, v) * s(c, b, v)
    assert s(a, -a, v) == 1
    assert s(a, a * a, v) == 1


def test_product_formula_trivial_first_argument():
    rep = product_formula_check(1, 17)
    assert all(s == 1 for s in rep.symbols)
    assert rep.product == 1


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_product_formula(a, b):
    rep = product_formula_check(a, b)
    assert rep.product == 1
    prod = 1
    for s in rep.symbols:
        prod *= s
    assert prod == 1


# --- square classes -------------------------------------------------------

def test_square_class_examples():
    assert square_class_approximate({}) == 1
    assert square_class_approximate({Place.real(): Fraction(1)}) == 1
    x = square_class_approximate({Place.finite(3): Fraction(2)})
    assert is_nth_power(x * 2, 2, Place.finite(3))
    targets = {Place.finite(3): Fraction(2), Place.finite(7): Fraction(5),
               Place.real(): Fraction(1)}
    x = square_class_approximate(targets)
    for v, t in targets.items():
        assert is_nth_power(x * t, 2, v)


def test_square_class_random():
    rng = random.Random(42)
    odd = [p for p in SMALL_PRIMES if p > 2]
    for _ in range(60):
        places = rng.sample(odd, rng.randrange(1, 4))
        targets = {Place.finite(p): Fraction(rng.randrange(1, 400)) for p in places}
        if rng.random() < 0.5:
            targets[Place.finite(2)] = Fraction(rng.choice((3, 5, 7, 2, 6, 10)))
        if rng.random() < 0.5:
            targets[Place.real()] = Fraction(rng.choice((-1, 1, -7, 3)))
        x = square_class_approximate(targets)
        for v, t in targets.items():
            assert is_nth_power(x * t, 2, v)


def test_square_class_rejects_bad_targets():
    with pytest.raises(InputError):
        square_class_approximate({Place.finite(3): Fraction(0)})
    with pytest.raises(InputError):
        square_class_approximate({"3": Fraction(2)})
