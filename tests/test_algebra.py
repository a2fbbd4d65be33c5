from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest

from circenum.algebra import (SymPoly, UniPoly, cycle_index, half_exponent,
                              paired_power_sum, power_sum, substitute, to_sym)
from circenum.counting import _SUBST
from circenum.errors import InexactDivisionError, ParityError
from circenum.numtheory import divisors, is_prime


# --- UniPoly -----------------------------------------------------------------

def test_unipoly_canonical_form():
    assert UniPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert UniPoly([0, 0]).coeffs == ()
    assert UniPoly().is_zero()
    assert UniPoly([1]) == UniPoly.constant(1)


def test_unipoly_arithmetic():
    one_plus_z = UniPoly.one_plus(1)
    assert (one_plus_z * one_plus_z).coeffs == (1, 2, 1)
    assert (one_plus_z ** 4).coeffs == (1, 4, 6, 4, 1)
    assert (one_plus_z - one_plus_z).is_zero()
    assert (UniPoly() * one_plus_z).is_zero() and (one_plus_z * UniPoly()).is_zero()
    assert (UniPoly() * UniPoly()).is_zero()
    assert one_plus_z.scale(3).coeffs == (3, 3)
    assert UniPoly([1, 2, 3])(10) == 321
    # an int operand: a constant to add, a factor on the left to scale by
    assert 0 + one_plus_z == one_plus_z and (0 + UniPoly()).is_zero()
    assert (one_plus_z + 1).coeffs == (2, 1) and (1 + one_plus_z).coeffs == (2, 1)
    assert (UniPoly() + 5).coeffs == (5,) and (one_plus_z + -1).coeffs == (0, 1)
    assert (2 * one_plus_z).coeffs == (2, 2) and (0 * one_plus_z).is_zero()
    assert str(UniPoly([1, 0, -3])) == "[1, 0, -3]" and str(UniPoly()) == "[]"
    assert repr(UniPoly([1, 0, -3])) == "UniPoly([1, 0, -3])" and repr(UniPoly()) == "UniPoly([])"


def test_unipoly_evaluation_matches_power_sum():
    # z = 1 takes the coefficient-sum path, every other point Horner's rule
    import random
    rng = random.Random(20261018)
    polys = [UniPoly(), UniPoly.constant(-4)]
    polys += [UniPoly(rng.randrange(-10 ** 6, 10 ** 6) for _ in range(rng.randrange(1, 40)))
              for _ in range(200)]
    for p in polys:
        for at in (1, 0, -1, 2, -3):
            assert p(at) == sum(c * at ** r for r, c in enumerate(p.coeffs)), (p, at)


def test_unipoly_difference_is_coefficientwise():
    import random
    rng = random.Random(20261020)
    for _ in range(200):
        a, b = ([rng.randrange(-99, 100) for _ in range(length)]
                for length in rng.sample(range(12), 2))
        expected = UniPoly(x - y for x, y in zip_longest(a, b, fillvalue=0))
        assert UniPoly(a) - UniPoly(b) == expected, (a, b)
        assert (UniPoly(a) - UniPoly(a)).coeffs == ()


def test_powers_are_repeated_products():
    polys = [UniPoly([2, -1, 3]), UniPoly.one_plus(2, 5)]
    syms = [SymPoly({((1, 1),): 1, ((2, 2),): Fraction(-1, 3)}),
            SymPoly({(): 2, ((3, 1),): Fraction(1, 2)})]
    for p, one in [(q, UniPoly.constant(1)) for q in polys] + \
                  [(q, SymPoly.constant(1)) for q in syms]:
        assert p ** 0 == one
        product = one
        for k in range(1, 7):
            product = product * p
            assert p ** k == product, (p, k)


def test_unipoly_stretch():
    assert UniPoly([1, 2, 3]).stretch(2).coeffs == (1, 0, 2, 0, 3)


def test_unipoly_stretch_rejects_factor_zero():
    with pytest.raises(ValueError):
        UniPoly([1, 2]).stretch(0)


def test_polys_are_immutable():
    with pytest.raises(AttributeError):
        UniPoly([1, 2]).coeffs = (3,)
    with pytest.raises(AttributeError):
        SymPoly.constant(1).denominator = 2


def test_unipoly_hash_ignores_trailing_zeros():
    assert hash(UniPoly([1, 2])) == hash(UniPoly([1, 2, 0]))
    assert len({UniPoly([1, 2]), UniPoly([1, 2, 0])}) == 1


def test_negative_powers_rejected():
    with pytest.raises(ValueError):
        UniPoly.one_plus(1) ** -1
    with pytest.raises(ValueError):
        SymPoly.constant(2) ** -1


def test_unipoly_exact_division():
    assert UniPoly([2, 4]).divide_exact(2).coeffs == (1, 2)
    with pytest.raises(InexactDivisionError):
        UniPoly([1, 2]).divide_exact(2)


def test_unipoly_poly_division():
    import random
    numerator = UniPoly([1, 3, 3, 1])  # (1+z)^3
    assert numerator.divide_exact_poly(UniPoly.one_plus(1)).coeffs == (1, 2, 1)
    with pytest.raises(InexactDivisionError):
        UniPoly([1, 1, 1]).divide_exact_poly(UniPoly.one_plus(1))
    # quotients with zero coefficients, like the undirected series
    assert UniPoly([1, 1, 0, 1, 1]).divide_exact_poly(UniPoly.one_plus(1)) == UniPoly.one_plus(3)
    rng = random.Random(20261021)
    for _ in range(200):
        quotient = UniPoly(rng.choice((0, 0, rng.randrange(-9, 10)))
                           for _ in range(rng.randrange(1, 15)))
        divisor = UniPoly([rng.randrange(-9, 10) for _ in range(rng.randrange(4))] + [1])
        assert (quotient * divisor).divide_exact_poly(divisor) == quotient, (quotient, divisor)


def test_unipoly_poly_division_edge_cases():
    with pytest.raises(ValueError):
        UniPoly([2, 2]).divide_exact_poly(UniPoly([1, 2]))
    with pytest.raises(ValueError):
        UniPoly([2, 2]).divide_exact_poly(UniPoly())
    assert UniPoly().divide_exact_poly(UniPoly.one_plus(1)).is_zero()


# --- cycle index and substitution --------------------------------------------

def test_cycle_index_terms():
    ci = cycle_index(6)
    as_tuples = {(t.var_index, t.weight, t.exponent) for t in ci.terms}
    assert as_tuples == {(1, 1, 6), (2, 1, 3), (3, 2, 2), (6, 2, 1)}
    assert cycle_index(1).terms[0].var_index == 1
    weights = [t.weight for t in cycle_index(12).terms]
    assert sorted(weights) == [1, 1, 2, 2, 2, 4] and sum(weights) == 12


def test_cycle_index_invariants():
    # references independent of numtheory: a plain divisor scan, and phi(r)
    # as the count of 1 <= k <= r coprime to r
    phi = [0] + [sum(gcd(k, r) == 1 for k in range(1, r + 1)) for r in range(1, 2001)]
    for n in range(1, 2001):
        ci = cycle_index(n)
        assert ci.order == n
        assert [t.var_index for t in ci.terms] == [r for r in range(1, n + 1) if n % r == 0]
        assert all(t.weight == phi[t.var_index] for t in ci.terms)
        assert all(t.exponent == n // t.var_index for t in ci.terms)
        assert sum(t.weight for t in ci.terms) == n


def brute_necklaces(n: int) -> int:
    """Burnside by direct orbit counting over rotated bit-strings."""
    seen = set()
    count = 0
    mask = (1 << n) - 1
    for x in range(1 << n):
        if x in seen:
            continue
        count += 1
        rotations = set()
        y = x
        for _ in range(n):
            rotations.add(y)
            y = ((y << 1) & mask) | (y >> (n - 1))
        seen |= rotations
    return count


def mobius_necklaces(n: int) -> int:
    """Independent route: aperiodic word counts via Mobius inversion."""
    def mobius(m):
        result, d = 1, 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                result = -result
            d += 1
        return -result if m > 1 else result

    total = 0
    for d in divisors(n):
        lyndon = sum(mobius(e) * 2 ** (d // e) for e in divisors(d)) // d
        total += lyndon
    return total


def binomial_power(coeff, stride, e):
    """(1 + coeff * z^stride)^e as the row C(e, j) * coeff^j at z^(stride * j),
    the reference the power sums are checked against.  Stride 0 gives the
    constant (1 + coeff)^e."""
    if stride == 0:
        return UniPoly.constant((1 + coeff) ** e)
    out = [0] * (stride * e + 1)
    term = 1
    for j in range(e + 1):
        out[stride * j] = term
        term = term * (e - j) * coeff // (j + 1)
    return UniPoly(out)


def constant(a):
    """The substitution x_r -> a for every r."""
    return ((a - 1, 0, False), (a - 1, 0, False))


@pytest.mark.parametrize("coeff", [-1, 0, 1, 2, 3])
@pytest.mark.parametrize("stride", [0, 1, 3])
def test_binomial_power_matches_repeated_squaring(coeff, stride):
    for e in range(41):
        assert binomial_power(coeff, stride, e) == UniPoly.one_plus(stride, coeff) ** e


def test_substitute_counts_binary_necklaces_bruteforce():
    for n in range(1, 19):
        got = substitute(cycle_index(n), constant(2))(0)
        assert got == brute_necklaces(n), n


def test_substitute_counts_binary_necklaces_mobius():
    for n in range(1, 201):
        got = substitute(cycle_index(n), constant(2))(0)
        assert got == mobius_necklaces(n), n


def test_substitute_known_values():
    assert substitute(cycle_index(4), constant(2))(0) == 6
    ident = ((1, 1, False), (1, 1, False))
    assert substitute(cycle_index(1), ident) == UniPoly([1, 1])
    for m in range(1, 101):
        assert substitute(cycle_index(m), constant(1)) == UniPoly.constant(1)


def test_substitute_by_parity():
    # I_6 with x_r -> 0 at odd r, 2 at even r: (phi(2) 2^3 + phi(6) 2^1) / 6 = 2
    assert substitute(cycle_index(6), ((1, 0, False), (-1, 0, False)))(0) == 2


def test_substitute_is_linear_in_constant_targets():
    ci = cycle_index(1)
    for a, b in [(3, 4), (0, 9), (2, 2)]:
        separate = substitute(ci, constant(a))(0) + substitute(ci, constant(b))(0)
        joint = substitute(ci, constant(a + b))(0)
        assert joint == separate


def test_square_value_needs_even_exponent():
    square_two = ((1, 0, True), (1, 0, True))
    # I_4 has the term x_4^1: odd exponent under a square value
    with pytest.raises(ParityError):
        substitute(cycle_index(4), square_two)
    with pytest.raises(ParityError):
        power_sum(cycle_index(4), square_two)
    with pytest.raises(ParityError):
        paired_power_sum(cycle_index(4), square_two, 3)
    # the tournament substitution squares odd r: x_1^3 of I_3 is odd
    with pytest.raises(ParityError):
        paired_power_sum(cycle_index(3), _SUBST["t"], 5)


def power_sum_by_rows(ci, subst, exponent_factor=1):
    """The reference path: one scaled binomial_power per divisor, summed."""
    total = UniPoly()
    for term in ci.terms:
        r = term.var_index
        coeff, stride, square = subst[r % 2]
        e = term.exponent * exponent_factor
        if square:
            e = half_exponent(e, f"x_{r} of I_{ci.order}")
        total = total + binomial_power(coeff, stride * r, e).scale(term.weight)
    return total


# every class substitution, and o2p: o's odd-r value written plain
# (x_r -> 1 + 2z^r) rather than square-valued; no class uses it, but
# power_sum must still expand a plain binomial with coefficient 2
_DIFF_SUBSTS = dict(_SUBST, o2p=((0, 0, False), (2, 1, False)))
# p + 1 for the odd primes p up to 43, the lifts of the p^2 formulas
_LIFTS = [p + 1 for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)]


@pytest.mark.parametrize("key", _DIFF_SUBSTS)
def test_power_sum_matches_binomial_rows(key):
    subst = _DIFF_SUBSTS[key]
    # the lifts run on every m <= 44, which holds every cycle order p - 1 and
    # (p - 1)/2 the p^2 formulas use up to p = 43; all of m <= 200 at every
    # lift would take about a minute
    cases = [(m, f) for m in range(1, 201) for f in (1, 2)]
    cases += [(m, f) for m in range(1, 45) for f in _LIFTS]
    raised = 0
    for m, f in cases:
        ci = cycle_index(m)
        try:
            want = power_sum_by_rows(ci, subst, f)
        except ParityError:
            raised += 1
            with pytest.raises(ParityError):
                power_sum(ci, subst, f)
            continue
        assert power_sum(ci, subst, f) == want, (m, f)
    # a square-valued odd-r term meets an odd exponent at odd m, factor 1
    assert raised > 0 if any(sq for _, _, sq in subst) else raised == 0


def paired_power_sum_two_substitutions(ci, subst_x, subst_y):
    """The reference path: y as a second substitution, each term the product
    of two scaled binomial_power rows."""
    total = UniPoly()
    for term in ci.terms:
        r = term.var_index
        cx, kx, square = subst_x[r % 2]
        cy, ky, square_y = subst_y[r % 2]
        assert square == square_y
        e = term.exponent
        if square:
            e = half_exponent(e, f"x_{r}y_{r} of I_{ci.order}")
        value = binomial_power(cy, ky * r, e) * binomial_power(cx, kx * r, e)
        total = total + value.scale(term.weight)
    return total


def stretched(subst, p):
    """The substitution for y_r: x_r's with every stride multiplied by p."""
    return tuple((coeff, stride * p, square) for coeff, stride, square in subst)


@pytest.mark.parametrize("key", _SUBST)
def test_paired_power_sum_matches_two_substitutions(key):
    subst = _SUBST[key]
    cases = [(m, p) for p in (3, 5) for m in range(1, 101)]
    cases += [(m, p) for p in range(3, 62, 2) if is_prime(p)
              for m in (p - 1, (p - 1) // 2)]
    raised = 0
    for m, p in cases:
        ci = cycle_index(m)
        try:
            want = paired_power_sum_two_substitutions(ci, subst, stretched(subst, p))
        except ParityError:
            raised += 1
            with pytest.raises(ParityError):
                paired_power_sum(ci, subst, p)
            continue
        assert paired_power_sum(ci, subst, p) == want, (m, p)
    # a square-valued odd-r term meets an odd exponent at odd m
    assert raised > 0 if any(sq for _, _, sq in subst) else raised == 0


# --- series evaluation ---------------------------------------------------------

def test_eval_poly_at_minus_one():
    assert UniPoly([1, 2, 3])(-1) == 2
    assert UniPoly()(-1) == 0


# --- SymPoly ------------------------------------------------------------------

def x(i, e=1):
    return SymPoly({((i, e),): Fraction(1)})


def test_sympoly_identities():
    a = x(1).scale(Fraction(1, 2)) + x(2, 3)
    assert a + SymPoly() == a
    assert x(1).scale(Fraction(1, 2)).scale(2) == x(1)
    assert x(1) * x(2) == SymPoly({((1, 1), (2, 1)): Fraction(1)})
    assert (x(1) + x(2)) * (x(1) - x(2)) == x(1, 2) - x(2, 2)
    assert (x(1) + x(2)) ** 2 == x(1, 2) + x(1) * x(2) * SymPoly.constant(2) + x(2, 2)


def test_sympoly_cancellation():
    assert (x(3) - x(3)).is_zero()
    assert not (x(3) - x(3, 2)).is_zero()


def test_sympoly_repr():
    assert repr(SymPoly()) == "SymPoly(0)"
    p = x(2, 3).scale(Fraction(-1, 2)) + x(1) * x(4, 2) + SymPoly.constant(3)
    assert repr(p) == "SymPoly(3 + 1*x1*x4^2 + -1/2*x2^3)"


def test_sympoly_congruence_randomized():
    import random
    rng = random.Random(20260808)
    for _ in range(50):
        def rand_poly():
            p = SymPoly()
            for _ in range(rng.randrange(1, 4)):
                p = p + x(rng.randrange(1, 7), rng.randrange(1, 3)).scale(
                    Fraction(rng.randrange(-3, 4)))
            return p
        a = rand_poly()
        c = rand_poly()
        b = a + SymPoly()
        d = c + SymPoly()
        assert a == b and c == d
        assert a + c == b + d
        assert a * c == b * d


def test_to_sym_plain():
    # I_2 = (1/2) x_1^2 + (1/2) x_2
    got = to_sym(cycle_index(2))
    want = x(1, 2).scale(Fraction(1, 2)) + x(2).scale(Fraction(1, 2))
    assert got == want


def test_to_sym_square():
    got = to_sym(cycle_index(2), lambda r, e: (r, 2 * e))
    want = x(1, 4).scale(Fraction(1, 2)) + x(2, 2).scale(Fraction(1, 2))
    assert got == want


def test_to_sym_index_shift():
    # I_3 with r -> 4r: (1/3) x_4^3 + (2/3) x_12
    got = to_sym(cycle_index(3), lambda r, e: (4 * r, e))
    want = x(4, 3).scale(Fraction(1, 3)) + x(12).scale(Fraction(2, 3))
    assert got == want


def test_to_sym_sqrt_parity_error():
    with pytest.raises(ParityError):
        # I_3 has the term x_3^1: odd exponent cannot be halved
        to_sym(cycle_index(3), lambda r, e: (r, half_exponent(e, f"x_{r}")))
    # I_4 = (1/4) x_1^4 + (1/4) x_2^2 + (1/2) x_4: only x_4^1 is odd
    got = to_sym(cycle_index(4),
                 lambda r, e: (r, half_exponent(e, f"x_{r}")) if r < 4 else None)
    assert got == x(1, 2).scale(Fraction(1, 4)) + x(2).scale(Fraction(1, 4))


def test_to_sym_interleaved_zeros():
    # dropping odd indices of I_2 leaves only (1/2) x_1 (from r = 2)
    got = to_sym(cycle_index(2),
                 lambda r, e: None if r % 2 else (r // 2, e))
    assert got == x(1).scale(Fraction(1, 2))


def test_to_sym_merges_terms_on_one_monomial():
    # every term of I_6 sent to x_1: the weights phi(r)/6 sum to 1
    assert to_sym(cycle_index(6), lambda r, e: (1, 1)) == x(1)
