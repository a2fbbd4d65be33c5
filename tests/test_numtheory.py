from math import gcd, isqrt, prod

import pytest

from circenum import numtheory
from circenum.numtheory import (OddPartDecomposition, _proth_prime,
                                cunningham_pairs, divisor_totients, divisors,
                                euler_phi, factorize,
                                has_prime_divisor_3_mod_4, is_prime,
                                nearly_doubled_primes, odd_part_decomposition)


def test_euler_phi_basics():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96
    for n in range(1, 501):
        assert euler_phi(n) == sum(gcd(k, n) == 1 for k in range(1, n + 1)), n


def test_euler_phi_rejects_zero():
    with pytest.raises(ValueError):
        euler_phi(0)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    with pytest.raises(ValueError):
        divisors(0)


def _divisor_scan(n):
    """The divisors of n by testing every d up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def test_gauss_identity():
    # phi summed over the divisors, found by a plain scan, reconstructs n;
    # the identity determines phi by Mobius inversion
    for n in range(1, 10001):
        divs = _divisor_scan(n)
        assert divisors(n) == divs
        assert sum(euler_phi(r) for r in divs) == n


def test_factorize_to_ten_thousand():
    assert factorize(1) == []
    for n in range(1, 10001):
        factors = factorize(n)
        assert prod(p ** k for p, k in factors) == n
        assert all(is_prime(p) and k >= 1 for p, k in factors)
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})


def test_divisor_totients_to_ten_thousand():
    for n in range(1, 10001):
        table = divisor_totients(n)
        assert [d for d, _ in table] == _divisor_scan(n)
        assert all(f == euler_phi(d) for d, f in table)
    assert divisor_totients(12) == [(1, 1), (2, 1), (3, 2), (4, 2), (6, 2), (12, 4)]


def test_factorize_large_prime_and_high_power():
    big = 10 ** 9 + 7
    assert factorize(6 * big) == [(2, 1), (3, 1), (big, 1)]
    assert divisor_totients(6 * big)[-1] == (6 * big, 2 * (big - 1))
    assert factorize(3 ** 40) == [(3, 40)]
    assert divisor_totients(3 ** 40) == [(1, 1)] + [(3 ** j, 2 * 3 ** (j - 1))
                                                    for j in range(1, 41)]
    with pytest.raises(ValueError):
        factorize(0)


def test_is_prime_small():
    assert not is_prime(1)
    assert is_prime(193)
    assert is_prime(9 * 2 ** 42 + 1)


def test_is_prime_agrees_with_sieve_to_one_million():
    bound = 10 ** 6
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    for n in range(bound + 1):
        assert is_prime(n) == bool(sieve[n]), n


def test_is_prime_above_64_bits():
    # forces the probabilistic branch: a 122-bit semiprime and a Mersenne prime
    assert not is_prime((2 ** 61 - 1) * (2 ** 61 + 15))
    assert is_prime(2 ** 89 - 1)


@pytest.mark.parametrize("n, factors", [
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    (3215031751, (151, 751, 28351)),
    # a strong pseudoprime to the bases 2-31, caught by 37
    (3825123056546413051, (149491, 747451, 34233211)),
    # a strong pseudoprime to all twelve fixed bases: only the extra
    # seeded bases above 2^64 catch it
    (318665857834031151167461, (399165290221, 798330580441)),
])
def test_is_prime_rejects_strong_pseudoprimes(n, factors):
    assert prod(factors) == n
    assert not is_prime(n)


def test_odd_part_decomposition():
    assert odd_part_decomposition(72) == OddPartDecomposition(72, 9, 3)
    assert odd_part_decomposition(36) == OddPartDecomposition(36, 9, 2)
    assert odd_part_decomposition(7) == OddPartDecomposition(7, 7, 0)
    with pytest.raises(ValueError):
        odd_part_decomposition(0)


def test_odd_part_roundtrip():
    for n in range(1, 10 ** 6 + 1):
        d = odd_part_decomposition(n)
        assert d.odd_part % 2 == 1
        assert d.odd_part << d.two_exponent == n


def test_has_prime_divisor_3_mod_4_against_trial_division():
    primes_3_mod_4 = [q for q in range(3, 2000, 4) if is_prime(q)]
    for n in range(1, 2000):
        want = any(n % q == 0 for q in primes_3_mod_4)
        assert has_prime_divisor_3_mod_4(n) == want, n


def test_nearly_doubled_primes_below_100():
    pairs = nearly_doubled_primes(100)
    assert [pair.p for pair in pairs] == [3, 5, 13, 37, 61, 73]
    assert [pair.q for pair in pairs] == [2, 3, 7, 19, 31, 37]


def test_nearly_doubled_primes_below_1000():
    pairs = nearly_doubled_primes(1000)
    assert len(pairs) == 21
    for pair in pairs:
        assert pair.p == 2 * pair.q - 1
        assert is_prime(pair.p) and is_prime(pair.q)


def test_nearly_doubled_primes_trivial_limit():
    assert nearly_doubled_primes(2) == []


def test_nearly_doubled_primes_rejects_limit_below_2():
    with pytest.raises(ValueError):
        nearly_doubled_primes(1)


def _reference_nearly_doubled(limit):
    # one is_prime per candidate q and p, kept independent of the sieve
    return [(q, 2 * q - 1) for q in range(2, (limit + 1) // 2 + 1)
            if is_prime(q) and is_prime(2 * q - 1)]


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 1000, 100_000])
def test_nearly_doubled_primes_match_reference_loop(limit):
    got = [(pair.q, pair.p) for pair in nearly_doubled_primes(limit)]
    assert got == _reference_nearly_doubled(limit)


@pytest.mark.parametrize("ptilde,kmax,expected", [
    (3, 50, [1, 5]),
    (9, 50, [1, 2, 6, 42]),
    (15, 40, [1, 9, 37]),
    (9, 1000, [1, 2, 6, 42]),
    # N = 2, 3, 5 (ptilde 1, k = 0, 1, 2) and N = 13 (ptilde 3, k = 2) are
    # themselves primes of the sieve and must not be struck
    (1, 0, [0]),
    (1, 1, [0, 1]),
    (1, 20, [0, 1]),
    (3, 1, [1]),
    (3, 2, [1]),
])
def test_cunningham_pairs(ptilde, kmax, expected):
    assert cunningham_pairs(ptilde, kmax) == expected


def test_cunningham_pairs_define_nearly_doubled_pairs():
    for k in cunningham_pairs(9, 50):
        q = 9 * 2 ** k + 1
        assert is_prime(q) and is_prime(2 * q - 1)


def test_cunningham_pairs_rejects_even_ptilde():
    with pytest.raises(ValueError):
        cunningham_pairs(2, 10)


def _reference_pairs(ptilde, k_max):
    prime_at = [is_prime(ptilde * 2 ** k + 1) for k in range(k_max + 2)]
    return [k for k in range(k_max + 1) if prime_at[k] and prime_at[k + 1]]


@pytest.mark.parametrize("ptilde,kmax",
                         [(p, 300) for p in list(range(1, 64, 2)) + [105, 1155, 15015]]
                         + [(2 ** 64 + 1, 90), (3 ** 41, 90), (2 ** 70 + 3, 90)]
                         + [(p, k) for p in (1, 3, 9, 15) for k in range(59, 66)])
def test_cunningham_pairs_match_reference_loop(ptilde, kmax):
    # both sieves, pair-aware testing and Proth against one is_prime per
    # candidate; ptilde >= 2^k at the smallest k of every case, and above 2^64
    # (where Miller-Rabin stays) for the three large ptilde up to k = 64-70;
    # k_max 59-65 is where the primorial's bound first passes 1000
    assert cunningham_pairs(ptilde, kmax) == _reference_pairs(ptilde, kmax)


def test_strike_bound_first_passes_the_walk_bound():
    assert numtheory._strike_bound(1, 61) < numtheory._SIEVE_BOUND
    assert numtheory._strike_bound(1, 62) > numtheory._SIEVE_BOUND
    assert numtheory._strike_bound(9, 58) < numtheory._SIEVE_BOUND
    assert numtheory._strike_bound(9, 59) > numtheory._SIEVE_BOUND


def test_strike_bound_is_capped():
    # no search runs: a k_max of 10^9 would otherwise sieve to 1.6 * 10^10
    assert numtheory._strike_bound(9, 10 ** 9) == numtheory._STRIKE_CAP
    assert numtheory._strike_bound(2 ** 70 + 3, 10 ** 9) <= numtheory._STRIKE_CAP


def test_a_prime_of_the_primorial_range_is_not_struck():
    # 9*2^7 + 1 = 1153 is a prime between 1000 and the bound at (9, 1000); it
    # divides the primorial, so its gcd with it is itself, and the pair
    # k = 6 (577, 1153) is reported
    assert is_prime(1153) and 9 * 2 ** 7 + 1 == 1153
    assert numtheory._SIEVE_BOUND < 1153 < numtheory._strike_bound(9, 1000)
    assert 6 in cunningham_pairs(9, 1000)


def test_primorial_stage_spares_proth_tests(monkeypatch):
    tested = []

    def spy(n, rounds):
        tested.append(n)
        return _proth_prime(n, rounds)

    monkeypatch.setattr(numtheory, "_proth_prime", spy)
    assert cunningham_pairs(9, 1000) == [1, 2, 6, 42]
    assert len(tested) == len(set(tested)) == 19   # 41 after the walk alone
    primes_in_range = [p for p in range(1001, numtheory._strike_bound(9, 1000))
                       if is_prime(p)]
    assert all(gcd(n, prod(primes_in_range)) in (1, n) for n in tested)


@pytest.mark.parametrize("k,prime", [
    (65, True), (134, True),
    # 9*2^68 + 1 has the witness 5 as a factor; 9*2^66 + 1 and 9*2^71 + 1
    # have no factor among the witnesses
    (66, False), (68, False), (71, False),
])
def test_proth_prime(k, prime):
    assert _proth_prime(9 * 2 ** k + 1, 40) == prime


def test_proth_prime_agrees_with_is_prime_below_2_20():
    # cunningham_pairs trusts Proth's theorem below 2^64 as well
    proth = [ptilde * 2 ** k + 1 for k in range(1, 20)
             for ptilde in range(1, min(2 ** k, 2 ** (20 - k)), 2)]
    assert len(proth) > 1000
    for n in proth:
        assert _proth_prime(n, 40) == is_prime(n), n


def test_proth_prime_square_falls_back_to_miller_rabin(monkeypatch):
    n = (2 ** 40 + 1) ** 2
    assert n == (2 ** 39 + 1) * 2 ** 41 + 1
    fallbacks = []

    def spy(m, rounds=40):
        fallbacks.append(m)
        return is_prime(m, rounds)

    monkeypatch.setattr(numtheory, "is_prime", spy)
    assert not _proth_prime(n, 40)
    assert fallbacks == [n]
