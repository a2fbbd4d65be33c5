"""Elementary number theory: one factorisation (read by the totient and the
3 mod 4 test) and the divisor-totient table over it (divisors), primality over
the 2-adic split, nearly doubled primes and Cunningham chains of the second kind.
A chain candidate ptilde*2^k + 1 passes two sieves before any test: a walk over
the odd primes below 1000, then one gcd with the product of the primes from
1000 up to sixteen times the candidates' bit length (capped); Proth's theorem
then decides it when ptilde < 2^k.

All functions are pure and operate on Python integers of arbitrary size.
"""

from __future__ import annotations

from functools import cache
from math import gcd, isqrt, prod
from typing import NamedTuple

# Deterministic Miller-Rabin witnesses: the twelve primes up to 37 are correct
# for all n < 3.18 * 10^23; only the 64-bit range is relied on.
_SMALL_PRIME_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_DETERMINISTIC_BOUND = 1 << 64

# A composite below 41^2 has a prime factor of at most 37, so an n below this
# that no witness divides is prime.
_TRIAL_BOUND = 41 * 41


def factorize(n: int) -> list[tuple[int, int]]:
    """Ascending (prime, exponent) pairs whose prime powers multiply to n:
    the package's one trial division."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            factors.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return factors


def divisor_totients(n: int) -> list[tuple[int, int]]:
    """Ascending (d, phi(d)) for every divisor d of n.

    Each prime power p^k of n extends every divisor d found so far to d*p^j,
    j = 1..k, with phi(d*p^j) = phi(d) * (p-1) * p^(j-1).
    """
    pairs = [(1, 1)]
    for p, k in factorize(n):
        grown, power, phi = [], 1, p - 1
        for _ in range(k):
            power *= p
            grown += [(d * power, f * phi) for d, f in pairs]
            phi *= p
        pairs += grown
    pairs.sort()
    return pairs


def euler_phi(n: int) -> int:
    """Count of units modulo n (order of the multiplicative group Z_n^*)."""
    for p, _ in factorize(n):
        n -= n // p
    return n


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    return [d for d, _ in divisor_totients(n)]


def is_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test.

    Trial division by the twelve witness primes comes first; it alone decides
    every n < 41^2 = 1681.  Above that the test is deterministic (fixed
    witness set) for n < 2^64.  For larger n the fixed witnesses are topped
    up with `rounds` extra bases drawn from a PRNG seeded by n itself, so
    results are reproducible; the error probability is at most 4^(-rounds)
    for composite n.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIME_WITNESSES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_BOUND:
        return True
    _, d, s = odd_part_decomposition(n - 1)
    bases = list(_SMALL_PRIME_WITNESSES)
    if n >= _DETERMINISTIC_BOUND:
        import random   # only this branch needs it; it slows every cold start
        rng = random.Random(n)
        bases += [rng.randrange(2, n - 1) for _ in range(rounds)]
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OddPartDecomposition(NamedTuple):
    """n = odd_part * 2^two_exponent with odd_part odd."""

    n: int
    odd_part: int
    two_exponent: int


def odd_part_decomposition(n: int) -> OddPartDecomposition:
    """Split n into its maximal odd divisor and the complementary power of two."""
    if n < 1:
        raise ValueError(f"odd_part_decomposition requires n >= 1, got {n}")
    k = 0
    m = n
    while m % 2 == 0:
        m //= 2
        k += 1
    return OddPartDecomposition(n=n, odd_part=m, two_exponent=k)


def has_prime_divisor_3_mod_4(n: int) -> bool:
    """Whether some prime divisor of n is congruent to 3 mod 4."""
    return any(p % 4 == 3 for p, _ in factorize(n))


class PrimePair(NamedTuple):
    """A nearly doubled prime pair: p = 2q - 1 with both q and p prime."""

    q: int
    p: int


def nearly_doubled_primes(limit: int) -> list[PrimePair]:
    """All pairs (q, p) of primes with p = 2q - 1 <= limit, sorted by p."""
    if limit < 2:
        raise ValueError(f"nearly_doubled_primes requires limit >= 2, got {limit}")
    odd = _primes_below(limit + 1)
    primes = set(odd)
    pairs = [PrimePair(q=2, p=3)] if limit >= 3 else []
    pairs += [PrimePair(q=(p + 1) // 2, p=p) for p in odd if (p + 1) // 2 in primes]
    return pairs


# Odd primes below this bound sieve the chain candidates before any test.
_SIEVE_BOUND = 1000

# However large k_max, the gcd stage takes no prime above this cap.  Sieving to
# it and multiplying its primes take about 2 s, while the candidates that reach
# it have 65,000 bits and more, where one Proth test takes minutes.
_STRIKE_CAP = 1 << 20


def _strike_bound(ptilde: int, k_max: int) -> int:
    """The primes in [_SIEVE_BOUND, this bound) strike the chain candidates up
    to k_max by one gcd with their product: sixteen times the candidates' bit
    length, at most _STRIKE_CAP."""
    return min(16 * (k_max + ptilde.bit_length()), _STRIKE_CAP)


def _primes_below(bound: int) -> list[int]:
    """Odd primes below bound (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * bound
    for i in range(3, isqrt(bound - 1) + 1, 2):
        if sieve[i]:
            sieve[i * i::2 * i] = bytes(len(range(i * i, bound, 2 * i)))
    return [p for p in range(3, bound, 2) if sieve[p]]


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 1."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _proth_prime(n: int, rounds: int) -> bool:
    """Primality of a Proth number n = ptilde*2^k + 1 (odd ptilde < 2^k), any size.

    Proth's theorem: with (a|n) = -1, n is prime iff a^((n-1)/2) = -1 mod n,
    so one exponentiation decides and a "prime" answer is a proof.  A witness
    sharing a factor with n shows n composite.  When no witness has symbol -1
    (n a perfect square, for one) this falls back to is_prime.
    """
    for a in _SMALL_PRIME_WITNESSES:
        symbol = _jacobi(a, n)
        if symbol == 0:
            return False
        if symbol == -1:
            return pow(a, (n - 1) // 2, n) == n - 1
    return is_prime(n, rounds)


def cunningham_pairs(ptilde: int, k_max: int, rounds: int = 40) -> list[int]:
    """Chain starts k <= k_max with ptilde*2^k + 1 and ptilde*2^(k+1) + 1 both prime.

    These are Cunningham chains of the second kind of length 2 over the family
    ptilde*2^k + 1; each reported k yields the nearly doubled pair
    q = ptilde*2^k + 1, p = ptilde*2^(k+1) + 1 = 2q - 1.  The smaller index of
    each pair is reported.

    Two sieves run before any test.  First each odd prime l < 1000 strikes
    the k where l properly divides ptilde*2^k + 1; those k recur with period
    ord_l(2).  Then, once some pair k, k + 1 has survived that walk, one gcd
    with the product of the primes in [1000, B) strikes each number of a
    surviving pair that has a proper factor there, where B is sixteen times
    the bit length of ptilde*2^k_max (capped, see _strike_bound).  A k is
    tested only when k and k + 1 both survive both sieves, and each number is
    tested at most once.  A number with ptilde < 2^k is decided by Proth's
    theorem at any size, so a reported prime is proven; one with
    ptilde >= 2^k goes to is_prime, which adds `rounds` extra Miller-Rabin
    bases above 2^64.
    """
    if ptilde < 1 or ptilde % 2 == 0:
        raise ValueError(f"cunningham_pairs requires odd ptilde >= 1, got {ptilde}")
    small = _primes_below(_SIEVE_BOUND)
    alive = bytearray([1]) * (k_max + 2)
    for ell in small:
        # r = ptilde*2^k mod l takes each value at most once per period
        start = r = ptilde % ell
        hit, period = None, k_max + 2
        for k in range(k_max + 2):
            if r == ell - 1:
                hit = k
            r = 2 * r % ell
            if r == start:
                period = k + 1
                break
        if hit is None:
            continue
        if (ptilde << hit) + 1 == ell:  # the number is l itself: keep it
            hit += period
        alive[hit::period] = bytes(len(range(hit, k_max + 2, period)))
    walked = [k for k in range(k_max + 1) if alive[k] and alive[k + 1]]
    if not walked:
        return []
    primorial = prod(_primes_below(_strike_bound(ptilde, k_max))[len(small):])

    @cache
    def rough(k: int) -> bool:
        # a gcd of n itself means n is a prime (or a product of primes) of the range
        n = (ptilde << k) + 1
        return gcd(n, primorial) in (1, n)

    @cache
    def prime_at(k: int) -> bool:
        n = (ptilde << k) + 1
        return _proth_prime(n, rounds) if ptilde < (1 << k) else is_prime(n, rounds)

    return [k for k in walked
            if rough(k) and rough(k + 1) and prime_at(k) and prime_at(k + 1)]
