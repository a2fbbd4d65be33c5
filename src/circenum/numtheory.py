"""Elementary number theory: totient, divisors, primality, 2-adic splits,
nearly doubled primes and Cunningham chains of the second kind.

All functions are pure and operate on Python integers of arbitrary size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Deterministic Miller-Rabin witnesses: the twelve primes up to 37 are correct
# for all n < 3.18 * 10^23; only the 64-bit range is relied on.
_SMALL_PRIME_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_DETERMINISTIC_BOUND = 1 << 64


def euler_phi(n: int) -> int:
    """Count of units modulo n (order of the multiplicative group Z_n^*)."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    large.reverse()
    return small + large


def is_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test.

    Deterministic (fixed witness set) for n < 2^64.  For larger n the fixed
    witnesses are topped up with `rounds` extra bases drawn from a PRNG seeded
    by n itself, so results are reproducible; the error probability is at most
    4^(-rounds) for composite n.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIME_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = list(_SMALL_PRIME_WITNESSES)
    if n >= _DETERMINISTIC_BOUND:
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


@dataclass(frozen=True)
class OddPartDecomposition:
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
    m = odd_part_decomposition(n).odd_part
    p = 3
    while p * p <= m:
        if m % p == 0:
            if p % 4 == 3:
                return True
            while m % p == 0:
                m //= p
        p += 2
    return m % 4 == 3


@dataclass(frozen=True)
class PrimePair:
    """A nearly doubled prime pair: p = 2q - 1 with both q and p prime."""

    q: int
    p: int


def nearly_doubled_primes(limit: int) -> list[PrimePair]:
    """All pairs (q, p) of primes with p = 2q - 1 <= limit, sorted by p."""
    if limit < 2:
        raise ValueError(f"nearly_doubled_primes requires limit >= 2, got {limit}")
    pairs = []
    for q in range(2, (limit + 1) // 2 + 1):
        p = 2 * q - 1
        if p <= limit and is_prime(q) and is_prime(p):
            pairs.append(PrimePair(q=q, p=p))
    return pairs


def cunningham_pairs(ptilde: int, k_max: int, rounds: int = 40) -> list[int]:
    """Chain starts k <= k_max with ptilde*2^k + 1 and ptilde*2^(k+1) + 1 both prime.

    These are Cunningham chains of the second kind of length 2 over the family
    ptilde*2^k + 1; each reported k yields the nearly doubled pair
    q = ptilde*2^k + 1, p = ptilde*2^(k+1) + 1 = 2q - 1.  The smaller index of
    each pair is reported.  Probabilistic above 2^64 (see is_prime).
    """
    if ptilde < 1 or ptilde % 2 == 0:
        raise ValueError(f"cunningham_pairs requires odd ptilde >= 1, got {ptilde}")
    prime_at = [is_prime(ptilde * (1 << k) + 1, rounds) for k in range(k_max + 2)]
    return [k for k in range(k_max + 1) if prime_at[k] and prime_at[k + 1]]
