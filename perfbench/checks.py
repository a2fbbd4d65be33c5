"""Answers for the benchmark's queries, computed without circenum.

Nothing here imports circenum.  Every expected value comes from one of:

* the necklace formula for prime orders,
* a Burnside count over the unit group of Z_n (multiplier orbits), which is
  the exact isomorphism-class count wherever Muzychuk's theorem makes every
  circulant a CI-graph, and an upper bound everywhere else,
* Proth or Pocklington certificates for primes and Fermat witnesses for
  composites,
* the published catalog of circulant counts (``catalog.py``),
* identities of the paper checked as properties of several outputs.

Each ``check_*`` function returns a list of complaints; an empty list means
the answer is right.
"""

from __future__ import annotations

from collections import Counter
from math import comb, gcd

from catalog import SD_169, TABLE1, TABLE1_CLASSES

# --- elementary number theory (trial division, small arguments only) --------


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def is_small_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def is_ci_order(n: int, undirected: bool) -> bool:
    """Muzychuk: every circulant digraph of order n is a CI-graph iff
    n = k, 2k or 4k with k odd and squarefree; for undirected circulants the
    orders 8, 9 and 18 qualify as well."""
    if undirected and n in (8, 9, 18):
        return True
    k = n
    for _ in range(2):
        if k % 2 == 0:
            k //= 2
    return k % 2 == 1 and all(e == 1 for e in factorize(k).values())


# --- sparse polynomials as {exponent: coefficient} ------------------------


def _mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def _binomial_row(length: int, coeff: int, k: int) -> dict[int, int]:
    """(1 + coeff * z^length)^k."""
    return {length * j: comb(k, j) * coeff ** j for j in range(k + 1)}


def _dense(poly: dict[int, int], divisor: int) -> list[int]:
    top = max((e for e, c in poly.items() if c), default=-1)
    out = [0] * (top + 1)
    for e, c in poly.items():
        q, rem = divmod(c, divisor)
        if rem:
            raise ArithmeticError(f"inexact division of {c} by {divisor}")
        out[e] = q
    return out


# --- the necklace formula ---------------------------------------------------


def necklace_series(m: int, stride: int = 1) -> list[int]:
    """Coefficients of sum_r c(r) z^(stride*r), r = 0..m, where
    c(r) = (1/m) sum_{d | gcd(m, r)} phi(d) C(m/d, r/d).

    At a prime order p this is the directed valency series (m = p-1,
    stride 1) and the undirected one (m = (p-1)/2 by semi-valency, stride 2).
    """
    divs = [(d, phi(d)) for d in divisors(m)]
    out = [0] * (stride * m + 1)
    for r in range(m + 1):
        total = sum(ph * comb(m // d, r // d) for d, ph in divs if r % d == 0)
        q, rem = divmod(total, m)
        if rem:
            raise ArithmeticError(f"necklace sum at r={r} not divisible by {m}")
        out[stride * r] = q
    return out


# --- Burnside over the multipliers ------------------------------------------


def _order_mod(m: int, e: int, phi_divisors: list[int]) -> int:
    for d in phi_divisors:
        if pow(m, d, e) == 1:
            return d
    raise ArithmeticError(f"{m} is not a unit mod {e}")


def _cycle_types(n: int) -> Counter:
    """For each unit m of Z_n, per level e | n (e > 1) -- the elements s with
    n / gcd(s, n) = e, a copy of the units mod e -- the cycle length
    ord_e(m) of s -> m*s and whether -1 lies in <m> mod e.  Returns the count
    of units per tuple of levels."""
    levels = [(e, phi(e), divisors(phi(e))) for e in divisors(n) if e > 1]
    types: Counter = Counter()
    for m in range(1, max(n, 2)):
        if gcd(m, n) != 1:
            continue
        sig = []
        for e, ph, phdivs in levels:
            o = _order_mod(m, e, phdivs)
            negated = e > 2 and o % 2 == 0 and pow(m, o // 2, e) == e - 1
            sig.append((e, ph, o, e <= 2 or negated))
        types[tuple(sig)] += 1
    return types


def burnside_series(n: int, klass: str) -> list[int]:
    """Valency series of the multiplier orbits of class-klass connection sets
    (klass d, u or o), by Burnside's lemma over the units of Z_n."""
    total: dict[int, int] = {}
    units = 0
    for sig, count in _cycle_types(n).items():
        units += count
        factors: Counter = Counter()   # (length, coeff) -> exponent
        for e, ph, o, neg_in in sig:
            if klass == "d":
                factors[(o, 1)] += ph // o
            elif klass == "u":
                # orbits of <m, -1>: whole negation-closed blocks
                size = o if neg_in else 2 * o
                if e == 2:
                    size = 1
                factors[(size, 1)] += ph // size
            elif klass == "o":
                # a cycle C with -C != C pairs with -C: take neither or one
                if not neg_in:
                    factors[(o, 2)] += ph // (2 * o)
            else:
                raise ValueError(f"no valency series for class {klass!r}")
        poly = {0: count}
        for (length, coeff), k in factors.items():
            poly = _mul(poly, _binomial_row(length, coeff, k))
        for exp, c in poly.items():
            total[exp] = total.get(exp, 0) + c
    return _dense(total, units)


def burnside_total(n: int, klass: str) -> int:
    """Multiplier-orbit count for any of the six classes.  For sd and su this
    counts the orbits closed under complement composed with a multiplier."""
    if klass in ("d", "u", "o"):
        return sum(burnside_series(n, klass))
    fixed = 0
    units = 0
    for sig, count in _cycle_types(n).items():
        units += count
        value = 1
        for e, ph, o, neg_in in sig:
            if klass == "t":
                # one of each pair {C, -C}; a self-negating cycle kills it
                if neg_in:
                    value = 0
                else:
                    value *= 2 ** (ph // (2 * o))
            elif klass == "sd":
                # S = complement(m S): every cycle alternates, so has even length
                value = value * 2 ** (ph // o) if o % 2 == 0 else 0
            elif klass == "su":
                # the same on the pairs {s, -s}
                length = 1 if e == 2 else (o // 2 if neg_in else o)
                cycles = 1 if e == 2 else (ph // 2) // length
                value = value * 2 ** cycles if length % 2 == 0 else 0
            else:
                raise ValueError(f"unknown class {klass!r}")
        fixed += count * value
    q, rem = divmod(fixed, units)
    if rem:
        raise ArithmeticError(f"Burnside sum {fixed} not divisible by {units}")
    return q


def prime_series(p: int, klass: str) -> list[int]:
    if klass == "d":
        return necklace_series(p - 1)
    if klass == "u":
        return necklace_series((p - 1) // 2, stride=2)
    raise ValueError(f"no necklace series for class {klass!r}")


# --- primality certificates --------------------------------------------------


def _jacobi(a: int, n: int) -> int:
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


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def certify(h: int, k: int) -> tuple[bool, str]:
    """Decide whether N = h*2^k + 1 (h odd) is prime, with a certificate:
    a factor or a Fermat witness for a composite, a Proth witness
    (h < 2^k) or a Pocklington witness set for a prime."""
    n = h * (1 << k) + 1
    if n < 1 << 20:
        return is_small_prime(n), "trial division"
    if pow(2, n - 1, n) != 1:
        return False, "Fermat witness 2"
    if h < 1 << k:
        a = next((a for a in _BASES if _jacobi(a, n) == -1), None)
        if a is not None and pow(a, (n - 1) // 2, n) == n - 1:
            return True, f"Proth witness {a}"
    else:
        # Pocklington, with n-1 = h*2^k fully factored
        fermat = [a for a in _BASES if pow(a, n - 1, n) == 1]
        if all(any(gcd(pow(a, (n - 1) // q, n) - 1, n) == 1 for a in fermat)
               for q in {2} | set(factorize(h))):
            return True, "Pocklington witnesses"
    for a in _BASES[1:]:
        if pow(a, n - 1, n) != 1:
            return False, f"Fermat witness {a}"
    raise ArithmeticError(f"no certificate for {h}*2^{k}+1")


def chain_starts(ptilde: int, k_max: int) -> list[int]:
    prime = [certify(ptilde, k)[0] for k in range(k_max + 2)]
    return [k for k in range(k_max + 1) if prime[k] and prime[k + 1]]


# --- parsing the CLI's text output --------------------------------------------


def parse_series(text: str) -> tuple[list[int], str]:
    """'c0 c1 ... (provenance)' -> (coefficients, provenance)."""
    *coeffs, tag = text.split()
    return [int(c) for c in coeffs], tag.strip("()")


def parse_total(text: str) -> tuple[int, str]:
    value, tag = text.split()
    return int(value), tag.strip("()")


def parse_table1(text: str) -> dict[int, dict[str, int]]:
    lines = text.strip().splitlines()
    header = lines[0].split("\t")
    if header != ["n", "C_d", "C_u", "C_o", "C_sd", "C_su", "C_t"]:
        raise ValueError(f"unexpected table header {header}")
    rows = {}
    for line in lines[1:]:
        n, *cells = line.split("\t")
        rows[int(n)] = dict(zip(TABLE1_CLASSES, (int(c) for c in cells)))
    return rows


# --- checks -------------------------------------------------------------------


def compare_series(got: list[int], want: list[int], what: str) -> list[str]:
    if got == want:
        return []
    if len(got) != len(want):
        return [f"{what}: {len(got)} coefficients, expected {len(want)}"]
    r = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return [f"{what}: coefficient {r} is {got[r]}, expected {want[r]}"]


def check_series_bound(got: list[int], bound: list[int], what: str) -> list[str]:
    """Isomorphism classes never outnumber multiplier orbits, valency by valency."""
    if len(got) != len(bound):
        return [f"{what}: {len(got)} coefficients, expected {len(bound)}"]
    over = [r for r, (a, b) in enumerate(zip(got, bound)) if a > b or a < 0]
    return [f"{what}: coefficient {over[0]} = {got[over[0]]} outside 0..{bound[over[0]]}"] if over else []


def check_palindrome(got: list[int], what: str) -> list[str]:
    """Complementation maps valency r to n-1-r."""
    return [] if got == got[::-1] else [f"{what}: series is not palindromic"]


def check_table1(rows: dict[int, dict[str, int]], max_order: int) -> list[str]:
    """Catalog values (oriented corrections included) and Burnside bounds."""
    problems = []
    if sorted(rows) != list(range(2, max_order + 1)):
        return [f"table rows {sorted(rows)}, expected 2..{max_order}"]
    for n, cells in rows.items():
        for klass in TABLE1_CLASSES:
            got = cells[klass]
            want = TABLE1[n][klass]
            if got != want:
                problems.append(f"table 1 n={n} {klass}: {got}, catalog {want}")
            orbits = burnside_total(n, klass)
            exact = is_ci_order(n, undirected=klass in ("u", "su"))
            if klass in ("sd", "su") and not exact:
                continue
            if got > orbits or (exact and got != orbits):
                problems.append(f"table 1 n={n} {klass}: {got} against "
                                f"{orbits} multiplier orbits")
    return problems


def p2_relations(p: int, sd: int, su: int, t: int,
                 d_series: list[int] | None = None) -> list[str]:
    """Identities 5.6, 3.5, 3.4 and 6.1 at order p^2, with the order-p
    counts from Burnside (every circulant of prime order is a CI-graph)."""
    problems = []
    su_p, t_p = burnside_total(p, "su"), burnside_total(p, "t")
    if sd != su + t + 2 * su_p * t_p:
        problems.append(f"5.6 at {p}^2: C_sd={sd} != C_su+C_t+2*{su_p}*{t_p} "
                        f"= {su + t + 2 * su_p * t_p}")
    if p % 4 == 3 and sd != t:
        problems.append(f"3.5 at {p}^2: C_sd={sd} != C_t={t}")
    if p % 4 == 3 and su != 0:
        problems.append(f"3.4 at {p}^2: C_su={su} != 0")
    if d_series is not None:
        alternating = sum(c if r % 2 == 0 else -c for r, c in enumerate(d_series))
        if alternating != sd:
            problems.append(f"6.1 at {p}^2: c_d(-1)={alternating} != C_sd={sd}")
    return problems


def at_gaussian_unit(series: list[int]) -> int:
    """Evaluate an even-power series at z^2 = -1."""
    return sum(c if r % 4 == 0 else -c for r, c in enumerate(series) if r % 2 == 0)


def log_concavity_violations(order: int, u_series: list[int]) -> list[tuple[int, int, int, int]]:
    """Interior r with a_r^2 < a_(r-1) a_(r+1), a_r the count at valency 2r,
    1 < r < (order-1)/2 - 1 (the CLI's documented range)."""
    seq = u_series[0::2]
    return [(r, seq[r - 1], seq[r], seq[r + 1])
            for r in range(2, min((order - 1) // 2 - 1, len(seq) - 1))
            if seq[r] ** 2 < seq[r - 1] * seq[r + 1]]


# --- the identity registry's coverage, from the paper's hypotheses -----------

_PRIME_KEYS = ("3.7", "4.1", "4.1''", "6.4", "6.7")
_HALF_KEYS = ("3.1", "3.1'", "3.2")
_NEARLY_DOUBLED_KEYS = ("4.2", "4.3", "4.3'", "4.4", "4.5", "4.6", "4.6'", "4.7", "4.7'")
LEMMA_KEYS = ("L2.1", "L2.4", "L2.6", "L2.7")
# Keys whose two sides are printed in the same form, so equal when they hold.
_DIFFERENT_FORMS = ("4.1'", "4.1''", "6.5", "6.6")


def identity_orders(max_order: int, lemma_max: int, desk_limit: int = 16) -> dict[str, list[int]]:
    """For every identity key, the orders (parameters, for the lemmas) at
    which its hypotheses hold and a closed form covers both sides, up to the
    bounds; the oracle-backed cells are those of order at most desk_limit."""
    odd_primes = [n for n in range(3, max_order + 1) if is_small_prime(n)]
    squares = [p * p for p in odd_primes if p * p <= max_order]
    twice = [2 * p for p in odd_primes if 2 * p <= max_order]
    half = [p for p in odd_primes if is_small_prime((p + 1) // 2)]
    nearly_doubled = [p for p in half if (p + 1) // 2 >= 3]
    mod4_3 = sorted([p for p in odd_primes if p % 4 == 3]
                    + [p * p for p in odd_primes if p % 4 == 3 and p * p <= max_order])
    orders = {key: odd_primes for key in _PRIME_KEYS}
    orders.update({key: half for key in _HALF_KEYS})
    orders.update({key: nearly_doubled for key in _NEARLY_DOUBLED_KEYS})
    orders.update({
        "3.3": [p for p in nearly_doubled if p > 3],
        "3.4": mod4_3,
        "3.5": mod4_3,
        "3.6": [p for p in half if p % 8 == 5],
        "3.8": twice,
        "4.1'": [p for p in odd_primes if p % 4 == 3],
        "5.2": [n for n in squares if n <= desk_limit],
        "5.3": squares,
        "5.4": [n for n in squares if n <= desk_limit],
        "5.5": squares,
        "5.6": squares,
        "6.1": sorted(odd_primes + twice + squares),
        "6.2": sorted(odd_primes + squares),
    })
    orders["3.3'"] = orders["3.3"]
    orders["6.3"] = orders["6.5"] = orders["6.1"]
    orders["6.6"] = orders["6.2"]
    orders.update({key: list(range(1, lemma_max + 1)) for key in LEMMA_KEYS})
    return orders


def known_sd(n: int) -> int | None:
    """C_sd(n) where it is known without circenum: Burnside at CI orders,
    0 at even orders, the catalog otherwise."""
    if n % 2 == 0:
        return 0
    if is_ci_order(n, undirected=False):
        return burnside_total(n, "sd")
    if n == 169:
        return SD_169
    return TABLE1[n]["sd"] if n in TABLE1 else None


def check_identity_records(records: list[dict], max_order: int, lemma_max: int) -> list[str]:
    """The JSON records of ``verify --all``: every cell present and holding,
    and the sides that are plain counts equal to independent values."""
    problems = []
    found: dict[str, list[int]] = {}
    for rec in records:
        found.setdefault(rec["key"], []).append(rec["order"])
    want = identity_orders(max_order, lemma_max)
    for key in sorted(set(want) | set(found)):
        if sorted(found.get(key, [])) != want.get(key):
            problems.append(f"identity {key}: orders {sorted(found.get(key, []))}, "
                            f"expected {want.get(key)}")
    for rec in records:
        key, n, lhs, rhs = rec["key"], rec["order"], rec["lhs"], rec["rhs"]
        where = f"identity {key} at {n}"
        if rec["status"] != "holds":
            problems.append(f"{where}: status {rec['status']}")
        if key not in _DIFFERENT_FORMS and key not in LEMMA_KEYS and lhs != rhs:
            problems.append(f"{where}: sides differ: {lhs} / {rhs}")
        expected = None
        if key == "3.1":
            expected = str(prime_series(n, "u"))
        elif key == "3.1'":
            expected = str(sum(prime_series(n, "u")))
        elif key == "3.7":
            expected = str(burnside_total(n, "sd"))
        elif key == "4.1":
            expected = str(2 * burnside_total(n, "sd"))
        elif key == "4.4":
            expected = str(4 * sum(prime_series(n, "d")))
        elif key in ("5.6", "6.1") and known_sd(n) is not None:
            expected = str(known_sd(n))
        if expected is not None and lhs != expected:
            problems.append(f"{where}: left side {lhs[:60]}, expected {expected[:60]}")
    return problems


def check_identity_summary(rows: list[dict], max_order: int, lemma_max: int) -> list[str]:
    """The CSV summary of ``verify --all``: one row per key, with its orders."""
    want = identity_orders(max_order, lemma_max)
    problems = []
    if sorted(row["key"] for row in rows) != sorted(want):
        return [f"summary keys {[row['key'] for row in rows]}, expected {sorted(want)}"]
    for row in rows:
        orders = [int(n) for n in row["orders"].split()]
        if orders != want[row["key"]]:
            problems.append(f"summary {row['key']}: orders {orders}, expected {want[row['key']]}")
        if (row["holds"], row["fails"], row["status"]) != (str(len(orders)), "0", "holds"):
            problems.append(f"summary {row['key']}: {row['holds']} hold, "
                            f"{row['fails']} fail, {row['status']}")
    return problems
