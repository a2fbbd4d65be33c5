"""Registry of counting identities, each machine-checkable.

Every identity has a key (the registry id used on the command line), an
applicability predicate expressing its hypotheses, and a checker that
recomputes BOTH sides through counting, never one side from the other's
intermediates.  Not every identity is an independent test of the formulas:
at odd orders value_at(n, "d", -1) and value_at(n, "u", 1j) run exactly the
sd and su substitutions on the same cycle index, so 6.1, 6.2 and the
odd-order cells of 6.5 and 6.6 compare one computation with itself, and 6.4
and 6.7 restate 4.1; counting's test_point_values_equal_the_series, which
reads the series at those points, is their independent check.
Every class value is read through _class_total: the closed form's value at
z = 1, -1 or i (counting.value_at) without a valency series, 0 for sd, su
and t at every even order, and at a power z^k of z the valency series at
z^k (count_by_formula).  The 29 that equate sums of products of class values,
series and constants (such as mixed_sd(p) and 2 Cbar_u(2pt+1)) list their
terms, (coeff, factor, ...) with each factor an (order, class[, point]), in
the registry and share one checker, _check_totals.  Five keys keep their own
checker: 3.8 and 4.3' compare coefficient slices, 5.2 a tuple of oracle
counts, and 6.5 and 6.6 a parity split.  verify_range runs the checks
at each order in one order_memo() scope, which sits in front of the
enumerator calls and the point values: a hit there is what a pure function
would recompute, and the memo holds only the results needed at one sweep
order: a few entries for n, n+1, (n+1)/2, or p and p^2.
Orders that counting.has_formula does not cover fall back to the exhaustive
oracle where oracle.covers says it answers: always for (p+1)/2 = 2 and for
the non-CI counts at p^2 = 9, and at the other orders with allow_oracle
(verify --oracle): the rule `covered`.

The four L2.* keys are cycle-index lemmas checked symbolically over the
formal variables x_1, x_2, ... at a parameter m >= 1; everything else is
numeric or polynomial.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import UnsupportedOrderError
from .algebra import UniPoly, cycle_index, half_exponent, to_sym
from .counting import (count_by_formula, even_odd_split,
                       formal_undirected, formula_kind, has_formula, mixed_sd,
                       order_memo, oriented_alternating_expected, value_at)
from .numtheory import (has_prime_divisor_3_mod_4, is_prime,
                        odd_part_decomposition)
from . import oracle


class IdentityReport(NamedTuple):
    key: str
    order: int
    status: str   # "holds" | "fails" | "not-applicable"
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return self._asdict()


def _odd_prime(n: int) -> bool:
    return n % 2 == 1 and is_prime(n)


def _half_successor_prime(p: int) -> bool:
    """p prime with (p+1)/2 prime as well."""
    return _odd_prime(p) and is_prime((p + 1) // 2)


def _nearly_doubled_odd(p: int) -> bool:
    """p and q = (p+1)/2 both odd primes (q > 2, so the order p+1 = 2q has
    counting formulas)."""
    return _half_successor_prime(p) and p > 3


def _odd_prime_square(n: int):
    kind = formula_kind(n)
    return kind[1] if kind and kind[0] == "prime_squared" else None


# z, the point at which a class value is its valency series
_Z = UniPoly((0, 1))


def _class_total(n: int, klass: str, point: complex | UniPoly = 1) -> int | UniPoly:
    """C_klass(n) at z = point, the one reader of a class value: 0 for sd, su
    and t at even n (they need valency (n-1)/2), else the closed form's value,
    else, at z = 1 only, the oracle's count; a refused point raises.  At a
    power z^k of z it is the valency series at z^k, the closed form's where
    one covers the order, else the oracle's."""
    if n % 2 == 0 and klass in ("sd", "su", "t"):
        return 0
    if isinstance(point, UniPoly):
        try:
            count = count_by_formula(n, klass)
        except UnsupportedOrderError:
            count = oracle.enumerate_circulants(n, klass)
        return count.by_valency.stretch(point.degree)
    try:
        return value_at(n, klass, point)
    except UnsupportedOrderError:
        if point != 1:
            raise
        return oracle.enumerate_circulants(n, klass).total


def _ptilde_and_k(p: int) -> tuple[int, int]:
    """p - 1 = 2^(k+1) * ptilde with ptilde odd."""
    decomp = odd_part_decomposition(p - 1)
    return decomp.odd_part, decomp.two_exponent - 1


# --- checker bodies ---------------------------------------------------------
# Each returns (lhs_str, rhs_str, holds).

def _total(terms) -> int | UniPoly:
    """The sum over (coeff, factor, ...) terms of coeff times the product of
    its factors, each an (order, klass) or (order, klass, point) read through
    _class_total; a term with no factors is its coefficient.  A coefficient
    is an int or a series, and so is the sum."""
    total = 0
    for coeff, *factors in terms:
        for factor in factors:
            coeff *= _class_total(*factor)
        total += coeff
    return total


def _cbar(p: int) -> int:
    """Cbar_u(2 ptilde + 1), the formal count 4.2 and 4.4 add twice."""
    return formal_undirected(2 * _ptilde_and_k(p)[0] + 1, 1).coeff(0)


def _at_p_squared(check):
    """The check at n = p^2 of a check written in p."""
    return lambda n: check(_odd_prime_square(n))


def _check_totals(first, *others):
    """One sum of terms (see _total) equal to each of the others; an empty
    sum is 0."""
    lhs, rhs = _total(first), [_total(terms) for terms in others]
    return str(lhs), " = ".join(map(str, rhs)), all(r == lhs for r in rhs)


def _check_3_8(n):
    poly = _class_total(n, "u", _Z)
    odd_part = [poly.coeff(2 * r + 1) for r in range(poly.degree // 2 + 1)]
    even_part = [poly.coeff(2 * r) for r in range(poly.degree // 2 + 1)]
    return str(odd_part), str(even_part), odd_part == even_part


def _check_4_3(p, klass):
    """4.3 (klass u) and its directed twin 4.5 (klass d)."""
    ptilde, k = _ptilde_and_k(p)
    quotient = _class_total(p + 1, klass, _Z).divide_exact_poly(1 + _Z)
    return _check_totals([(2, (p, klass, _Z))],
                         [(quotient,), (formal_undirected(2 * ptilde + 1).stretch(1 << k),)])


def _check_4_3p(p):
    cu_p = _class_total(p, "u", _Z)
    cu_2q = _class_total(p + 1, "u", _Z)
    top = max(cu_p.degree, cu_2q.degree)
    lhs = [2 * cu_p.coeff(r) for r in range(2, top + 1, 4)]
    rhs = [cu_2q.coeff(r) for r in range(2, top + 1, 4)]
    return str(lhs), str(rhs), lhs == rhs


def _check_4_7(p):
    """4.7 with c_dnu = c_d - c_u, and 4.7': coefficient r of
    2 (1+z) c_dnu(p,z) is 2 (C_dnu(p,r) + C_dnu(p,r-1))."""
    return _check_totals([(2 * (1 + _Z), (p, "d", _Z)), (-2 * (1 + _Z), (p, "u", _Z))],
                         [(1, (p + 1, "d", _Z)), (-1, (p + 1, "u", _Z))])


def _check_5_2(p):
    lhs = tuple(oracle.non_ci_count(p * p, klass)[0] for klass in ("sd", "su", "t"))
    rhs = tuple(_class_total(p, klass) ** 2 for klass in ("sd", "su", "t"))
    return str(lhs), str(rhs), lhs == rhs


def _check_split(n, klass, sc):
    """6.5 (d, sd) and 6.6 (u, su): a parity split and (C +- C_s)/2."""
    even, odd = even_odd_split(n, klass)
    c = _class_total(n, klass)
    s = _class_total(n, sc)
    holds = (2 * even == c + s) and (2 * odd == c - s)
    return f"({even}, {odd})", f"(({c}+{s})/2, ({c}-{s})/2)", holds


# Cycle-index lemmas, checked symbolically at the parameter m.

def _odd(r):
    return r % 2 == 1


def _positive(m):
    return m >= 1


# to_sym rewrites of x_r^e: x_r -> 0 at odd r, then x_r -> x_(r/2) or x_r at
# even r; or x_r -> sqrt(x_r) at odd r and x_r -> 0 at even r.

def _even_halved(r, e):
    return None if _odd(r) else (r // 2, e)


def _even_only(r, e):
    return None if _odd(r) else (r, e)


def _odd_sqrt(r, e):
    return (r, half_exponent(e, f"x_{r}")) if _odd(r) else None


def _lemma_2_1(m):
    decomp = odd_part_decomposition(m)
    shift = 1 << (decomp.two_exponent + 1)
    lhs = to_sym(cycle_index(2 * m)).scale(2)
    rhs = (to_sym(cycle_index(m), lambda r, e: (r, 2 * e))
           + to_sym(cycle_index(decomp.odd_part), lambda r, e: (r * shift, e)))
    return repr(lhs), repr(rhs), lhs == rhs


def _lemma_2_4(m):
    lhs = to_sym(cycle_index(2 * m), _even_halved).scale(2)
    rhs = to_sym(cycle_index(m)) + to_sym(cycle_index(m), _even_only)
    return repr(lhs), repr(rhs), lhs == rhs


def _lemma_2_6(m):
    lhs = to_sym(cycle_index(m))
    rhs = to_sym(cycle_index(2 * m),
                 lambda r, e: _odd_sqrt(r, e) if _odd(r) else _even_halved(r, e))
    return repr(lhs), repr(rhs), lhs == rhs


def _lemma_2_7(m):
    lhs = to_sym(cycle_index(2 * m), _even_halved)
    rhs = to_sym(cycle_index(2 * m), _odd_sqrt) + to_sym(cycle_index(m), _even_only)
    return repr(lhs), repr(rhs), lhs == rhs


# --- applicability / evaluability table -------------------------------------

def _app_3_4(n):
    return n >= 3 and n % 2 == 1 and has_prime_divisor_3_mod_4(n)


def _app_3_5(n):
    kind = formula_kind(n)
    return kind is not None and kind[0] != "twice_prime" and kind[1] % 4 == 3


def covered(n: int, klass: str, allow_oracle: bool) -> bool:
    """Does a closed form cover the class at order n, or may the oracle run
    and does it cover it?"""
    return has_formula(n, klass) or (allow_oracle and oracle.covers(n, klass))


def _app_prime_square(n):
    return _odd_prime_square(n) is not None


def _eval_oracle_square(n, allow_oracle):
    # only the oracle gives the non-CI counts of sd, su and t, so 5.2 and 5.4
    # run it even without allow_oracle
    return oracle.covers(n, "sd")


_ALWAYS = lambda n, allow_oracle: True


class _Identity(NamedTuple):
    key: str
    description: str
    applies: Callable[[int], bool]
    run: Callable[[int], tuple[str, str, bool]]
    evaluable: Callable[[int, bool], bool] = _ALWAYS


_REGISTRY = [
    _Identity("3.1", "c_u(p,z) = c_d((p+1)/2, z^2)", _half_successor_prime,
              lambda p: _check_totals([(1, (p, "u", _Z))],
                                      [(1, ((p + 1) // 2, "d", _Z * _Z))])),
    _Identity("3.1'", "C_u(p) = C_d((p+1)/2)", _half_successor_prime,
              lambda p: _check_totals([(1, (p, "u"))], [(1, ((p + 1) // 2, "d"))])),
    _Identity("3.2", "C_su(p) = C_sd((p+1)/2)", _half_successor_prime,
              lambda p: _check_totals([(1, (p, "su"))], [(1, ((p + 1) // 2, "sd"))])),
    _Identity("3.3", "2 c_o(p,z) = c_o(p+1,z) + 1", _nearly_doubled_odd,
              lambda p: _check_totals([(2, (p, "o", _Z))], [(1, (p + 1, "o", _Z)), (1,)])),
    _Identity("3.3'", "2 C_o(p) = C_o(p+1) + 1", _nearly_doubled_odd,
              lambda p: _check_totals([(2, (p, "o"))], [(1, (p + 1, "o")), (1,)])),
    _Identity("3.4", "C_su(n) = 0 when some prime divisor is 3 mod 4",
              _app_3_4, lambda n: _check_totals([(1, (n, "su"))], []),
              lambda n, allow_oracle: covered(n, "su", allow_oracle)),
    _Identity("3.5", "C_sd(n) = C_t(n) at n = p, p^2 with p = 3 mod 4",
              _app_3_5, lambda n: _check_totals([(1, (n, "sd"))], [(1, (n, "t"))])),
    _Identity("3.6", "C_su(p) = C_t((p+1)/2) when p = 5 mod 8",
              lambda n: _half_successor_prime(n) and n % 8 == 5,
              lambda p: _check_totals([(1, (p, "su"))], [(1, ((p + 1) // 2, "t"))])),
    _Identity("3.7", "C_sd(p) = C_t(p) + C_su(p)", _odd_prime,
              lambda p: _check_totals([(1, (p, "sd"))], [(1, (p, "t")), (1, (p, "su"))])),
    _Identity("3.8", "C_u(2n, 2r+1) = C_u(2n, 2r)",
              lambda n: n >= 2 and n % 2 == 0, _check_3_8,
              lambda n, allow_oracle: covered(n, "u", allow_oracle)),
    _Identity("4.1", "2 C_sd(p) = C_u(p) + C_su(p)", _odd_prime,
              lambda p: _check_totals([(2, (p, "sd"))], [(1, (p, "u")), (1, (p, "su"))])),
    _Identity("4.1'", "C_u(p) = 2 C_sd(p) = 2 C_t(p) when p = 3 mod 4",
              lambda n: _odd_prime(n) and n % 4 == 3,
              lambda p: _check_totals([(1, (p, "u"))], [(2, (p, "sd"))], [(2, (p, "t"))])),
    _Identity("4.1''", "C_u(p) = C_sd(p) + C_t(p) = C_su(p) + 2 C_t(p)", _odd_prime,
              lambda p: _check_totals([(1, (p, "u"))], [(1, (p, "sd")), (1, (p, "t"))],
                                      [(1, (p, "su")), (2, (p, "t"))])),
    _Identity("4.2", "4 C_u(p) = C_u(p+1) + 2 Cbar_u(2pt+1)", _nearly_doubled_odd,
              lambda p: _check_totals([(4, (p, "u"))], [(1, (p + 1, "u")), (2 * _cbar(p),)])),
    _Identity("4.3", "2 c_u(p,z) = c_u(p+1,z)/(1+z) + cbar_u(2pt+1, z^(2^k))",
              _nearly_doubled_odd, lambda p: _check_4_3(p, "u")),
    _Identity("4.3'", "2 C_u(p,4r+2) = C_u(p+1,4r+2)",
              _nearly_doubled_odd, _check_4_3p),
    _Identity("4.4", "4 C_d(p) = C_d(p+1) + 2 Cbar_u(2pt+1)", _nearly_doubled_odd,
              lambda p: _check_totals([(4, (p, "d"))], [(1, (p + 1, "d")), (2 * _cbar(p),)])),
    _Identity("4.5", "2 c_d(p,z) = c_d(p+1,z)/(1+z) + cbar_u(2pt+1, z^(2^k))",
              _nearly_doubled_odd, lambda p: _check_4_3(p, "d")),
    _Identity("4.6", "4 C_d(p) - C_d(p+1) = 4 C_u(p) - C_u(p+1)", _nearly_doubled_odd,
              lambda p: _check_totals([(4, (p, "d")), (-1, (p + 1, "d"))],
                                      [(4, (p, "u")), (-1, (p + 1, "u"))])),
    _Identity("4.6'", "4 C_dnu(p) = C_dnu(p+1)", _nearly_doubled_odd,
              lambda p: _check_totals([(4, (p, "d")), (-4, (p, "u"))],
                                      [(1, (p + 1, "d")), (-1, (p + 1, "u"))])),
    _Identity("4.7", "2 (1+z) c_dnu(p,z) = c_dnu(p+1,z)",
              _nearly_doubled_odd, _check_4_7),
    _Identity("4.7'", "2 (C_dnu(p,r) + C_dnu(p,r-1)) = C_dnu(p+1,r)",
              _nearly_doubled_odd, _check_4_7),
    _Identity("5.2", "D_i(p^2) = C_i(p)^2 for i in sd, su, t",
              _app_prime_square, _at_p_squared(_check_5_2), _eval_oracle_square),
    _Identity("5.3", "mixed_sd(p^2) = 2 C_su(p) C_t(p)", _app_prime_square,
              _at_p_squared(lambda p: _check_totals([(mixed_sd(p),)],
                                                    [(2, (p, "su"), (p, "t"))]))),
    _Identity("5.4", "mixed_sd(p^2) = D_sd - D_su - D_t",
              _app_prime_square,
              _at_p_squared(lambda p: _check_totals(
                  [(mixed_sd(p),)],
                  [(sign * oracle.non_ci_count(p * p, klass)[0],)
                   for sign, klass in ((1, "sd"), (-1, "su"), (-1, "t"))])),
              _eval_oracle_square),
    _Identity("5.5", "mixed_sd(p^2) = C_sd(p)^2 - C_su(p)^2 - C_t(p)^2",
              _app_prime_square,
              _at_p_squared(lambda p: _check_totals(
                  [(mixed_sd(p),)],
                  [(1, (p, "sd"), (p, "sd")), (-1, (p, "su"), (p, "su")),
                   (-1, (p, "t"), (p, "t"))]))),
    _Identity("5.6", "C_sd(p^2) = C_su(p^2) + C_t(p^2) + 2 C_su(p) C_t(p)",
              _app_prime_square,
              _at_p_squared(lambda p: _check_totals(
                  [(1, (p * p, "sd"))],
                  [(1, (p * p, "su")), (1, (p * p, "t")), (2, (p, "su"), (p, "t"))]))),
    _Identity("6.1", "c_d(n,-1) = C_sd(n)", lambda n: has_formula(n, "d"),
              lambda n: _check_totals([(1, (n, "d", -1))], [(1, (n, "sd"))])),
    _Identity("6.2", "c_u(n,z)|z^2=-1 = C_su(n)", lambda n: has_formula(n, "su"),
              lambda n: _check_totals([(1, (n, "u", 1j))], [(1, (n, "su"))])),
    _Identity("6.3", "c_o(n,-1) in {0,1} by divisor congruences",
              lambda n: has_formula(n, "d"),
              lambda n: _check_totals([(1, (n, "o", -1))],
                                      [(oriented_alternating_expected(n),)])),
    _Identity("6.4", "2 c_d(p,-1) = c_u(p,1) + c_u(p, sqrt(-1))", _odd_prime,
              lambda p: _check_totals([(2, (p, "d", -1))], [(1, (p, "u")), (1, (p, "u", 1j))])),
    _Identity("6.5", "directed even/odd valency split against (C_d +- C_sd)/2",
              lambda n: has_formula(n, "d"), lambda n: _check_split(n, "d", "sd")),
    _Identity("6.6", "undirected semi-valency split against (C_u +- C_su)/2",
              lambda n: has_formula(n, "su"), lambda n: _check_split(n, "u", "su")),
    _Identity("6.7", "even-semi-valency undirected count = C_sd(p)", _odd_prime,
              lambda p: _check_totals([(even_odd_split(p, "u")[0],)], [(1, (p, "sd"))])),
    _Identity("L2.1", "cycle-index lemma", _positive, _lemma_2_1),
    _Identity("L2.4", "cycle-index lemma", _positive, _lemma_2_4),
    _Identity("L2.6", "cycle-index lemma", _positive, _lemma_2_6),
    _Identity("L2.7", "cycle-index lemma", _positive, _lemma_2_7),
]

IDENTITIES = {ident.key: ident for ident in _REGISTRY}
IDENTITY_KEYS = tuple(IDENTITIES)
LEMMA_KEYS = ("L2.1", "L2.4", "L2.6", "L2.7")   # instantiated up to lemma_bound


def _identity(key: str) -> _Identity:
    try:
        return IDENTITIES[key]
    except KeyError:
        raise KeyError(f"unknown identity key {key!r}") from None


def applicable(key: str, n: int) -> bool:
    """Do the identity's hypotheses hold at order n?"""
    return _identity(key).applies(n)


def evaluable(key: str, n: int, allow_oracle: bool = False) -> bool:
    """Can both sides actually be computed at order n at desk scale?"""
    ident = _identity(key)
    return ident.applies(n) and ident.evaluable(n, allow_oracle)


def check(key: str, n: int, allow_oracle: bool = False) -> IdentityReport:
    """Evaluate both sides of one identity at order n and compare exactly."""
    ident = _identity(key)
    if not ident.applies(n):
        return IdentityReport(key, n, "not-applicable", "", "")
    if not ident.evaluable(n, allow_oracle):
        raise UnsupportedOrderError(
            f"identity {key} applies at order {n} but neither a formula nor the "
            f"desk-scale oracle covers it")
    lhs, rhs, holds = ident.run(n)
    return IdentityReport(key, n, "holds" if holds else "fails", lhs, rhs)


def verify_range(keys=None, order_bound: int = 100, lemma_bound: int = 64,
                 allow_oracle: bool = False) -> list[IdentityReport]:
    """Check every requested identity at every evaluable order up to the bound.

    Lemma keys are instantiated for all m <= lemma_bound.  A repeated key
    runs once.  The sweep is order-major, each order inside its own
    order_memo() scope; reports come back in deterministic (key, order)
    order.  Any 'fails' among them is the caller's cue for a nonzero exit.
    """
    idents = {key: _identity(key) for key in (IDENTITY_KEYS if keys is None else keys)}
    orders = {key: range(1, lemma_bound + 1) if key in LEMMA_KEYS
              else range(2, order_bound + 1) for key in idents}
    by_key: dict[str, list[IdentityReport]] = {key: [] for key in idents}
    for n in range(1, max(order_bound, lemma_bound) + 1):
        with order_memo():
            for key, ident in idents.items():
                if (n in orders[key] and ident.applies(n)
                        and ident.evaluable(n, allow_oracle)):
                    by_key[key].append(check(key, n, allow_oracle))
    return [report for reports in by_key.values() for report in reports]
