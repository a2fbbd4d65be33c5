"""Closed-form circulant counts.

Six graph classes are counted, tagged d (directed), u (undirected),
o (oriented), sd / su (self-complementary directed / undirected) and
t (tournament).  Formulas exist for three order shapes:

* odd prime p        -- all six classes, by substitution into I_(p-1) or
                        I_((p-1)/2);
* twice an odd prime -- d, u, o only: the prime-order series at
                        x_r -> x_r^2, times the factor of the element p
                        (1 + z, or 1 for o);
* odd prime squared  -- all six classes, via the bivariate combination

      (1/p) I_m(x^(p+1)) - (1/p) I_m(x y) + I_m(x) I_m(y)

  with m = p-1 (m = (p-1)/2 for the undirected pair), x_r carrying the
  order-p substitution and y_r its z -> z^p companion.

Every substitution is a _SUBST entry; _cyclic is the one place that pairs
it with its cycle index, and the one place that fixes z at a point.  d, u, o
admit generating polynomials by valency; sd, su, t are bare totals.
value_at reads a class at z = 1, -1 or i without its series: the enumerator
bodies run on the substitution with every stride 0, so a value costs one
big-integer power per divisor.  alternating_sum is the value at -1 (u: at i),
and even_odd_split halves the total plus and minus it.  Every division is
performed exactly over the integers, so any transcription slip surfaces as
an InexactDivisionError instead of a silently wrong count.

_evaluate is the one dispatch from an order to its closed form, for
count_by_formula's series and value_at's points alike: it asks formula_kind
once and raises UnsupportedOrderError where no closed form covers the order
and class.  Inside an order_memo() scope each covered (order, class) series
and (order, class, point) value is computed once, and a hit asks
formula_kind nothing; outside one they are always computed.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import isqrt
from typing import NamedTuple

from .errors import ConsistencyError, InexactDivisionError, UnsupportedOrderError
from .algebra import (CycleIndex, Substitution, UniPoly, cycle_index,
                      paired_power_sum, power_sum, substitute)
from .numtheory import has_prime_divisor_3_mod_4, is_prime

CLASSES = ("d", "u", "o", "sd", "su", "t")
VALENCY_CLASSES = ("d", "u", "o")


class _CountFields(NamedTuple):
    order: int
    klass: str
    total: int
    by_valency: UniPoly | None = None
    provenance: str = "formula"


class CountResult(_CountFields):
    """A circulant count: total, optional valency series, and its provenance.

    The valency series must sum to the total.  _make and _replace skip that
    check, so nothing here constructs through them.
    """

    __slots__ = ()

    def __new__(cls, order: int, klass: str, total: int,
                by_valency: UniPoly | None = None, provenance: str = "formula"):
        if by_valency is not None and by_valency(1) != total:
            raise ConsistencyError(
                f"valency series sums to {by_valency(1)}, total is {total}")
        return super().__new__(cls, order, klass, total, by_valency, provenance)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "class": self.klass,
            "total": str(self.total),
            "by_valency": ([str(c) for c in self.by_valency.coeffs]
                           if self.by_valency is not None else None),
            "provenance": self.provenance,
        }


def _require_odd_prime(p: int) -> None:
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")


def _require_class(klass: str, allowed=CLASSES) -> None:
    if klass not in allowed:
        raise UnsupportedOrderError(f"class {klass!r} not supported here "
                                    f"(expected one of {allowed})")


# Substitution per class, as (even r, odd r) binomials (coeff, stride, square):
# x_r -> 1 + coeff * z^(stride * r), or x_r^2 -> that value when square is set.
# The order-p^2 formulas read y_r as x_r with z replaced by z^p.
_SUBST: dict[str, Substitution] = {
    "d": ((1, 1, False), (1, 1, False)),
    "u": ((1, 2, False), (1, 2, False)),
    "o": ((0, 0, False), (2, 1, True)),      # even: 1; odd: x_r^2 -> 1 + 2z^r
    "sd": ((1, 0, False), (-1, 0, False)),   # even: 2; odd: 0
    "su": ((1, 0, False), (-1, 0, False)),
    "t": ((-1, 0, False), (1, 0, True)),     # even: 0; odd: x_r^2 -> 2
}


# each point z as the q with z = i^q
_QUARTER_TURNS = {1: 0, 1j: 1, -1: 2}


def _z_power(point: complex, k: int) -> int:
    """z^k at z = point, where that is an integer."""
    turns = _QUARTER_TURNS[point] * k % 4
    if turns % 2:
        raise UnsupportedOrderError("no integer value at z = i here")
    return 1 - turns


def _cyclic(p: int, klass: str,
            point: complex | None = None) -> tuple[CycleIndex, Substitution]:
    """The cycle index I_m the class substitutes into, and its substitution:
    m = p - 1, or (p - 1)/2 for the undirected pair.

    With a point, z is fixed there: every stride becomes 0 and an odd-r
    coefficient takes the factor z^stride.  That needs z^stride = +-1, so
    z^(stride*r) is z^stride at odd r and 1 at even r.
    """
    m = (p - 1) // 2 if klass in ("u", "su") else p - 1
    subst = _SUBST[klass]
    if point is not None:
        (even, even_stride, even_square), (odd, odd_stride, odd_square) = subst
        _z_power(point, even_stride)
        subst = ((even, 0, even_square),
                 (odd * _z_power(point, odd_stride), 0, odd_square))
    return cycle_index(m), subst


def _result(order: int, klass: str, poly: UniPoly) -> CountResult:
    return CountResult(order, klass, poly(1),
                       poly if klass in VALENCY_CLASSES else None)


# The enumerator bodies: the series, or with a point its value there as a
# constant.

def _prime_poly(p: int, klass: str, point: complex | None = None) -> UniPoly:
    return substitute(*_cyclic(p, klass, point))


def _twice_prime_poly(p: int, klass: str, point: complex | None = None) -> UniPoly:
    # the elements of order p and 2p: the prime-order series at x_r -> x_r^2
    poly = substitute(*_cyclic(p, klass, point), exponent_factor=2)
    if klass != "o":  # the self-negating element p, in or out; o leaves it out
        poly = poly * (UniPoly.one_plus(1) if point is None
                       else UniPoly.constant(1 + _z_power(point, 1)))
    return poly


def prime_enumerator(p: int, klass: str) -> CountResult:
    """Count circulants of odd prime order p in the given class."""
    _require_odd_prime(p)
    _require_class(klass)
    return _result(p, klass, _prime_poly(p, klass))


def twice_prime_enumerator(p: int, klass: str) -> CountResult:
    """Count circulants of order 2p (p an odd prime); classes d, u, o only."""
    _require_odd_prime(p)
    _require_class(klass, VALENCY_CLASSES)
    return _result(2 * p, klass, _twice_prime_poly(p, klass))


def _prime_squared_poly(p: int, klass: str, point: complex | None = None) -> UniPoly:
    ci, subst = _cyclic(p, klass, point)
    m = ci.order
    lifted = power_sum(ci, subst, exponent_factor=p + 1)
    paired = paired_power_sum(ci, subst, p)
    x = power_sum(ci, subst)
    # I_m(y) is I_m(x) at z^p, kept on the left: UniPoly.__mul__ skips the
    # zeros of its left operand
    split = x.stretch(p) * x
    # (1/p)I_m(x^(p+1)) - (1/p)I_m(xy) + I_m(x)I_m(y) over the common
    # denominator p*m^2; only the combination is integral, not the parts.
    numerator = lifted.scale(m) - paired.scale(m) + split.scale(p)
    return numerator.divide_exact(p * m * m)


def prime_squared_enumerator(p: int, klass: str) -> CountResult:
    """Count circulants of order p^2 (p an odd prime) in the given class."""
    _require_odd_prime(p)
    _require_class(klass)
    return _result(p * p, klass, _prime_squared_poly(p, klass))


def formal_undirected(n: int, point: complex | None = None) -> UniPoly:
    """The undirected prime-order series applied to any odd n >= 3, or with a
    point its value there, as a constant.

    For prime n this equals prime_enumerator(n, "u").by_valency; for composite
    n it is a formal quantity only (not a graph count), but is exactly the
    series the twice-prime identities consume.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"formal_undirected requires odd n >= 3, got {n}")
    return _prime_poly(n, "u", point)


def formula_kind(order: int) -> tuple[str, int] | None:
    """Which closed form covers this order: ("prime"|"twice_prime"|"prime_squared", p)."""
    if order < 3:
        return None
    if order % 2 == 1 and is_prime(order):
        return ("prime", order)
    if order % 2 == 0 and order // 2 >= 3 and is_prime(order // 2):
        return ("twice_prime", order // 2)
    root = isqrt(order)
    if root * root == order and root % 2 == 1 and is_prime(root):
        return ("prime_squared", root)
    return None


def _covers(kind: tuple[str, int] | None, klass: str) -> bool:
    """Does the closed form of this formula_kind cover the class?  Order-2p
    formulas exist for d, u, o only."""
    return kind is not None and klass in (VALENCY_CLASSES if kind[0] == "twice_prime"
                                          else CLASSES)


def has_formula(order: int, klass: str) -> bool:
    """Does a closed form cover this order and class?"""
    return _covers(formula_kind(order), klass)


# (order, class) -> CountResult and (order, class, point) -> int while an
# order_memo() scope is open
_memo: dict | None = None


@contextmanager
def order_memo():
    """Compute each count_by_formula(order, klass) and value_at(order, klass,
    point) once within this scope.

    The enumerators are pure and a CountResult is frozen, so a hit equals a
    recomputation.  The memo is dropped when the scope exits, raising or not.
    """
    global _memo
    _memo = {}
    try:
        yield
    finally:
        _memo = None


def _evaluate(order: int, klass: str, point: complex | None = None):
    """The closed form that covers the order, else raise: the enumerator's
    CountResult, or with a point the body's value there."""
    _require_class(klass)
    kind = formula_kind(order)
    if kind is None:
        raise UnsupportedOrderError(f"no counting formula for order {order}")
    if not _covers(kind, klass):
        raise UnsupportedOrderError(f"no order-2p formula for class {klass!r}")
    shape, p = kind
    if shape == "prime":
        enumerator, body = prime_enumerator, _prime_poly
    elif shape == "twice_prime":
        enumerator, body = twice_prime_enumerator, _twice_prime_poly
    else:
        enumerator, body = prime_squared_enumerator, _prime_squared_poly
    if point is None:
        return enumerator(p, klass)
    return body(p, klass, point).coeff(0)


def _memoised(*args):
    """_evaluate(*args), once per args inside an order_memo() scope."""
    memo = _memo
    if memo is None:
        return _evaluate(*args)
    if args not in memo:
        memo[args] = _evaluate(*args)
    return memo[args]


def count_by_formula(order: int, klass: str) -> CountResult:
    """Dispatch to whichever closed form covers the order, else raise."""
    return _memoised(order, klass)


def value_at(order: int, klass: str, point: complex = 1) -> int:
    """The class's valency series at z = point, one of 1, -1 and 1j, without
    the series (sd, su, t: their total at any of them); a memoised series
    answers z = 1.  z = i is refused where the value is not an integer: for
    d and o, and for u at even orders."""
    if point not in _QUARTER_TURNS:
        raise ValueError(f"point must be one of 1, -1, 1j, got {point!r}")
    if point == 1 and _memo and (order, klass) in _memo:
        return _memo[order, klass].total
    return _memoised(order, klass, point)


def alternating_sum(n: int, klass: str) -> int:
    """The class's valency series at z = -1 (u: at z = i, so z^2 = -1), which
    is its parity split's even part minus its odd part."""
    _require_class(klass, VALENCY_CLASSES)
    return value_at(n, klass, 1j if klass == "u" else -1)


def oriented_alternating_expected(n: int) -> int:
    """The oriented alternating sum c_o(n, -1) at the orders where it is
    proven: n prime, 2p or an odd p^2.

    Odd n: 0 when some prime divisor of n is congruent to 3 mod 4, else 1.
    n = 2p: 1.  Any other order raises ValueError: at multiples of 4 the sum
    varies (the oracle gives 1, 0, 6 at n = 8, 12, 16), and the rule's
    general-order form is false (the oracle gives -5 at 21, where it
    predicts 0).
    """
    if not is_prime(n) and formula_kind(n) is None:
        raise ValueError(f"no proven oriented alternating sum at order {n}")
    if n % 2 == 0:
        return 1
    return 0 if has_prime_divisor_3_mod_4(n) else 1


def even_odd_split(n: int, klass: str) -> tuple[int, int]:
    """Totals by valency parity: d and o on r mod 2, u on r mod 4 in {0, 2}.

    The undirected split is only meaningful at odd orders, where every valency
    is even and the semi-valency parity distinguishes r = 0 and r = 2 mod 4.
    The parts are (f(1) +- f(-1))/2, or (f(1) +- f(i))/2 for u.
    """
    alternating = alternating_sum(n, klass)
    total = value_at(n, klass)
    if (total + alternating) % 2:
        raise InexactDivisionError(f"total {total} and alternating sum "
                                   f"{alternating} differ in parity")
    return (total + alternating) // 2, (total - alternating) // 2


def mixed_sd(p: int) -> int:
    """Self-complementary directed circulants of order p^2 that are neither
    undirected nor tournaments: C_sd(p^2) - C_su(p^2) - C_t(p^2).

    Identities 5.3 and 5.5 compare it with its two other forms,
    2*C_su(p)*C_t(p) and C_sd(p)^2 - C_su(p)^2 - C_t(p)^2.
    """
    return (value_at(p * p, "sd") - value_at(p * p, "su")
            - value_at(p * p, "t"))


def log_concavity_probe(order: int,
                        by_valency: UniPoly | None = None) -> list[tuple[int, int, int, int]]:
    """Violations of log-concavity in the undirected even-valency sequence.

    Writing a_r for the count at valency 2r, reports every r with
    a_r^2 < a_(r-1) * a_(r+1) over the interior range 1 < r < (n-1)/2 - 1
    (the first and last ratios are excluded: the constant-1 tail makes them
    degenerate for every order).  Empty report == log-concave there.
    by_valency overrides the formula path, e.g. with oracle counts.
    """
    if by_valency is None:
        by_valency = count_by_formula(order, "u").by_valency
    seq = [by_valency.coeff(2 * r) for r in range(by_valency.degree // 2 + 1)]
    upper = (order - 1) // 2 - 1  # exclusive
    violations = []
    for r in range(2, min(upper, len(seq) - 1)):
        if seq[r] ** 2 < seq[r - 1] * seq[r + 1]:
            violations.append((r, seq[r - 1], seq[r], seq[r + 1]))
    return violations
