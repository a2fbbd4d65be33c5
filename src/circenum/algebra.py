"""Exact cycle-index algebra.

The counting formulas all have the shape: take the cycle index of a cyclic
group,

    I_n = (1/n) * sum_{r | n} phi(r) * x_r^(n/r),

substitute a polynomial in z (or a constant) for each variable x_r, and divide
exactly by n.  This module supplies the three representations involved:

* UniPoly    -- univariate integer polynomials in z (the counting series);
* CycleIndex -- the divisor-indexed term list of I_n, read off the
                divisor-totient table of numtheory and cached;
* SymPoly    -- sparse multivariate polynomials over Q in the formal variables
                x_1, x_2, ..., used to state and verify identities between
                cycle indices symbolically.  The coefficients are integer
                numerators over one common positive denominator: I_n has the
                single denominator n, so no per-term fraction is needed.
                to_sym renders I_n as one, with each term x_r^e rewritten by
                a function (r, e) -> (t, f), meaning x_t^f, or dropped.

Both polynomial classes take integer powers through the one repeated-squaring
loop _power, and a UniPoly difference is the sum with the negated operand.
An int added to a UniPoly is a constant, and an int times one scales it.

Every value the formulas substitute is a binomial 1 + c*z^(k*r) (a constant
when k = 0), prescribed either for x_r itself or for x_r^2; the latter is
legal only where the exponent on x_r is even, which is checked (ParityError)
rather than assumed.  A substitution is therefore plain data, a pair of
(coeff, stride, square) triples for even and odd r, and each term x_r^e
expands directly as one binomial row.  Both power sums add those rows,
weight folded in, into one coefficient list; the order-p^2 one reads y_r as
x_r at z^p.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple

from .errors import InexactDivisionError, ParityError
from .numtheory import divisor_totients


def _power(base, exponent: int, one):
    """base ** exponent by repeated squaring, starting from the unit one."""
    if exponent < 0:
        raise ValueError("negative exponent")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


class UniPoly:
    """Univariate polynomial in z with arbitrary-precision integer coefficients.

    Immutable; coefficient index = power of z; trailing zeros are trimmed so
    equality is structural.  The zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def constant(cls, c: int) -> "UniPoly":
        return cls((c,))

    @classmethod
    def one_plus(cls, power: int, coeff: int = 1) -> "UniPoly":
        """1 + coeff * z^power."""
        if power == 0:
            return cls((1 + coeff,))
        return cls([1] + [0] * (power - 1) + [coeff])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def coeff(self, r: int) -> int:
        return self.coeffs[r] if 0 <= r < len(self.coeffs) else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly | int") -> "UniPoly":
        a, b = self.coeffs, (other,) if isinstance(other, int) else other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return UniPoly(out)

    def __pow__(self, exponent: int) -> "UniPoly":
        return _power(self, exponent, UniPoly((1,)))

    def scale(self, c: int) -> "UniPoly":
        return UniPoly(c * x for x in self.coeffs)

    __rmul__ = scale

    def stretch(self, k: int) -> "UniPoly":
        """Substitute z -> z^k."""
        if k < 1:
            raise ValueError("stretch factor must be >= 1")
        out = [0] * (k * len(self.coeffs))
        for r, c in enumerate(self.coeffs):
            out[k * r] = c
        return UniPoly(out)

    def divide_exact(self, n: int) -> "UniPoly":
        """Divide every coefficient by n; remainder anywhere is an error."""
        out = []
        for r, c in enumerate(self.coeffs):
            q, rem = divmod(c, n)
            if rem:
                raise InexactDivisionError(
                    f"coefficient {c} of z^{r} is not divisible by {n}")
            out.append(q)
        return UniPoly(out)

    def divide_exact_poly(self, divisor: "UniPoly") -> "UniPoly":
        """Exact polynomial division (divisor must have leading coefficient 1)."""
        if divisor.is_zero() or divisor.coeffs[-1] != 1:
            raise ValueError("divisor must be monic and nonzero")
        rem = list(self.coeffs)
        dd = divisor.degree
        quot = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            quot[i - dd] = c
            for j, dc in enumerate(divisor.coeffs):
                rem[i - dd + j] -= c * dc
        if any(rem):
            raise InexactDivisionError("polynomial division left a remainder")
        return UniPoly(quot)

    def __call__(self, at: int) -> int:
        cs = self.coeffs
        if at == 1:  # totals of long series: one sum, no Horner products
            return sum(cs)
        result = 0
        for c in reversed(cs):
            result = result * at + c
        return result

    def __str__(self) -> str:
        return str(list(self.coeffs))

    def __repr__(self) -> str:
        return f"UniPoly({self})"


class CycleIndexTerm(NamedTuple):
    var_index: int   # divisor r, the subscript of x_r
    weight: int      # phi(r)
    exponent: int    # n / r


class CycleIndex(NamedTuple):
    """The cycle index of the regular cyclic group of order n, term by divisor."""

    order: int
    terms: tuple[CycleIndexTerm, ...]


@lru_cache(maxsize=256)
def cycle_index(n: int) -> CycleIndex:
    """I_n: the term x_d^(n/d) with weight phi(d) for each divisor d of n."""
    return CycleIndex(n, tuple(CycleIndexTerm(d, f, n // d)
                               for d, f in divisor_totients(n)))


# x_r -> 1 + coeff * z^(stride * r), or x_r^2 -> that value when square is set.
Binomial = tuple[int, int, bool]
# The binomial for even r, then the one for odd r.
Substitution = tuple[Binomial, Binomial]


def half_exponent(exponent: int, where: str) -> int:
    """Half the exponent, the power a square root at `where` leaves.

    An odd exponent raises ParityError rather than give a fractional power.
    """
    if exponent % 2:
        raise ParityError(
            f"square-value substitution at {where} needs an even exponent, "
            f"got {exponent}")
    return exponent // 2


def _rows(ci: CycleIndex, subst: Substitution,
          exponent_factor: int = 1) -> list[tuple[int, int, int, int]]:
    """(phi(r), coeff, step, e) per term: the term is phi(r) * (1 + coeff *
    z^step)^e.  The parity of every square-valued term is checked here,
    before any row is expanded."""
    rows = []
    for r, weight, e in ci.terms:
        coeff, stride, square = subst[r % 2]
        e *= exponent_factor
        if square:
            e = half_exponent(e, f"x_{r} of I_{ci.order}")
        rows.append((weight, coeff, stride * r, e))
    return rows


def _add_row(out: list[int], t: int, coeff: int, step: int, e: int,
             offset: int = 0) -> None:
    """Add t * C(e, j) * coeff^j at z^(offset + step * j), for j = 0..e; the
    division is exact with any integer t.  Step 0 adds t * (1 + coeff)^e."""
    if step == 0:
        out[offset] += t * (1 + coeff) ** e
        return
    for j in range(e + 1):
        out[offset + step * j] += t
        t = t * (e - j) * coeff // (j + 1)


def power_sum(ci: CycleIndex, subst: Substitution,
              exponent_factor: int = 1) -> UniPoly:
    """The undivided sum  sum_{r | n} phi(r) * v_r^((n/r) * exponent_factor).

    v_r is the value assigned to x_r; an exponent_factor of p+1 realizes the
    argument rewriting x_r -> x_r^(p+1) before substitution.  Every term is
    one binomial row, weight folded in, added straight into one accumulator.
    """
    rows = _rows(ci, subst, exponent_factor)
    out = [0] * (max(step * e for _, _, step, e in rows) + 1)
    for weight, coeff, step, e in rows:
        _add_row(out, weight, coeff, step, e)
    return UniPoly(out)


def paired_power_sum(ci: CycleIndex, subst: Substitution, p: int) -> UniPoly:
    """The undivided sum for the interleaved product x_r y_r, where y_r is
    x_r with z replaced by z^p:

        sum_{r | n} phi(r) * (v_r(z) * v_r(z^p))^(n/r)

    A square value stays one: sqrt(A(z)) * sqrt(A(z^p)) = sqrt(A(z) * A(z^p)).
    The row of v_r(z)^e is added once per coefficient of v_r(z^p)^e.
    """
    rows = _rows(ci, subst)
    out = [0] * ((p + 1) * max(step * e for _, _, step, e in rows) + 1)
    for weight, coeff, step, e in rows:
        y = [0] * (e + 1)    # v_r(z^p)^e, one entry per step * p
        _add_row(y, weight, coeff, 1 if step else 0, e)
        for i, t in enumerate(y):
            if t:
                _add_row(out, t, coeff, step, e, p * step * i)
    return UniPoly(out)


def substitute(ci: CycleIndex, subst: Substitution,
               exponent_factor: int = 1) -> UniPoly:
    """Apply the substitution to the cycle index and divide exactly by the order."""
    return power_sum(ci, subst, exponent_factor).divide_exact(ci.order)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials over Q
# ---------------------------------------------------------------------------

# A monomial is a sorted tuple of (index, exponent) pairs, meaning the product
# of x_index^exponent, with positive exponents.
Monomial = tuple[tuple[int, int], ...]


class SymPoly:
    """Sparse polynomial in x_1, x_2, ... with exact rational coefficients.

    terms maps each monomial to a nonzero integer numerator over the one
    positive denominator, so equal polynomials may differ in representation;
    == cross-multiplies and repr reduces each coefficient.  The constructor
    takes coefficients with .numerator and .denominator (int or Fraction)
    and puts them over the lcm of their denominators.
    """

    __slots__ = ("terms", "denominator")

    def __init__(self, terms: dict | None = None):
        terms = terms or {}
        common = lcm(*(c.denominator for c in terms.values()))
        self._fill({mono: c.numerator * (common // c.denominator)
                    for mono, c in terms.items()}, common)

    def _fill(self, numerators: dict[Monomial, int], denominator: int) -> None:
        object.__setattr__(self, "terms", {m: c for m, c in numerators.items() if c})
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def _of(cls, numerators: dict[Monomial, int], denominator: int) -> "SymPoly":
        """Integer numerators over a positive denominator, zeros dropped and
        nothing else checked."""
        poly = object.__new__(cls)
        poly._fill(numerators, denominator)
        return poly

    def __setattr__(self, *a):
        raise AttributeError("SymPoly is immutable")

    @classmethod
    def constant(cls, c) -> "SymPoly":
        return cls({(): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymPoly) or self.terms.keys() != other.terms.keys():
            return False
        a, b = self.denominator, other.denominator
        theirs = other.terms
        return all(c * b == theirs[m] * a for m, c in self.terms.items())

    def _combine(self, other: "SymPoly", sign: int) -> "SymPoly":
        """self + sign * other over the lcm of the two denominators."""
        den = lcm(self.denominator, other.denominator)
        mine, theirs = den // self.denominator, sign * (den // other.denominator)
        out = {m: c * mine for m, c in self.terms.items()}
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c * theirs
        return SymPoly._of(out, den)

    def __add__(self, other: "SymPoly") -> "SymPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self._combine(other, -1)

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for var, e in m2:
                    exps[var] = exps.get(var, 0) + e
                mono = tuple(sorted(exps.items()))
                out[mono] = out.get(mono, 0) + c1 * c2
        return SymPoly._of(out, self.denominator * other.denominator)

    def __pow__(self, exponent: int) -> "SymPoly":
        return _power(self, exponent, SymPoly.constant(1))

    def scale(self, c) -> "SymPoly":
        """Multiply by c, an int or a Fraction."""
        num = c.numerator
        return SymPoly._of({m: v * num for m, v in self.terms.items()},
                           self.denominator * c.denominator)

    def __repr__(self) -> str:
        if not self.terms:
            return "SymPoly(0)"
        den = self.denominator
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            g = gcd(c, den)
            coeff = f"{c // g}" if g == den else f"{c // g}/{den // g}"
            vars_ = "*".join(f"x{idx}^{e}" if e > 1 else f"x{idx}"
                             for idx, e in mono)
            bits.append(f"{coeff}*{vars_}" if vars_ else coeff)
        return "SymPoly(" + " + ".join(bits) + ")"


# rewrite(r, e) turns the term x_r^e into x_t^f as (t, f), or into 0 as None.
Rewrite = Callable[[int, int], tuple[int, int] | None]


def to_sym(ci: CycleIndex, rewrite: Rewrite | None = None) -> SymPoly:
    """Render a cycle index as a formal SymPoly, each term rewritten.

    Without a rewrite every term phi(r)/n * x_r^(n/r) stays as it is.  A
    rewrite to None substitutes 0 for the term's variable, dropping it (the
    interleaved-zero argument lists); terms that land on one monomial add up.
    """
    weights: dict[Monomial, int] = {}
    for term in ci.terms:
        var = (term.var_index, term.exponent)
        if rewrite is not None:
            var = rewrite(*var)
        if var is not None:
            mono = (var,)
            weights[mono] = weights.get(mono, 0) + term.weight
    return SymPoly._of(weights, ci.order)
