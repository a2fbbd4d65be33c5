"""Exact cycle-index algebra.

The counting formulas all have the shape: take the cycle index of a cyclic
group,

    I_n = (1/n) * sum_{r | n} phi(r) * x_r^(n/r),

substitute a polynomial in z (or a constant) for each variable x_r, and divide
exactly by n.  This module supplies the three representations involved:

* UniPoly    -- univariate integer polynomials in z (the counting series),
                evaluated at -1 as p(-1) and at a square root of -1 as
                p.at_i();
* CycleIndex -- the divisor-indexed term list of I_n;
* SymPoly    -- sparse multivariate polynomials over Q in the formal variables
                x_1, x_2, ..., used to state and verify identities between
                cycle indices symbolically.  to_sym renders I_n as one, with
                each term x_r^e rewritten by a function (r, e) -> (t, f),
                meaning x_t^f, or dropped.

Every value the formulas substitute is a binomial 1 + c*z^(k*r) (a constant
when k = 0), prescribed either for x_r itself or for x_r^2; the latter is
legal only where the exponent on x_r is even, which is asserted rather than
assumed.  A substitution is therefore plain data, a pair of (coeff, stride,
square) triples for even and odd r, and each term x_r^e expands directly as
one binomial row; a power sum adds every row, weight folded in, into one
coefficient list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import InexactDivisionError, ParityError
from .numtheory import divisors, euler_phi


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

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return UniPoly(out)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return UniPoly(out)

    def __pow__(self, exponent: int) -> "UniPoly":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = UniPoly((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def scale(self, c: int) -> "UniPoly":
        return UniPoly(c * x for x in self.coeffs)

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
        if self.is_zero():
            return UniPoly()
        rem = list(self.coeffs)
        dd = divisor.degree
        quot = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            quot[i - dd] = c
            for j, dc in enumerate(divisor.coeffs):
                rem[i - dd + j] -= c * dc
        if any(rem):
            raise InexactDivisionError("polynomial division left a remainder")
        return UniPoly(quot)

    def __call__(self, at: int) -> int:
        result = 0
        for c in reversed(self.coeffs):
            result = result * at + c
        return result

    def at_i(self) -> int:
        """Evaluate at z = i, a square root of -1: sum_{r even} (-1)^(r/2) * c_r.

        Every odd-power coefficient must vanish, or the value is not an integer.
        """
        for r in range(1, len(self.coeffs), 2):
            if self.coeffs[r]:
                raise ValueError(
                    f"gaussian-unit evaluation needs even powers only; z^{r} present")
        return sum(self.coeffs[0::4]) - sum(self.coeffs[2::4])

    def to_json(self) -> list[int]:
        """Coefficient array, index = power of z."""
        return list(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"


@dataclass(frozen=True)
class CycleIndexTerm:
    var_index: int   # divisor r, the subscript of x_r
    weight: int      # phi(r)
    exponent: int    # n / r


@dataclass(frozen=True)
class CycleIndex:
    """The cycle index of the regular cyclic group of order n, term by divisor."""

    order: int
    terms: tuple[CycleIndexTerm, ...]


def cycle_index(n: int) -> CycleIndex:
    if n < 1:
        raise ValueError(f"cycle_index requires n >= 1, got {n}")
    terms = tuple(CycleIndexTerm(r, euler_phi(r), n // r) for r in divisors(n))
    return CycleIndex(order=n, terms=terms)


# x_r -> 1 + coeff * z^(stride * r), or x_r^2 -> that value when square is set.
Binomial = tuple[int, int, bool]
# The binomial for even r, then the one for odd r.
Substitution = tuple[Binomial, Binomial]


def binomial_power(coeff: int, stride: int, e: int) -> UniPoly:
    """(1 + coeff * z^stride)^e as the row C(e, j) * coeff^j at z^(stride * j).

    Stride 0 gives the constant (1 + coeff)^e.
    """
    if stride == 0:
        return UniPoly.constant((1 + coeff) ** e)
    out = [0] * (stride * e + 1)
    term = 1
    for j in range(e + 1):
        out[stride * j] = term
        term = term * (e - j) * coeff // (j + 1)
    return UniPoly(out)


def half_exponent(exponent: int, where: str) -> int:
    """Half the exponent, the power a square root at `where` leaves.

    An odd exponent raises ParityError rather than give a fractional power.
    """
    if exponent % 2:
        raise ParityError(
            f"square-value substitution at {where} needs an even exponent, "
            f"got {exponent}")
    return exponent // 2


def power_sum(ci: CycleIndex, subst: Substitution,
              exponent_factor: int = 1) -> UniPoly:
    """The undivided sum  sum_{r | n} phi(r) * v_r^((n/r) * exponent_factor).

    v_r is the value assigned to x_r; an exponent_factor of p+1 realizes the
    argument rewriting x_r -> x_r^(p+1) before substitution.  Every term is
    one binomial row phi(r) * C(e, j) * coeff^j at z^(step * j), added
    straight into one accumulator; the parity of every square-valued term is
    checked before any row is expanded.
    """
    rows = []
    for term in ci.terms:
        r = term.var_index
        coeff, stride, square = subst[r % 2]
        e = term.exponent * exponent_factor
        if square:
            e = half_exponent(e, f"x_{r} of I_{ci.order}")
        rows.append((term.weight, coeff, stride * r, e))
    out = [0] * (max(step * e for _, _, step, e in rows) + 1)
    for weight, coeff, step, e in rows:
        if step == 0:
            out[0] += weight * (1 + coeff) ** e
            continue
        # weight * C(e, j) * coeff^j; the division is exact with weight in
        t = weight
        for j in range(e + 1):
            out[step * j] += t
            t = t * (e - j) * coeff // (j + 1)
    return UniPoly(out)


def paired_power_sum(ci: CycleIndex, subst_x: Substitution,
                     subst_y: Substitution) -> UniPoly:
    """The undivided sum for the interleaved product x_r y_r:

        sum_{r | n} phi(r) * (v_r * w_r)^(n/r)

    Square-valued assignments must pair up: sqrt(A)*sqrt(B) = sqrt(A*B), so
    squares on both sides combine into one square on the product.  The y
    factor goes on the left of each product, where UniPoly.__mul__ skips its
    zeros: the y side of the order-p^2 formulas lives on a stride-p grid.
    """
    total = UniPoly()
    for term in ci.terms:
        r = term.var_index
        cx, kx, square = subst_x[r % 2]
        cy, ky, square_y = subst_y[r % 2]
        if square != square_y:
            raise ParityError(f"mixed plain/square assignment for x_{r} y_{r}")
        e = term.exponent
        if square:
            e = half_exponent(e, f"x_{r}y_{r} of I_{ci.order}")
        value = binomial_power(cy, ky * r, e) * binomial_power(cx, kx * r, e)
        total = total + value.scale(term.weight)
    return total


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
    """Sparse polynomial in x_1, x_2, ... with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c:
                clean[mono] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("SymPoly is immutable")

    @classmethod
    def constant(cls, c) -> "SymPoly":
        return cls({(): Fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, SymPoly) and self.terms == other.terms

    def __add__(self, other: "SymPoly") -> "SymPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return SymPoly(out)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) - c
        return SymPoly(out)

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for var, e in m2:
                    exps[var] = exps.get(var, 0) + e
                mono = tuple(sorted(exps.items()))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return SymPoly(out)

    def __pow__(self, exponent: int) -> "SymPoly":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = SymPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def scale(self, c) -> "SymPoly":
        factor = Fraction(c)
        return SymPoly({m: factor * v for m, v in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "SymPoly(0)"
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            vars_ = "*".join(f"x{idx}^{e}" if e > 1 else f"x{idx}"
                             for idx, e in mono)
            bits.append(f"{c}*{vars_}" if vars_ else f"{c}")
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
    return SymPoly({mono: Fraction(w, ci.order) for mono, w in weights.items()})
