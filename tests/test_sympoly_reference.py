"""Differential test: SymPoly (integer numerators over one denominator)
against a Fraction-per-coefficient reference, the representation it
replaced.  Both must agree on every ==, every repr, and on both sides of the
four cycle-index lemmas."""

import random
from fractions import Fraction

import pytest

from circenum.algebra import SymPoly, cycle_index, to_sym
from circenum.errors import ParityError
from circenum.identities import (IDENTITIES, _even_halved, _even_only,
                                 _odd_sqrt)
from circenum.numtheory import divisors, euler_phi, odd_part_decomposition


class FractionSymPoly:
    """Sparse polynomial in x_1, x_2, ... with one Fraction per monomial."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {mono: Fraction(c) for mono, c in (terms or {}).items() if c}

    @classmethod
    def constant(cls, c):
        return cls({(): Fraction(c)})

    def __eq__(self, other):
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return FractionSymPoly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) - c
        return FractionSymPoly(out)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for var, e in m2:
                    exps[var] = exps.get(var, 0) + e
                mono = tuple(sorted(exps.items()))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return FractionSymPoly(out)

    def __pow__(self, exponent):
        result = FractionSymPoly.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, c):
        return FractionSymPoly({m: Fraction(c) * v for m, v in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "SymPoly(0)"
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            vars_ = "*".join(f"x{idx}^{e}" if e > 1 else f"x{idx}"
                             for idx, e in mono)
            bits.append(f"{c}*{vars_}" if vars_ else f"{c}")
        return "SymPoly(" + " + ".join(bits) + ")"


def reference_to_sym(n, rewrite=None):
    """I_n as a FractionSymPoly from divisors and euler_phi, each term
    phi(r)/n * x_r^(n/r) rewritten."""
    out = FractionSymPoly()
    for r in divisors(n):
        var = (r, n // r) if rewrite is None else rewrite(r, n // r)
        if var is not None:
            out = out + FractionSymPoly({(var,): Fraction(euler_phi(r), n)})
    return out


def _random_terms(rng):
    terms = {}
    for _ in range(rng.randrange(0, 5)):
        mono = tuple(sorted({rng.randrange(1, 6): rng.randrange(1, 4)
                             for _ in range(rng.randrange(0, 3))}.items()))
        terms[mono] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 13))
    return terms


def _random_scalar(rng):
    if rng.randrange(2):
        return rng.randrange(-5, 6)
    return Fraction(rng.randrange(-5, 6), rng.randrange(1, 9))


def test_random_arithmetic_matches_fraction_reference():
    rng = random.Random(20261018)
    for _ in range(400):
        ta, tb = _random_terms(rng), _random_terms(rng)
        new = [SymPoly(ta), SymPoly(tb)]
        old = [FractionSymPoly(ta), FractionSymPoly(tb)]
        for _ in range(6):
            i, j = rng.randrange(len(new)), rng.randrange(len(new))
            op = rng.choice(("+", "-", "*", "**", "scale"))
            if op == "+":
                new.append(new[i] + new[j])
                old.append(old[i] + old[j])
            elif op == "-":
                new.append(new[i] - new[j])
                old.append(old[i] - old[j])
            elif op == "*":
                new.append(new[i] * new[j])
                old.append(old[i] * old[j])
            elif op == "**":
                e = rng.randrange(0, 4)
                new.append(new[i] ** e)
                old.append(old[i] ** e)
            else:
                c = _random_scalar(rng)
                new.append(new[i].scale(c))
                old.append(old[i].scale(c))
            # (a + b) - b is a in a different representation
            new.append(new[-1] + new[j] - new[j])
            old.append(old[-1] + old[j] - old[j])
        for k, (a, b) in enumerate(zip(new, old)):
            assert repr(a) == repr(b)
            assert a.is_zero() == (not b.terms)
            for a2, b2 in zip(new[k:], old[k:]):
                assert (a == a2) == (b == b2), (a, a2)


def test_scale_by_zero_and_equal_representations():
    half = SymPoly({((1, 1),): Fraction(1, 2)})
    assert half.scale(0).is_zero()
    assert half.scale(Fraction(0)) == SymPoly()
    # 1/2 x_1 as 1/2 and as 3/6
    three_sixths = SymPoly({((1, 1),): 3}).scale(Fraction(1, 6))
    assert three_sixths.denominator == 6
    assert half == three_sixths
    assert repr(three_sixths) == "SymPoly(1/2*x1)"


def _reference_lemma(key, m):
    if key == "L2.1":
        decomp = odd_part_decomposition(m)
        shift = 1 << (decomp.two_exponent + 1)
        lhs = reference_to_sym(2 * m).scale(2)
        rhs = (reference_to_sym(m, lambda r, e: (r, 2 * e))
               + reference_to_sym(decomp.odd_part, lambda r, e: (r * shift, e)))
    elif key == "L2.4":
        lhs = reference_to_sym(2 * m, _even_halved).scale(2)
        rhs = reference_to_sym(m) + reference_to_sym(m, _even_only)
    elif key == "L2.6":
        lhs = reference_to_sym(m)
        rhs = reference_to_sym(
            2 * m, lambda r, e: _odd_sqrt(r, e) if r % 2 else _even_halved(r, e))
    else:
        lhs = reference_to_sym(2 * m, _even_halved)
        rhs = reference_to_sym(2 * m, _odd_sqrt) + reference_to_sym(m, _even_only)
    return repr(lhs), repr(rhs), lhs == rhs


@pytest.mark.parametrize("key", ["L2.1", "L2.4", "L2.6", "L2.7"])
def test_lemmas_match_fraction_reference(key):
    for m in range(1, 257):
        assert IDENTITIES[key].run(m) == _reference_lemma(key, m), m


def test_to_sym_matches_fraction_reference():
    rewrites = [None, lambda r, e: (r, 2 * e), lambda r, e: (4 * r, e),
                _even_halved, _even_only, _odd_sqrt]
    for n in range(1, 257):
        for rewrite in rewrites:
            try:
                want = repr(reference_to_sym(n, rewrite))
            except ParityError:
                with pytest.raises(ParityError):
                    to_sym(cycle_index(n), rewrite)
                continue
            assert repr(to_sym(cycle_index(n), rewrite)) == want, (n, rewrite)
