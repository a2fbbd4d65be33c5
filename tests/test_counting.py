import ast
import hashlib
import json
from pathlib import Path

import pytest

from circenum import counting
from circenum.algebra import (CycleIndex, CycleIndexTerm, UniPoly, cycle_index,
                              substitute)
from circenum.counting import (_SUBST, CLASSES, CountResult, alternating_sum,
                               count_by_formula, even_odd_split,
                               formal_undirected, formula_kind, has_formula,
                               log_concavity_probe, mixed_sd,
                               oriented_alternating_expected, prime_enumerator,
                               prime_squared_enumerator,
                               twice_prime_enumerator, value_at)
from circenum.errors import (ConsistencyError, InexactDivisionError,
                             UnsupportedOrderError)
from circenum.identities import check
from circenum.numtheory import divisors, euler_phi, is_prime

from golden import COLUMN_CLASSES, TABLE1, TABLE2_D, TABLE2_O, TABLE2_U

PRIMES_IN_TABLE = [n for n in TABLE1 if n % 2 and is_prime(n)]
TWICE_PRIMES_IN_TABLE = [n for n in TABLE1
                         if n % 2 == 0 and n // 2 % 2 and is_prime(n // 2)]


# --- the result record ---------------------------------------------------------

def test_count_result_is_checked_and_immutable():
    result = CountResult(5, "d", 6, UniPoly([1, 1, 2, 1, 1]))
    assert repr(result) == ("CountResult(order=5, klass='d', total=6, "
                            "by_valency=UniPoly([1, 1, 2, 1, 1]), provenance='formula')")
    assert CountResult(5, "sd", 2).by_valency is None
    with pytest.raises(ConsistencyError):
        CountResult(5, "d", 7, UniPoly([1, 1, 2, 1, 1]))
    with pytest.raises(AttributeError):
        result.total = 7
    with pytest.raises(AttributeError):
        result.note = "extra"


def test_package_checks_by_raising_not_asserting():
    # python -O strips assert statements, so exact division and the
    # series/total invariant above must stay raises
    package = Path(counting.__file__).parent
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text())
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], (source.name, asserts)


# --- prime order ---------------------------------------------------------------

@pytest.mark.parametrize("p", PRIMES_IN_TABLE)
def test_prime_counts_match_catalog(p):
    expected = TABLE1[p]
    got = tuple(prime_enumerator(p, klass).total for klass in COLUMN_CLASSES)
    assert got == expected


def test_prime_enumerator_valency_series():
    assert prime_enumerator(13, "d").by_valency.coeffs == (
        1, 1, 6, 19, 43, 66, 80, 66, 43, 19, 6, 1, 1)
    assert prime_enumerator(7, "u").by_valency == UniPoly([1, 0, 1, 0, 1, 0, 1])
    assert prime_enumerator(37, "o").by_valency.coeff(4) == 1360
    assert prime_enumerator(37, "o").total == 10761723


def test_prime_enumerator_no_series_for_single_totals():
    for klass in ("sd", "su", "t"):
        assert prime_enumerator(13, klass).by_valency is None


def test_prime_enumerator_rejects_bad_input():
    with pytest.raises(ValueError):
        prime_enumerator(2, "d")
    with pytest.raises(ValueError):
        prime_enumerator(9, "d")


# --- twice prime order ----------------------------------------------------------

@pytest.mark.parametrize("n", TWICE_PRIMES_IN_TABLE)
def test_twice_prime_counts_match_catalog(n):
    expected = TABLE1[n][:3]
    got = tuple(twice_prime_enumerator(n // 2, klass).total
                for klass in ("d", "u", "o"))
    assert got == expected


def test_twice_prime_valency_series():
    d14 = twice_prime_enumerator(7, "d")
    assert d14.by_valency.coeffs == (1, 3, 14, 50, 123, 217, 292, 292, 217,
                                     123, 50, 14, 3, 1)
    assert d14.total == 1400
    u14 = twice_prime_enumerator(7, "u")
    assert u14.total == 48
    assert [u14.by_valency.coeff(2 * r) for r in range(7)] == [1, 2, 5, 8, 5, 2, 1]
    o38 = twice_prime_enumerator(19, "o")
    assert o38.by_valency.coeff(4) == 2720
    assert o38.total == 21523445


def test_twice_prime_rejects_self_complementary_classes():
    for klass in ("sd", "su", "t"):
        with pytest.raises(UnsupportedOrderError):
            twice_prime_enumerator(7, klass)


def twice_prime_by_own_substitution(p, klass):
    """The reference order-2p series: d and u at x_r -> x_r^2 times 1 + z,
    written out; o with its own plain odd-r substitution x_r -> 1 + 2z^r."""
    if klass == "o":
        return substitute(cycle_index(p - 1), ((0, 0, False), (2, 1, False)))
    m = (p - 1) // 2 if klass == "u" else p - 1
    return (substitute(cycle_index(m), _SUBST[klass], exponent_factor=2)
            * UniPoly.one_plus(1))


def test_twice_prime_matches_own_substitution():
    primes = [p for p in range(3, 600, 2) if is_prime(p)]
    cases = [(p, klass) for p in primes for klass in ("d", "u", "o")]
    assert len(cases) == 324
    for p, klass in cases:
        assert (twice_prime_enumerator(p, klass).by_valency
                == twice_prime_by_own_substitution(p, klass)), (p, klass)


def test_formal_undirected_matches_undirected_substitution():
    for n in range(3, 400, 2):
        want = substitute(cycle_index((n - 1) // 2), _SUBST["u"])
        assert formal_undirected(n) == want, n


# --- prime squared order --------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7])
def test_prime_squared_counts_match_catalog(p):
    expected = TABLE1[p * p]
    got = tuple(prime_squared_enumerator(p, klass).total
                for klass in COLUMN_CLASSES)
    assert got == expected


def test_prime_squared_big_example():
    assert prime_squared_enumerator(13, "sd").total == 123992391755402970674764
    assert prime_squared_enumerator(13, "su").total == 56385212104
    assert prime_squared_enumerator(13, "t").total == 123992391755346585462636


def test_prime_squared_rejects_two():
    with pytest.raises(ValueError):
        prime_squared_enumerator(2, "d")


# --- valency tables --------------------------------------------------------------

@pytest.mark.parametrize("n", sorted(TABLE2_U))
def test_undirected_valency_columns(n):
    result = count_by_formula(n, "u")
    got = [result.by_valency.coeff(2 * r) for r in range(len(TABLE2_U[n]))]
    assert got == TABLE2_U[n]


@pytest.mark.parametrize("n", sorted(TABLE2_D))
def test_directed_valency_columns(n):
    result = count_by_formula(n, "d")
    got = [result.by_valency.coeff(r) for r in range(len(TABLE2_D[n]))]
    assert got == TABLE2_D[n]


@pytest.mark.parametrize("n", sorted(TABLE2_O))
def test_oriented_valency_columns(n):
    result = count_by_formula(n, "o")
    got = [result.by_valency.coeff(r) for r in range(len(TABLE2_O[n]))]
    assert got == TABLE2_O[n]


# --- dispatch ---------------------------------------------------------------------

def test_formula_kind():
    assert formula_kind(13) == ("prime", 13)
    assert formula_kind(38) == ("twice_prime", 19)
    assert formula_kind(169) == ("prime_squared", 13)
    assert formula_kind(50) is None      # 2 * 5^2
    assert formula_kind(4) is None       # 2 * 2
    assert formula_kind(15) is None


def test_count_by_formula_unsupported():
    with pytest.raises(UnsupportedOrderError):
        count_by_formula(15, "d")
    with pytest.raises(UnsupportedOrderError):
        count_by_formula(14, "sd")
    with pytest.raises(UnsupportedOrderError):
        count_by_formula(-3, "d")


def test_has_formula_is_where_count_by_formula_answers():
    for n in range(-3, 61):
        for klass in CLASSES + ("zz",):
            try:
                count_by_formula(n, klass)
                answers = True
            except UnsupportedOrderError:
                answers = False
            assert has_formula(n, klass) == answers, (n, klass)


# --- structural invariants ---------------------------------------------------------

def test_palindromic_valency_series():
    for p in [n for n in range(3, 200) if is_prime(n)]:
        cd = prime_enumerator(p, "d").by_valency
        assert all(cd.coeff(r) == cd.coeff(p - 1 - r) for r in range(p))
        cu = prime_enumerator(p, "u").by_valency
        assert all(cu.coeff(2 * r) == cu.coeff(p - 1 - 2 * r)
                   for r in range((p - 1) // 2 + 1))


def test_undirected_odd_orders_have_even_powers_only():
    for n in [n for n in range(3, 200) if formula_kind(n)
              and formula_kind(n)[0] != "twice_prime"]:
        poly = count_by_formula(n, "u").by_valency
        assert all(c == 0 for r, c in enumerate(poly.coeffs) if r % 2 == 1), n


def test_totals_equal_series_at_one():
    for n in range(2, 201):
        kind = formula_kind(n)
        if not kind:
            continue
        classes = ("d", "u", "o") if kind[0] == "twice_prime" else CLASSES
        for klass in classes:
            result = count_by_formula(n, klass)
            if result.by_valency is not None:
                assert result.by_valency(1) == result.total


def test_formal_undirected():
    assert formal_undirected(7) == UniPoly([1, 0, 1, 0, 1, 0, 1])
    f19 = formal_undirected(19)
    assert [f19.coeff(2 * r) for r in range(10)] == [1, 1, 4, 10, 14, 14, 10, 4, 1, 1]
    assert f19(1) == 60
    assert f19 == prime_enumerator(19, "u").by_valency
    # composite argument: still a well-defined polynomial
    f55 = formal_undirected(55)
    assert f55.degree == 54
    assert f55.coeff(0) == 1
    with pytest.raises(ValueError):
        formal_undirected(10)


# --- alternating sums ---------------------------------------------------------------

def test_alternating_sums_examples():
    assert alternating_sum(13, "d") == 8
    assert alternating_sum(29, "u") == 10
    assert alternating_sum(37, "o") == 1
    assert alternating_sum(19, "o") == 0


def test_alternating_sums_match_self_complementary_counts():
    for n in range(3, 101):
        kind = formula_kind(n)
        if not kind:
            continue
        if kind[0] != "twice_prime":
            assert alternating_sum(n, "d") == count_by_formula(n, "sd").total
            assert alternating_sum(n, "u") == count_by_formula(n, "su").total
        else:
            assert alternating_sum(n, "d") == 0
        assert alternating_sum(n, "o") == oriented_alternating_expected(n)


def test_oriented_alternating_expected_only_where_proven():
    # rule 6.3 in its general-order form fails at 21 (c_o(21, -1) = -5, see
    # tests/test_oracle.py); only prime, 2p and odd p^2 orders are predicted
    for n in (15, 21, 30, 33, 1, 4, 8, 45):
        with pytest.raises(ValueError):
            oriented_alternating_expected(n)
    assert [oriented_alternating_expected(n) for n in (2, 3, 5, 6, 9, 14, 25, 49)] == \
        [1, 0, 1, 1, 0, 1, 1, 0]


def test_alternating_sum_unsupported_order():
    with pytest.raises(UnsupportedOrderError):
        alternating_sum(15, "d")


def test_alternating_sum_undirected_even_order_rejected():
    # even-order undirected series carry odd powers, so the z^2 -> -1
    # evaluation is undefined there
    with pytest.raises(ValueError):
        alternating_sum(14, "u")


# --- even/odd splits -----------------------------------------------------------------

def test_even_odd_split_examples():
    assert even_odd_split(13, "d") == (180, 172)
    assert even_odd_split(13, "u") == (8, 6)
    assert even_odd_split(7, "u") == (2, 2)


def test_even_odd_split_reconciles_with_alternating():
    for n in range(3, 101):
        kind = formula_kind(n)
        if not kind:
            continue
        even, odd = even_odd_split(n, "d")
        assert even + odd == count_by_formula(n, "d").total
        assert even - odd == alternating_sum(n, "d")
        if kind[0] != "twice_prime":
            even, odd = even_odd_split(n, "u")
            assert even + odd == count_by_formula(n, "u").total
            assert even - odd == alternating_sum(n, "u")


def test_even_odd_split_rejects_even_order_undirected():
    with pytest.raises(UnsupportedOrderError):
        even_odd_split(14, "u")


def test_split_and_alternating_sum_match_filtered_coefficient_sums():
    # the evaluators the split replaced: p(-1) filtered on r mod 2, and the
    # u series at z = i filtered on r mod 4, which needs every odd power zero
    cells = 0
    for n in range(3, 400):
        if formula_kind(n) is None:
            continue
        for klass in ("d", "o", "u"):
            if klass == "u" and n % 2 == 0:
                continue
            cs = count_by_formula(n, klass).by_valency.coeffs
            if klass == "u":
                assert not any(cs[1::2]), n
                want = (sum(c for r, c in enumerate(cs) if r % 4 == 0),
                        sum(c for r, c in enumerate(cs) if r % 4 == 2))
            else:
                want = (sum(c for r, c in enumerate(cs) if r % 2 == 0),
                        sum(c for r, c in enumerate(cs) if r % 2 == 1))
            assert even_odd_split(n, klass) == want, (n, klass)
            assert alternating_sum(n, klass) == want[0] - want[1], (n, klass)
            cells += 1
    assert cells == 342


# --- point values -------------------------------------------------------------------

def test_point_values_equal_the_series():
    # the point substitution against the series, in every class at every
    # formula order below 400: at z = 1 and -1, and at z = i for u at odd
    # orders (sd, su, t: a constant series, their total).  Keep this test:
    # at odd orders value_at(n, "d", -1) and value_at(n, "u", 1j) run exactly
    # the sd and su substitutions, so identities 6.1, 6.2 and the odd-order
    # cells of 6.5 and 6.6 compare one computation with itself, and this is
    # their independent check
    compared = 0
    for n in range(3, 400):
        for klass in CLASSES:
            if not has_formula(n, klass):
                continue
            result = count_by_formula(n, klass)
            series = result.by_valency or UniPoly.constant(result.total)
            for z in (1, -1):
                assert value_at(n, klass, z) == series(z), (n, klass, z)
                compared += 1
            if klass == "u" and n % 2:
                cs = series.coeffs
                assert not any(cs[1::2]), n
                at_i = sum(c * (-1) ** (r // 2) for r, c in enumerate(cs))
                assert value_at(n, "u", 1j) == at_i, n
                compared += 1
    assert compared == 1362


def test_z_i_is_refused_where_the_value_is_not_an_integer():
    # d and o carry odd valencies at every order, u at 2p (the factor 1 + z)
    for n, klass in [(13, "d"), (26, "d"), (169, "d"), (13, "o"), (26, "o"),
                     (169, "o"), (26, "u"), (38, "u")]:
        with pytest.raises(UnsupportedOrderError):
            value_at(n, klass, 1j)
    with pytest.raises(ValueError):
        value_at(13, "d", 2)


def test_a_memoised_series_answers_the_total(monkeypatch):
    with counting.order_memo():
        total = count_by_formula(13, "d").total

        def refuse(*args):
            raise RuntimeError(f"computed {args}")

        monkeypatch.setattr(counting, "_evaluate", refuse)
        assert value_at(13, "d") == total == 352
        with pytest.raises(RuntimeError):
            value_at(13, "d", -1)


def test_split_of_an_odd_sum_raises(monkeypatch):
    real = counting.value_at
    monkeypatch.setattr(counting, "value_at",
                        lambda n, klass, point=1: real(n, klass, point) + (point == -1))
    with pytest.raises(InexactDivisionError):
        even_odd_split(13, "d")


def test_directed_total_near_ten_to_the_fifth_is_the_necklace_sum():
    # C_d(p) = (1/(p-1)) sum_{r | p-1} phi(r) 2^((p-1)/r), by divisors and the
    # totient of numtheory, not the divisor-totient table the formulas read
    p = 100003
    necklaces, rem = divmod(sum(euler_phi(r) * 2 ** ((p - 1) // r)
                                for r in divisors(p - 1)), p - 1)
    assert rem == 0
    assert value_at(p, "d") == necklaces
    assert necklaces.bit_length() == 99986


# --- mixed and non-CI ----------------------------------------------------------------

def test_mixed_sd_values():
    assert mixed_sd(13) == 24
    assert mixed_sd(7) == 0
    assert mixed_sd(5) == 2


def test_mixed_sd_internal_consistency_to_100():
    # identities 5.3 and 5.5 compare mixed_sd with its two other forms
    for p in [n for n in range(3, 100) if is_prime(n)]:
        assert check("5.3", p * p).status == "holds", p
        assert check("5.5", p * p).status == "holds", p


# --- log-concavity -------------------------------------------------------------------

def test_log_concavity_prime_orders_clean():
    for p in [n for n in range(5, 200) if is_prime(n)]:
        assert log_concavity_probe(p) == []


def test_log_concavity_violations_at_prime_squares():
    assert [v[0] for v in log_concavity_probe(121)] == [2, 58]
    assert [v[0] for v in log_concavity_probe(169)] == [2, 82]
    r, before, at, after = log_concavity_probe(121)[0]
    assert (r, at * at < before * after) == (2, True)


def test_log_concavity_with_supplied_counts():
    poly = count_by_formula(37, "u").by_valency
    assert log_concavity_probe(37, poly) == []


def test_log_concavity_stops_at_a_short_series():
    # the interior range reaches past the supplied series' last even power
    assert log_concavity_probe(27, UniPoly([1, 0, 1])) == []


# --- the substitution kernel ----------------------------------------------------

# SHA-256 over the records below as produced by the earlier selector-and-
# repeated-squaring substitution path, which the binomial-row kernel replaced.
OUTPUT_DIGEST = "234ee622097f07e5349b9ee65f5971a618003cf20dee037aaa7083d177517121"


def test_output_digest_unchanged():
    lines = []
    for n in range(1, 401):
        for klass in CLASSES:
            try:
                record = count_by_formula(n, klass).to_json()
            except UnsupportedOrderError:
                continue
            lines.append(json.dumps(record, sort_keys=True))
    for n in range(3, 402, 2):
        lines.append(json.dumps(list(formal_undirected(n).coeffs)))
    assert len(lines) == 839
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
    assert digest.hexdigest() == OUTPUT_DIGEST


# SHA-256 over the order-p^2 records past the digest above, as produced by the
# two-substitution kernel that built y as its own substitution.
PRIME_SQUARED_DIGEST = "19b609a3dfbca4e9d8340d100ed632e0cd454ddc01bd79aa5d002a081b01bc1d"


def test_prime_squared_digest_past_order_400():
    primes = [p for p in range(23, 62, 2) if is_prime(p)]
    lines = [json.dumps(prime_squared_enumerator(p, klass).to_json(), sort_keys=True) + "\n"
             for p in primes for klass in CLASSES]
    assert len(lines) == 60
    digest = hashlib.sha256("".join(lines).encode())
    assert digest.hexdigest() == PRIME_SQUARED_DIGEST


def corrupted_cycle_index(n):
    """I_n with the weight of x_1 off by one."""
    first, *rest = cycle_index(n).terms
    bumped = CycleIndexTerm(first.var_index, first.weight + 1, first.exponent)
    return CycleIndex(n, (bumped, *rest))


@pytest.mark.parametrize("enumerator", [prime_enumerator, prime_squared_enumerator])
@pytest.mark.parametrize("klass", ["d", "u", "o"])
def test_corrupted_weight_fails_exact_division(monkeypatch, enumerator, klass):
    monkeypatch.setattr(counting, "cycle_index", corrupted_cycle_index)
    with pytest.raises(InexactDivisionError):
        enumerator(13, klass)
