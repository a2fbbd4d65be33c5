"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact integer equality; the only tolerances are
the wall-clock budgets stated alongside each criterion.

Criterion 4 note: the catalog's oriented column is misprinted at n = 8, 12
and 15 (see tests/golden.py and test_oracle.py); those three cells are
checked against the exhaustively verified counts instead, and the printed
values are pinned by an xfail test in test_oracle.py.
"""

import time
from contextlib import contextmanager

from circenum.counting import (alternating_sum, count_by_formula, formula_kind,
                               log_concavity_probe, mixed_sd,
                               oriented_alternating_expected, prime_enumerator,
                               prime_squared_enumerator,
                               twice_prime_enumerator)
from circenum.identities import verify_range
from circenum.numtheory import cunningham_pairs, is_prime, nearly_doubled_primes
from circenum.oracle import classify_self_complementary, enumerate_circulants

from golden import (COLUMN_CLASSES, ORIENTED_CORRECTIONS, TABLE1, TABLE2_D,
                    TABLE2_O, TABLE2_U)

PRIME_ORDERS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
TWICE_PRIME_ORDERS = (6, 10, 14, 22, 26, 34, 38, 46)
PRIME_SQUARED_ORDERS = (9, 25, 49)


@contextmanager
def criterion(number: int, budget_seconds: float, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"FAIL criterion {number}: {label} "
              f"(over budget: {elapsed:.1f}s >= {budget_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded {budget_seconds}s")
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_1_table1_formula_path():
    with criterion(1, 5.0, "catalog totals via formulas at all supported orders"):
        for p in PRIME_ORDERS:
            got = tuple(prime_enumerator(p, k).total for k in COLUMN_CLASSES)
            assert got == TABLE1[p], p
        for n in TWICE_PRIME_ORDERS:
            got = tuple(twice_prime_enumerator(n // 2, k).total
                        for k in ("d", "u", "o"))
            assert got == TABLE1[n][:3], n
        for n in PRIME_SQUARED_ORDERS:
            p = round(n ** 0.5)
            got = tuple(prime_squared_enumerator(p, k).total
                        for k in COLUMN_CLASSES)
            assert got == TABLE1[n], n


def test_criterion_2_table2_valency_columns():
    with criterion(2, 5.0, "valency tables exact at every listed entry"):
        for n, column in TABLE2_U.items():
            poly = count_by_formula(n, "u").by_valency
            assert [poly.coeff(2 * r) for r in range(len(column))] == column, n
        for n, column in TABLE2_D.items():
            poly = count_by_formula(n, "d").by_valency
            assert [poly.coeff(r) for r in range(len(column))] == column, n
        for n, column in TABLE2_O.items():
            poly = count_by_formula(n, "o").by_valency
            assert [poly.coeff(r) for r in range(len(column))] == column, n


def test_criterion_3_big_integer_example():
    with criterion(3, 1.0, "order-169 self-complementary counts and mixed = 24"):
        assert prime_squared_enumerator(13, "sd").total == 123992391755402970674764
        assert prime_squared_enumerator(13, "su").total == 56385212104
        assert prime_squared_enumerator(13, "t").total == 123992391755346585462636
        assert mixed_sd(13) == 24


def test_criterion_4_oracle_formula_equivalence():
    with criterion(4, 60.0, "oracle equals formulas; catalog match at "
                            "no-formula orders (oriented cells per verified "
                            "corrections)"):
        for n in (3, 5, 6, 7, 9, 10, 11, 13, 14):
            kind = formula_kind(n)
            classes = ("d", "u", "o") if kind[0] == "twice_prime" else COLUMN_CLASSES
            for klass in classes:
                formula = count_by_formula(n, klass)
                oracle = enumerate_circulants(n, klass)
                assert oracle.total == formula.total, (n, klass)
                assert oracle.by_valency == formula.by_valency, (n, klass)
        for n in (2, 4, 8, 12, 15):
            expected = list(TABLE1[n])
            if n in ORIENTED_CORRECTIONS:
                expected[2] = ORIENTED_CORRECTIONS[n]
            got = [enumerate_circulants(n, k).total for k in COLUMN_CLASSES]
            assert got == expected, n
        assert enumerate_circulants(12, "d").total == 624
        assert enumerate_circulants(15, "d").total == 2172
        assert enumerate_circulants(15, "sd").total == 20


def test_criterion_5_identity_suite():
    with criterion(5, 30.0, "every applicable identity holds up to order 100"):
        reports = verify_range(order_bound=100, lemma_bound=64)
        assert reports
        failing = [r for r in reports if r.status != "holds"]
        assert not failing, failing[:5]


def test_criterion_6_worked_identity_spot_checks():
    with criterion(6, 5.0, "worked identity arithmetic, exact"):
        assert 4 * prime_enumerator(13, "d").total \
            - twice_prime_enumerator(7, "d").total == 8
        assert 4 * prime_enumerator(13, "u").total \
            - twice_prime_enumerator(7, "u").total == 8
        cd73 = prime_enumerator(73, "d").total
        assert cd73 == 65588423374144427520
        lhs = 4 * cd73 - twice_prime_enumerator(37, "d").total
        rhs = (4 * prime_enumerator(73, "u").total
               - twice_prime_enumerator(37, "u").total)
        assert lhs == rhs == 120
        cd37 = prime_enumerator(37, "d").by_valency
        cd38 = twice_prime_enumerator(19, "d").by_valency
        cu19 = prime_enumerator(19, "u").by_valency
        assert 2 * (cd37.coeff(4) + cd37.coeff(3)) == cd38.coeff(4) + cu19.coeff(2)
        assert 2 * (1641 + 199) == 3679 + 1


def test_criterion_7_alternating_sums():
    with criterion(7, 10.0, "alternating sums at every formula-supported "
                            "order up to 100"):
        for n in range(3, 101):
            kind = formula_kind(n)
            if kind is None:
                continue
            shape = kind[0]
            if shape == "twice_prime":
                assert alternating_sum(n, "d") == 0, n
            else:
                assert alternating_sum(n, "d") == count_by_formula(n, "sd").total, n
                # the u series at z = i, term by term: odd n has even powers only
                cs = count_by_formula(n, "u").by_valency.coeffs
                assert sum(cs[0::4]) - sum(cs[2::4]) == \
                    count_by_formula(n, "su").total, n
            oriented = alternating_sum(n, "o")
            assert oriented in (0, 1), n
            assert oriented == oriented_alternating_expected(n), n


def test_criterion_8_mixed_classification():
    with criterion(8, 30.0, "self-complementary classification at 15 and 13"):
        assert classify_self_complementary(15) == (0, 16, 4)
        assert classify_self_complementary(13) == (2, 6, 0)


def test_criterion_9_number_theory():
    with criterion(9, 30.0, "nearly doubled primes and chain starts"):
        pairs = nearly_doubled_primes(1000)
        assert len(pairs) == 21
        assert [pair.p for pair in pairs[:6]] == [3, 5, 13, 37, 61, 73]
        assert cunningham_pairs(3, 50) == [1, 5]
        assert cunningham_pairs(9, 50) == [1, 2, 6, 42]
        assert cunningham_pairs(15, 40) == [1, 9, 37]
        assert cunningham_pairs(21, 200) == [4, 16, 128]
        assert cunningham_pairs(27, 50) == [19, 46]


def test_criterion_10_log_concavity():
    with criterion(10, 600.0, "log-concavity: clean primes, violations at "
                              "27 / 121 / 169"):
        for n in (121, 169):
            violations = log_concavity_probe(n)
            assert 2 in [v[0] for v in violations], n
        for p in (pp for pp in range(5, 200) if is_prime(pp)):
            assert log_concavity_probe(p) == [], p
        series = enumerate_circulants(27, "u").by_valency
        violations = log_concavity_probe(27, series)
        assert 2 in [v[0] for v in violations]
