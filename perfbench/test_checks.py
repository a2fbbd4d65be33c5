"""Tests of the benchmark's answer checker, against the published catalog.

    python3 -m pytest perfbench/test_checks.py -q

None of these tests runs circenum: they show that the independent
computations reproduce published values and that the checks reject a
perturbed answer.
"""

from itertools import product
from math import gcd

import pytest

import checks
import workloads
from catalog import SD_169, SERIES_D, SERIES_U, TABLE1, TABLE1_CLASSES

PRIMES = [p for p in range(3, 51) if checks.is_small_prime(p)]


def _brute_orbits(n: int, klass: str) -> int:
    """Multiplier orbits of oriented (o) or undirected (u) connection sets."""
    pairs = [s for s in range(1, n // 2 + 1)]
    units = [m for m in range(1, n) if gcd(m, n) == 1]
    choices = (0, 1, 2) if klass == "o" else (0, 1)
    seen, orbits = set(), 0
    for pick in product(choices, repeat=len(pairs)):
        if klass == "o" and any(c and 2 * s == n for s, c in zip(pairs, pick)):
            continue
        members = set()
        for s, c in zip(pairs, pick):
            if c == 1:
                members |= {s, n - s} if klass == "u" else {s}
            elif c == 2:
                members.add(n - s)
        key = frozenset(members)
        if key not in seen:
            orbits += 1
            seen.update(frozenset(m * s % n for s in key) for m in units)
    return orbits


@pytest.mark.parametrize("n", sorted(TABLE1))
def test_burnside_against_catalog(n):
    for klass in TABLE1_CLASSES:
        printed = TABLE1[n][klass]
        orbits = checks.burnside_total(n, klass)
        if checks.is_ci_order(n, undirected=klass in ("u", "su")):
            if klass == "o" and n > 16 and orbits != printed:
                # The printed oriented column falls below the multiplier-orbit
                # count at these CI orders; test_oriented_orbits confirms the
                # count by brute force.
                assert n in (20, 21, 28, 30, 33, 35, 39, 42, 44)
                assert printed < orbits
                continue
            assert orbits == printed, (n, klass)
        elif klass not in ("sd", "su"):
            assert orbits >= printed, (n, klass)


@pytest.mark.parametrize("n", [12, 15, 20, 21])
def test_oriented_orbits_by_brute_force(n):
    assert checks.burnside_total(n, "o") == _brute_orbits(n, "o")


@pytest.mark.parametrize("n", [9, 16, 22, 25])
def test_undirected_series_orbits_by_brute_force(n):
    assert sum(checks.burnside_series(n, "u")) == _brute_orbits(n, "u")


@pytest.mark.parametrize("p", PRIMES)
def test_necklace_formula_against_catalog_and_burnside(p):
    for klass in ("d", "u"):
        series = checks.prime_series(p, klass)
        assert series == checks.burnside_series(p, klass)
        assert sum(series) == TABLE1[p][klass]
    if p in SERIES_D:
        assert checks.prime_series(p, "d")[:len(SERIES_D[p])] == SERIES_D[p]
    if p in SERIES_U:
        assert checks.prime_series(p, "u")[0::2] == SERIES_U[p]


def _text(series, tag="formula"):
    return " ".join(map(str, series)) + f" ({tag})\n"


def test_series_check_rejects_a_perturbed_coefficient():
    query = workloads._series_query(37, "d", want=checks.prime_series(37, "d"))
    published = SERIES_D[37] + checks.prime_series(37, "d")[len(SERIES_D[37]):]
    assert query.check(0, _text(published)) == []
    for r in (0, 7, 20, 36):
        perturbed = list(published)
        perturbed[r] += 1
        assert query.check(0, _text(perturbed)), r
    assert query.check(0, _text(published[:-1]))
    assert query.check(0, _text(published, "oracle"))
    assert query.check(1, _text(published))


def test_series_bound_rejects_an_excess_coefficient():
    bound = checks.burnside_series(25, "d")
    assert checks.check_series_bound(bound, bound, "25 d") == []
    over = list(bound)
    over[3] += 1
    assert checks.check_series_bound(over, bound, "25 d")


def _table_text(rows, max_order):
    lines = ["\t".join(["n", "C_d", "C_u", "C_o", "C_sd", "C_su", "C_t"])]
    for n in range(2, max_order + 1):
        lines.append("\t".join([str(n)] + [str(rows[n][k]) for k in TABLE1_CLASSES]))
    return "\n".join(lines) + "\n"


def test_table_check_against_catalog():
    rows = {n: dict(TABLE1[n]) for n in range(2, 16)}
    assert checks.check_table1(checks.parse_table1(_table_text(rows, 15)), 15) == []
    rows[15]["o"] = 276          # the misprinted value
    assert checks.check_table1(checks.parse_table1(_table_text(rows, 15)), 15)
    rows[15]["o"] = 290
    rows[9]["sd"] += 1
    assert checks.check_table1(checks.parse_table1(_table_text(rows, 15)), 15)


def test_p2_relations_against_catalog():
    for p in (3, 5, 7):
        row = TABLE1[p * p]
        assert checks.p2_relations(p, row["sd"], row["su"], row["t"]) == []
        assert checks.p2_relations(p, row["sd"] + 2, row["su"], row["t"])
    assert checks.p2_relations(5, 214, 7, 204)


def test_known_sd_values():
    assert checks.known_sd(169) == SD_169
    assert [checks.known_sd(n) for n in (13, 14, 15, 25)] == [8, 0, 20, 214]


def test_chain_starts_match_published_example():
    assert checks.chain_starts(21, 200) == [4, 16, 128]


@pytest.mark.parametrize("h,ks", [(3, range(17, 26)), (9, range(17, 24)),
                                  ((1 << 21) + 1, range(1, 4))])
def test_certificates_agree_with_trial_division(h, ks):
    for k in ks:
        prime, how = checks.certify(h, k)
        assert prime == checks.is_small_prime(h * (1 << k) + 1), (h, k, how)


def test_fermat_pseudoprime_is_certified_composite():
    # 2^32 + 1 = 641 * 6700417 passes the base-2 Fermat test
    assert checks.certify(1, 32) == (False, "Fermat witness 3")


def _identity_records(max_order, lemma_max):
    records = []
    for key, orders in checks.identity_orders(max_order, lemma_max).items():
        for n in orders:
            value = {"3.1": lambda: str(checks.prime_series(n, "u")),
                     "3.1'": lambda: str(sum(checks.prime_series(n, "u"))),
                     "3.7": lambda: str(checks.burnside_total(n, "sd")),
                     "4.1": lambda: str(2 * checks.burnside_total(n, "sd")),
                     "4.4": lambda: str(4 * sum(checks.prime_series(n, "d"))),
                     "5.6": lambda: str(checks.known_sd(n)),
                     "6.1": lambda: str(checks.known_sd(n))}.get(key, lambda: "0")()
            records.append({"key": key, "order": n, "status": "holds",
                            "lhs": value, "rhs": value})
    return records


def test_identity_cells_follow_the_hypotheses():
    assert sum(map(len, checks.identity_orders(300, 128).values())) == 1531
    records = _identity_records(60, 4)
    assert checks.check_identity_records(records, 60, 4) == []
    perturbed = [dict(r) for r in records]
    index = next(i for i, r in enumerate(perturbed) if r["key"] == "4.4")
    perturbed[index]["lhs"] = perturbed[index]["rhs"] = str(int(perturbed[index]["lhs"]) + 4)
    assert checks.check_identity_records(perturbed, 60, 4)
    assert checks.check_identity_records(records[1:], 60, 4)
    failing = [dict(r) for r in records]
    failing[0]["status"] = "fails"
    assert checks.check_identity_records(failing, 60, 4)


def test_log_concavity_violations():
    assert checks.log_concavity_violations(37, checks.prime_series(37, "u")) == []
    bumpy = [1, 0, 1, 0, 9, 0, 1, 0, 9, 0, 1, 0, 1]
    assert [v[0] for v in checks.log_concavity_violations(13, bumpy)] == [3]
