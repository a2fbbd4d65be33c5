import hashlib
import json
import sys

import pytest

from circenum import counting, identities
from circenum.algebra import UniPoly
from circenum.cli import main
from circenum.errors import UnsupportedOrderError
from circenum.identities import (IDENTITIES, IDENTITY_KEYS, LEMMA_KEYS, IdentityReport,
                                 applicable, check, evaluable, verify_range)


def test_registry_covers_expected_keys():
    expected = {"3.1", "3.1'", "3.2", "3.3", "3.3'", "3.4", "3.5", "3.6",
                "3.7", "3.8", "4.1", "4.1'", "4.1''", "4.2", "4.3", "4.3'",
                "4.4", "4.5", "4.6", "4.6'", "4.7", "4.7'", "5.2", "5.3",
                "5.4", "5.5", "5.6", "6.1", "6.2", "6.3", "6.4", "6.5",
                "6.6", "6.7", "L2.1", "L2.4", "L2.6", "L2.7"}
    assert set(IDENTITY_KEYS) == expected


def test_applicable_examples():
    assert applicable("3.1", 13)       # 13 and 7 both prime
    assert not applicable("3.1", 11)   # 6 is not twice a prime
    assert applicable("3.4", 21)       # 3 | 21 and 3 = 3 mod 4
    assert not applicable("3.4", 25)   # all divisors 1 mod 4
    assert applicable("3.3", 5) and not applicable("3.3", 3)
    assert applicable("3.6", 5) and applicable("3.6", 13)
    assert not applicable("3.6", 73)   # 73 = 1 mod 8
    assert applicable("5.3", 169) and not applicable("5.3", 170)
    assert applicable("6.1", 38) and not applicable("6.1", 50)


def test_3_5_applies_at_primes_and_prime_squares_3_mod_4():
    def prime(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    def root(n):
        r = round(n ** 0.5)
        return r if r * r == n else None

    for n in range(-5, 2500):
        p = n if prime(n) else root(n) if n > 0 and root(n) and prime(root(n)) else None
        assert applicable("3.5", n) == (p is not None and p % 4 == 3), n


def test_evaluable_vs_applicable():
    # hypotheses hold at 21 but no formula or desk-scale oracle reaches it
    assert applicable("3.4", 21) and not evaluable("3.4", 21)
    assert evaluable("3.4", 15, allow_oracle=True)
    assert not evaluable("3.4", 15)
    assert evaluable("5.2", 9) and not evaluable("5.2", 25)
    assert evaluable("3.8", 8, allow_oracle=True) and not evaluable("3.8", 8)
    # 3.8 applies at every even order; the undirected oracle reaches 24, not 28
    assert applicable("3.8", 28) and not evaluable("3.8", 28, allow_oracle=True)
    assert evaluable("3.8", 24, allow_oracle=True)


def test_check_not_applicable_is_clean():
    report = check("3.1", 11)
    assert report.status == "not-applicable"


@pytest.mark.parametrize("n", [-9, -4, -1, 0])
def test_orders_below_one_are_not_applicable(n):
    for key in IDENTITY_KEYS:
        assert not applicable(key, n), key
        assert check(key, n).status == "not-applicable", key


def test_check_unsupported_order_raises():
    with pytest.raises(UnsupportedOrderError):
        check("3.4", 21)


def test_check_worked_examples():
    r = check("4.1", 13)
    assert r.status == "holds" and r.lhs == "16" and r.rhs == "16"
    r = check("4.6", 13)
    assert r.status == "holds" and r.lhs == "8" and r.rhs == "8"
    r = check("4.6", 73)
    assert r.status == "holds" and r.lhs == "120" and r.rhs == "120"
    assert check("4.5", 37).status == "holds"
    assert check("4.7'", 13).status == "holds"


def test_check_spot_values_from_worked_identity():
    # 4 * 352 - 1400 = 4 * 14 - 48 = 8 at p = 13
    from circenum.counting import prime_enumerator, twice_prime_enumerator
    assert 4 * prime_enumerator(13, "d").total - twice_prime_enumerator(7, "d").total == 8
    assert 4 * prime_enumerator(13, "u").total - twice_prime_enumerator(7, "u").total == 8
    # 2 * (1641 + 199) = 3679 + 1 at p = 37, valency 4: the z^4 coefficient of
    # (1+z) * (2 c_d(37,z) - c_u(19,z^2)) = c_d(38,z)
    cd37 = prime_enumerator(37, "d").by_valency
    cd38 = twice_prime_enumerator(19, "d").by_valency
    cu19 = prime_enumerator(19, "u").by_valency
    assert (cd37.coeff(4), cd37.coeff(3)) == (1641, 199)
    assert (cd38.coeff(4), cu19.coeff(2)) == (3679, 1)
    assert 2 * (cd37.coeff(4) + cd37.coeff(3)) == cd38.coeff(4) + cu19.coeff(2)


def test_check_6x_examples():
    assert check("6.1", 13).status == "holds"
    assert check("6.1", 14).status == "holds"   # even order: both sides 0
    assert check("6.2", 29).status == "holds"
    assert check("6.3", 38).status == "holds"
    assert check("6.4", 13).status == "holds"
    assert check("6.7", 7).status == "holds"


def test_check_oracle_backed_identities():
    assert check("5.2", 9).status == "holds"
    assert check("5.4", 9).status == "holds"
    assert check("3.2", 3).status == "holds"   # needs order-2 counts
    assert check("3.8", 8, allow_oracle=True).status == "holds"
    assert check("3.4", 15, allow_oracle=True).status == "holds"


def test_check_lemma_smallest_cases():
    for key in LEMMA_KEYS:
        assert check(key, 1).status == "holds"
        assert check(key, 0).status == "not-applicable"


def test_check_lemma_spec_instances():
    assert check("L2.1", 6).status == "holds"
    for m in range(1, 33):
        assert check("L2.6", m).status == "holds"


def test_lemmas_hold_to_64():
    for key in LEMMA_KEYS:
        for m in range(1, 65):
            assert check(key, m).status == "holds", (key, m)


def test_unknown_key_errors():
    with pytest.raises(KeyError):
        check("9.9", 13)
    with pytest.raises(KeyError):
        applicable("9.9", 13)
    with pytest.raises(KeyError):
        check("L9.9", 3)
    with pytest.raises(KeyError):
        evaluable("9.9", 13)
    with pytest.raises(KeyError):
        verify_range(keys=("9.9",), order_bound=1)


def test_verify_range_all_hold_to_100():
    reports = verify_range(order_bound=100, lemma_bound=64)
    assert reports and all(r.status == "holds" for r in reports)


def test_verify_range_31_instantiations():
    reports = verify_range(keys=("3.1",), order_bound=40)
    assert [r.order for r in reports] == [3, 5, 13, 37]
    assert all(r.status == "holds" for r in reports)


def test_verify_range_38_twice_prime_orders():
    reports = verify_range(keys=("3.8",), order_bound=40)
    assert [r.order for r in reports] == [6, 10, 14, 22, 26, 34, 38]
    assert all(r.status == "holds" for r in reports)


def test_nearly_doubled_family_holds_to_200():
    # next instantiations past 100: p = 157 (q = 79) and p = 193 (q = 97)
    keys = ("4.2", "4.3", "4.3'", "4.4", "4.5", "4.6", "4.6'", "4.7", "4.7'")
    reports = verify_range(keys=keys, order_bound=200)
    orders = sorted({r.order for r in reports})
    assert orders == [5, 13, 37, 61, 73, 157, 193]
    assert all(r.status == "holds" for r in reports)


def test_verify_range_deterministic_order():
    a = verify_range(keys=("4.6", "3.7"), order_bound=50)
    b = verify_range(keys=("4.6", "3.7"), order_bound=50)
    assert [(r.key, r.order, r.status) for r in a] == \
        [(r.key, r.order, r.status) for r in b]


def test_verify_range_with_oracle_extension():
    reports = verify_range(keys=("3.8",), order_bound=12, allow_oracle=True)
    assert [r.order for r in reports] == [2, 4, 6, 8, 10, 12]
    assert all(r.status == "holds" for r in reports)


def test_reports_serialize(capsys):
    report = check("3.7", 13)
    record = report.to_json()
    assert record["key"] == "3.7" and record["status"] == "holds"
    # no timing or other field that could differ between equal reports
    assert tuple(record) == IdentityReport._fields == ("key", "order", "status", "lhs", "rhs")
    outputs = []
    for _ in range(2):
        assert main(["verify", "--identity", "3.7", "--max", "30",
                     "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] and outputs[0] == outputs[1]


def test_descriptions_present():
    assert all(ident.description for ident in IDENTITIES.values())


def test_verify_digest_unchanged():
    # SHA-256 of every report of the order-300 sweep with lemmas to 128 and
    # the oracle extension (1,540 reports).  Without the 3.8 rows at 2, 16,
    # 18, 20 and 24 the other 1,535 hash to 7be44109..., the digest computed
    # before the registry refactor that folded the lemmas and formula
    # coverage into one path
    reports = verify_range(order_bound=300, lemma_bound=128, allow_oracle=True)
    assert len(reports) == 1540
    text = "\n".join(json.dumps([r.key, r.order, r.status, r.lhs, r.rhs])
                     for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3c3603fab1755ea3b278ff21aab45513ac23b9ee287f73c02eaaa59c18020e83"


def test_shared_checkers_digest_to_1000():
    # 3.1', 3.2 and 3.6 share one checker, as do 6.1/6.2 and 6.5/6.6: their
    # reports to order 1000 (953), past the range of the digest above,
    # hashed the same way
    reports = verify_range(keys=("3.1'", "3.2", "3.6", "6.1", "6.2", "6.5", "6.6"),
                           order_bound=1000, lemma_bound=0)
    assert len(reports) == 953
    text = "\n".join(json.dumps([r.key, r.order, r.status, r.lhs, r.rhs])
                     for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "1fb686c065ba85bc6c78248be4d3792faae9cc69f9f9285e9e208c5100ff262c"


def test_product_and_constant_rows_digest_to_5000():
    # 3.3', 4.2, 4.4, 5.3, 5.5, 5.6 and 6.3 add a constant to, or multiply,
    # class values: their reports to order 5000 (1,283), hashed the same way,
    # as the hand-written checkers gave them before these became rows
    reports = verify_range(keys=("3.3'", "4.2", "4.4", "5.3", "5.5", "5.6", "6.3"),
                           order_bound=5000, lemma_bound=0)
    assert len(reports) == 1283
    assert all(r.status == "holds" for r in reports)
    text = "\n".join(json.dumps([r.key, r.order, r.status, r.lhs, r.rhs])
                     for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "b71b7f477c6b02c987c36242cf86c19678fff2d85716550ee34b20123576328f"


def test_series_rows_digest_to_2000():
    # 3.1, 3.3, 4.3, 4.5, 4.7 and 4.7' compare valency series, 5.4 oracle
    # counts and 6.7 a parity split: their reports to order 2000 (508),
    # hashed the same way, as the hand-written checkers gave them before
    # these became rows
    reports = verify_range(keys=("3.1", "3.3", "4.3", "4.5", "4.7", "4.7'", "5.4", "6.7"),
                           order_bound=2000, lemma_bound=0)
    assert len(reports) == 508
    assert all(r.status == "holds" for r in reports)
    text = "\n".join(json.dumps([r.key, r.order, r.status, r.lhs, r.rhs])
                     for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "0f7a1beacc38f01dd6b8100d2c5a34ebd2395812d614a81453c95661e592b47b"


@pytest.mark.parametrize("allow_oracle", [False, True])
def test_oracle_backed_keys_follow_the_coverage_rule(allow_oracle):
    # 3.4 reads C_su and 3.8 reads c_u; each is evaluable exactly where
    # covered, the rule table 1 reads too, holds for its class
    for key, klass in (("3.4", "su"), ("3.8", "u")):
        for n in range(1, 61):
            if applicable(key, n):
                assert evaluable(key, n, allow_oracle) == \
                    identities.covered(n, klass, allow_oracle), (key, n)


# --- the per-order enumerator memo ----------------------------------------------

ENUMERATORS = ("prime_enumerator", "twice_prime_enumerator",
               "prime_squared_enumerator")


def _record_enumerator_calls(monkeypatch):
    """Rebind each enumerator, in every circenum namespace that holds it, to
    a wrapper that logs (name, args); returns the log."""
    calls = []
    namespaces = [module for name, module in sys.modules.items()
                  if name == "circenum" or name.startswith("circenum.")]
    for name in ENUMERATORS:
        fn = getattr(counting, name)

        def logged(*args, _fn=fn, _name=name):
            calls.append((_name,) + args)
            return _fn(*args)

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    monkeypatch.setattr(ns, attr, logged)
    return calls


def _record_point_values(monkeypatch):
    """Rebind counting._evaluate, the dispatch value_at calls on a memo miss,
    to a wrapper that logs (order, class, point) for every point value it
    computes, not for those it refuses; returns the log."""
    values = []
    real = counting._evaluate

    def logged(order, klass, point=None):
        result = real(order, klass, point)
        if point is not None:
            values.append((order, klass, point))
        return result

    monkeypatch.setattr(counting, "_evaluate", logged)
    return values


def test_sweep_reports_equal_standalone_checks():
    # a memo hit must equal a recomputation: every report of the sweep
    # matches the same check run alone, outside any sweep
    reports = verify_range(order_bound=300, lemma_bound=128, allow_oracle=True)
    assert len(reports) == 1540
    for r in reports:
        alone = check(r.key, r.order, allow_oracle=True)
        assert (alone.status, alone.lhs, alone.rhs) == (r.status, r.lhs, r.rhs), \
            (r.key, r.order)


def test_no_memo_outlives_a_sweep(monkeypatch):
    verify_range(keys=("3.7", "4.1"), order_bound=30)
    assert counting._memo is None

    real_run = IDENTITIES["3.7"].run

    def boom(p):
        if p == 11:
            raise RuntimeError("checker failed at 11")
        return real_run(p)

    monkeypatch.setitem(IDENTITIES, "3.7",
                        IDENTITIES["3.7"]._replace(run=boom))
    with pytest.raises(RuntimeError):
        verify_range(keys=("4.1", "3.7"), order_bound=30)
    assert counting._memo is None
    monkeypatch.undo()

    calls = _record_enumerator_calls(monkeypatch)
    values = _record_point_values(monkeypatch)
    check("3.7", 13)
    check("3.7", 13)
    assert calls == []       # 3.7 reads totals, not series
    # sd, t, su at z = 1, computed again by the second check
    assert values == [(13, "sd", 1), (13, "t", 1), (13, "su", 1)] * 2


def test_sweep_computes_each_enumerator_once_per_order(monkeypatch):
    calls = _record_enumerator_calls(monkeypatch)
    values = _record_point_values(monkeypatch)
    real_check = identities.check

    def tagged_check(key, n, allow_oracle=False):
        # prefix the series and point values computed by this check with its order
        starts = len(calls), len(values)
        report = real_check(key, n, allow_oracle)
        for log, start in zip((calls, values), starts):
            log[start:] = [(n,) + entry for entry in log[start:]]
        return report

    monkeypatch.setattr(identities, "check", tagged_check)
    verify_range(order_bound=300, lemma_bound=128)
    # series for the checkers that compare series; 568 when every total
    # read a series, 2,428 with no memo
    assert len(calls) == len(set(calls)) == 91
    assert len(values) == len(set(values)) == 677
    # the same series or value recurs only at another sweep order
    assert len({call[1:] for call in calls}) == 82
    assert len({value[1:] for value in values}) == 637


@pytest.mark.parametrize("n,klass", [(13, "sd"), (26, "o"), (49, "t")])
def test_a_memo_hit_asks_no_formula_question(monkeypatch, n, klass):
    # prime, 2p and p^2: the miss asks formula_kind once, the hit not at all
    asked = []
    real = counting.formula_kind

    def spy(order):
        asked.append(order)
        return real(order)

    monkeypatch.setattr(counting, "formula_kind", spy)
    with counting.order_memo():
        first = counting.count_by_formula(n, klass)
        assert asked == [n]
        assert counting.count_by_formula(n, klass) is first
    assert asked == [n]


def test_count_falls_back_to_the_oracle_without_a_formula(monkeypatch):
    # 15 has no formula at all, nor 2, where 3.1 at p = 3 reads c_d(2, z^2);
    # sd at 2p, which has no formula either, is 0 without a survey (below)
    z = identities._Z
    surveyed = []
    real = identities.oracle.enumerate_circulants

    def spy(n, klass):
        surveyed.append((n, klass))
        return real(n, klass)

    monkeypatch.setattr(identities.oracle, "enumerate_circulants", spy)
    with counting.order_memo():
        assert identities._class_total(15, "u", z) == real(15, "u").by_valency
        assert identities._class_total(2, "d", z * z) == UniPoly((1, 0, 1))
        assert identities._class_total(15, "u") == 44
    assert surveyed == [(15, "u"), (2, "d"), (15, "u")]


@pytest.mark.parametrize("n", [2, 14, 22, 38])
def test_no_self_complementary_class_at_an_even_order(monkeypatch, n):
    # sd, su and t need valency (n-1)/2: 0 without a formula or a survey
    asked = []

    monkeypatch.setattr(identities, "value_at", lambda *args: asked.append(args))
    monkeypatch.setattr(identities.oracle, "enumerate_circulants",
                        lambda *args: asked.append(args))
    for klass in ("sd", "su", "t"):
        assert identities._class_total(n, klass) == 0
    assert asked == []


def test_a_refused_point_is_not_answered_by_the_oracle():
    # c_u(14, z) at z = i is no integer; the oracle's C_u(14) must not stand in
    with pytest.raises(UnsupportedOrderError):
        identities._class_total(14, "u", 1j)


# --- the failing path ---------------------------------------------------------

def _failing_keys_with_one_total_raised(monkeypatch, raised, n):
    """Keys that fail at order n once _class_total, the one reader of a class
    value in identities, returns the value `raised` = (order, class, point)
    one too high."""
    real = identities._class_total

    def off_by_one(order, klass, point=1):
        return real(order, klass, point) + ((order, klass, point) == raised)

    monkeypatch.setattr(identities, "_class_total", off_by_one)
    reports = [check(key, n) for key in IDENTITY_KEYS if evaluable(key, n)]
    return {r.key: r for r in reports if r.status == "fails"}


def test_a_raised_su_total_fails_every_identity_that_reads_it(monkeypatch):
    failing = _failing_keys_with_one_total_raised(monkeypatch, (7, "su", 1), 7)
    assert set(failing) == {"3.4", "3.7", "4.1", "4.1''", "6.2", "6.6"}
    # the second equality of the chain fails while the first still holds
    assert (failing["4.1''"].lhs, failing["4.1''"].rhs) == ("4", "4 = 5")


def test_a_raised_t_total_fails_every_identity_that_reads_it(monkeypatch):
    failing = _failing_keys_with_one_total_raised(monkeypatch, (7, "t", 1), 7)
    assert set(failing) == {"3.5", "3.7", "4.1'", "4.1''"}
    failing = _failing_keys_with_one_total_raised(monkeypatch, (7, "t", 1), 13)
    assert set(failing) == {"3.6"}


@pytest.mark.parametrize("raised,n,expected", [
    ((7, "u", 1j), 7, {"6.2", "6.4"}),
    ((13, "d", -1), 13, {"6.1", "6.4"}),
    ((13, "o", -1), 13, {"6.3"}),
    ((13, "u", identities._Z), 13, {"3.1", "4.3", "4.7", "4.7'"}),
], ids=["c_u(7,i)", "c_d(13,-1)", "c_o(13,-1)", "c_u(13,z)"])
def test_a_raised_point_value_fails_every_identity_that_reads_it(
        monkeypatch, raised, n, expected):
    # 6.5-6.7 read their alternating sums through counting.even_odd_split;
    # at z the raised value is the series plus 1, which 4.3' reads only at
    # valencies 4r+2
    assert set(_failing_keys_with_one_total_raised(monkeypatch, raised, n)) == expected
