"""The benchmark's workloads: fixed mixes of circenum CLI queries, each query
with the check its answer must pass, and relations that several answers of
one round must satisfy together.

Only the order of the queries within a round depends on the seed, so every
run does the same work.  Expected values are computed by ``checks`` when a
workload is built, before anything is timed.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from typing import Callable

import checks
from catalog import SD_169, TABLE1

Answer = tuple  # (exit code, standard output)


@dataclass(frozen=True)
class Query:
    name: str
    kind: str                                  # groups per-kind times
    argv: tuple[str, ...]
    check: Callable[[int, str], list[str]]     # (exit code, stdout) -> problems


@dataclass(frozen=True)
class Relation:
    names: tuple[str, ...]                     # the queries it reads
    check: Callable[[dict[str, Answer]], list[str]]


@dataclass(frozen=True)
class Workload:
    queries: tuple[Query, ...]
    relations: tuple[Relation, ...] = ()


def _series_query(order: int, klass: str, want=None, bound=None,
                  palindrome=False, extra=None, tag="formula",
                  flags=()) -> Query:
    name = f"count {order} {klass}"

    def check(code, out):
        if code != 0:
            return [f"exit code {code}"]
        got, provenance = checks.parse_series(out)
        problems = [] if provenance == tag else [f"provenance {provenance}, expected {tag}"]
        if want is not None:
            problems += checks.compare_series(got, want, name)
        if bound is not None:
            problems += checks.check_series_bound(got, bound, name)
        if palindrome:
            problems += checks.check_palindrome(got, name)
        if extra is not None:
            problems += extra(got)
        return problems

    argv = ("count", "--order", str(order), "--class", klass, "--poly") + tuple(flags)
    return Query(name, "count_series" if tag == "formula" else "count_oracle", argv, check)


def _total_query(order: int, klass: str, want=None) -> Query:
    def check(code, out):
        if code != 0:
            return [f"exit code {code}"]
        got, provenance = checks.parse_total(out)
        problems = [] if provenance == "formula" else [f"provenance {provenance}"]
        if want is not None and got != want:
            problems.append(f"C_{klass}({order}) = {got}, expected {want}")
        return problems

    return Query(f"count {order} {klass}", "count_total",
                 ("count", "--order", str(order), "--class", klass), check)


def _total(answers, name) -> int:
    return checks.parse_total(answers[name][1])[0]


def _series(answers, name) -> list[int]:
    return checks.parse_series(answers[name][1])[0]


def _p2_relation(p: int, with_d: bool) -> Relation:
    n = p * p
    names = tuple(f"count {n} {k}" for k in ("sd", "su", "t"))
    names += (f"count {n} d",) if with_d else ()

    def check(answers):
        return checks.p2_relations(
            p, *(_total(answers, f"count {n} {k}") for k in ("sd", "su", "t")),
            d_series=_series(answers, f"count {n} d") if with_d else None)

    return Relation(names, check)


def _gaussian_relation(n: int) -> Relation:
    """Identity 6.2: the undirected series at z^2 = -1 is C_su(n)."""
    def check(answers):
        value = checks.at_gaussian_unit(_series(answers, f"count {n} u"))
        su = _total(answers, f"count {n} su")
        return [] if value == su else [f"6.2 at {n}: c_u(i) = {value}, C_su = {su}"]

    return Relation((f"count {n} u", f"count {n} su"), check)


_VIOLATION = re.compile(r"order (\d+): violation at r=(\d+): (\d+)\^2 < (\d+)\*(\d+)$")


def _logconcave(order: int) -> tuple[Query, Relation]:
    name = f"logconcave {order}"

    def parse(out):
        violations = []
        for line in out.splitlines():
            if line == f"order {order}: log-concave":
                continue
            m = _VIOLATION.match(line)
            if m is None or int(m.group(1)) != order:
                raise ValueError(f"unexpected line {line!r}")
            r, b, a, c = (int(g) for g in m.group(2, 3, 4, 5))
            violations.append((r, a, b, c))
        return violations

    def check(code, out):
        parse(out)
        return [] if code in (0, 1) else [f"exit code {code}"]

    def relate(answers):
        code, out = answers[name]
        got = parse(out)
        want = checks.log_concavity_violations(order, _series(answers, f"count {order} u"))
        problems = [] if code == (1 if want else 0) else [f"exit code {code}"]
        if got != want:
            problems.append(f"violations {got[:3]}, expected {want[:3]}")
        return problems

    query = Query(name, "logconcave", ("logconcave", "--order", str(order)), check)
    return query, Relation((name, f"count {order} u"), relate)


def _chain(ptilde: int, k_max: int) -> Query:
    want = checks.chain_starts(ptilde, k_max)
    prefix = (f"chain starts k with {ptilde}*2^k+1 and {ptilde}*2^(k+1)+1 prime, "
              f"k <= {k_max}: ")

    def check(code, out):
        if code != 0:
            return [f"exit code {code}"]
        line = out.strip()
        if not line.startswith(prefix):
            return [f"unexpected output {line[:80]!r}"]
        listed = line[len(prefix):]
        got = [] if listed == "none" else [int(k) for k in listed.split(", ")]
        return [] if got == want else [f"chain starts {got}, expected {want}"]

    return Query(f"chain {ptilde} {k_max}", "chain",
                 ("primes", "--chain", "--ptilde", str(ptilde), "--kmax", str(k_max)),
                 check)


def formula() -> Workload:
    """Closed forms at large orders: the polynomial kernel and primality."""
    def oriented_alternating_zero(got):
        # identity 6.3: 0 when a prime divisor is 3 mod 4
        value = sum(c if r % 2 == 0 else -c for r, c in enumerate(got))
        return [] if value == 0 else [f"6.3 at 43^2: c_o(-1) = {value}"]

    log_query, log_relation = _logconcave(1681)
    queries = (
        _series_query(1009, "d", want=checks.prime_series(1009, "d")),
        _series_query(1999, "u", want=checks.prime_series(1999, "u")),
        # 2p orders: every circulant is a CI-graph, so Burnside is exact
        _series_query(1006, "d", want=checks.burnside_series(1006, "d")),
        _series_query(1994, "o", want=checks.burnside_series(1994, "o")),
        _series_query(961, "d", bound=checks.burnside_series(961, "d"), palindrome=True),
        _series_query(1681, "u", bound=checks.burnside_series(1681, "u"), palindrome=True),
        _series_query(1849, "o", bound=checks.burnside_series(1849, "o"),
                      extra=oriented_alternating_zero),
        *(_total_query(n, k) for n in (961, 1681) for k in ("sd", "su", "t")),
        _total_query(169, "sd", want=SD_169),
        log_query,
        _chain(9, 1000),
    )
    relations = (_p2_relation(31, with_d=True), _p2_relation(41, with_d=False),
                 _gaussian_relation(1681), log_relation)
    return Workload(queries, relations)


def verify() -> Workload:
    """The identity registry swept over a range of orders."""
    def records(code, out):
        if code != 0:
            return [f"exit code {code}"]
        return checks.check_identity_records(
            [json.loads(line) for line in out.splitlines()], 300, 128)

    def summary(code, out):
        if code != 0:
            return [f"exit code {code}"]
        return checks.check_identity_summary(list(csv.DictReader(io.StringIO(out))), 100, 64)

    return Workload((
        Query("verify json 300", "verify_json",
              ("verify", "--all", "--max", "300", "--lemma-max", "128", "--format", "json"),
              records),
        Query("verify csv 100", "verify_csv",
              ("verify", "--all", "--max", "100", "--format", "csv"), summary),
    ))


def oracle() -> Workload:
    """Brute-force enumeration: multiplier orbits and canonical certificates."""
    def table(code, out):
        if code != 0:
            return [f"exit code {code}"]
        return checks.check_table1(checks.parse_table1(out), 15)

    def catalog_total(got):
        return [] if sum(got) == TABLE1[22]["u"] else [
            f"C_u(22) = {sum(got)}, catalog {TABLE1[22]['u']}"]

    return Workload((
        Query("table 1 15", "table_oracle", ("table", "1", "--max", "15", "--oracle"), table),
        # 22 = 2*11: every circulant is a CI-graph, so Burnside is exact
        _series_query(22, "u", want=checks.burnside_series(22, "u"), tag="oracle",
                      extra=catalog_total, flags=("--oracle", "--allow-slow")),
    ))


WORKLOADS = {"formula": formula, "verify": verify, "oracle": oracle}
KINDS = ("count_series", "count_total", "logconcave", "chain", "verify_json",
         "verify_csv", "table_oracle", "count_oracle")
