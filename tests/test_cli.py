import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from circenum import cli, oracle
from circenum.cli import main
from circenum.counting import CLASSES
from circenum.identities import IDENTITY_KEYS, covered

from golden import ORIENTED_CORRECTIONS, TABLE1, TABLE2_U


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cold_start_imports_stay_small():
    # a fresh interpreter without site: importing the CLI loads none of
    # these; together they added about 25 ms and 1.7 MB to the start-up of
    # every query (two-core x86-64, Python 3.11, no cached bytecode), and
    # array, which only a survey needs, another 0.6 ms
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; from circenum import cli; "
         "print(sorted({'array', 'dataclasses', 'fractions', 'inspect', 'random'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_count_formula(capsys):
    code, out, _ = run(capsys, "count", "--order", "13", "--class", "sd")
    assert code == 0 and out.strip() == "8 (formula)"


def test_count_big_integer(capsys):
    code, out, _ = run(capsys, "count", "--order", "169", "--class", "sd")
    assert code == 0 and out.strip() == "123992391755402970674764 (formula)"


def test_count_total_reads_no_series(capsys, monkeypatch):
    # C_d(100003), 30,099 digits, from one power per divisor of 100002, with
    # no series of 100,003 coefficients
    monkeypatch.setattr(cli, "count_by_formula", None)
    code, out, _ = run(capsys, "count", "--order", "100003", "--class", "d")
    assert code == 0 and out.endswith(" (formula)\n")
    assert len(out.split()[0]) == 30099


def test_count_oracle(capsys):
    code, out, _ = run(capsys, "count", "--order", "15", "--class", "d", "--oracle")
    assert code == 0 and out.strip() == "2172 (oracle)"


def test_count_unsupported_without_oracle(capsys):
    code, _, err = run(capsys, "count", "--order", "15", "--class", "d")
    assert code == 3 and "oracle" in err


def test_count_valency_flag(capsys):
    code, out, _ = run(capsys, "count", "--order", "37", "--class", "o",
                       "--valency", "4")
    assert code == 0 and out.strip() == "1360 (formula)"


def test_count_poly_output_pinned(capsys):
    # the benchmark's "count 1994 o" query: 1,995 coefficients, one line
    code, out, _ = run(capsys, "count", "--order", "1994", "--class", "o", "--poly")
    assert code == 0 and out.endswith(" (formula)\n")
    assert hashlib.sha256(out.encode()).hexdigest().startswith("6465755ee4d5a41d")


def test_count_poly_rejected_for_totals_only_class(capsys):
    code, _, err = run(capsys, "count", "--order", "13", "--class", "sd", "--poly")
    assert code == 2 and "valency series" in err


def test_table1_oracle_matches_catalog(capsys):
    # the benchmark's query; 15 is the first row with oracle t, sd and su cells
    code, out, _ = run(capsys, "table", "1", "--max", "15", "--oracle")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["n", "C_d", "C_u", "C_o", "C_sd", "C_su", "C_t"]
    for line in lines[1:]:
        fields = line.split("\t")
        n = int(fields[0])
        expected = list(TABLE1[n])
        if n in ORIENTED_CORRECTIONS:
            expected[2] = ORIENTED_CORRECTIONS[n]
        assert [int(x) for x in fields[1:]] == expected, n


def test_table1_oracle_fills_undirected_cells_to_27(capsys):
    # past 16 the oracle answers class u alone; the other columns stay n/a
    code, out, _ = run(capsys, "table", "1", "--orders", "18,20,21", "--oracle")
    assert code == 0
    for line, n in zip(out.splitlines()[1:], (18, 20, 21), strict=True):
        assert line.split("\t") == [str(n), "n/a", str(TABLE1[n][1])] + ["n/a"] * 4


def test_allow_slow_is_accepted_and_ignored(capsys):
    argv = ["count", "--order", "22", "--class", "u", "--oracle", "--poly"]
    plain = run(capsys, *argv)
    assert plain == run(capsys, *argv, "--allow-slow")
    assert plain[0] == 0 and plain[1].endswith(" (oracle)\n")


def test_table1_unsupported_rows_marked(capsys):
    code, out, _ = run(capsys, "table", "1", "--orders", "50")
    assert code == 0
    assert "n/a" in out


def test_table1_strict_exit(capsys):
    # the table first, then one error line naming the orders with n/a cells
    code, out, err = run(capsys, "table", "1", "--orders", "50", "--strict")
    assert code == 3
    assert out.splitlines()[1] == "\t".join(["50"] + ["n/a"] * 6)
    assert err == "error: table 1 has n/a cells at n = 50\n"
    # without --oracle the line suggests it where the oracle covers a cell
    code, _, err = run(capsys, "table", "1", "--orders", "8,13", "--strict")
    assert code == 3
    assert err == ("error: table 1 has n/a cells at n = 8 "
                   "(try --oracle for desk-scale orders)\n")
    # the formulas and the oracle together fill every cell to 16
    code, out, _ = run(capsys, "table", "1", "--max", "16", "--oracle", "--strict")
    assert code == 0 and "n/a" not in out


# oracle rows at 2 and 8, a formula row at 13, a mixed row at 14, u alone at
# 18 and nothing at 50
_TABLE1_PINNED = {
    "text": (
        "n\tC_d\tC_u\tC_o\tC_sd\tC_su\tC_t\n"
        "2\t2\t2\t1\t0\t0\t0\n"
        "8\t46\t12\t9\t0\t0\t0\n"
        "13\t352\t14\t63\t8\t2\t6\n"
        "14\t1400\t48\t125\t0\t0\t0\n"
        "18\tn/a\t192\tn/a\tn/a\tn/a\tn/a\n"
        "50\tn/a\tn/a\tn/a\tn/a\tn/a\tn/a\n"),
    "csv": (
        "n,C_d,C_u,C_o,C_sd,C_su,C_t\n"
        "2,2,2,1,0,0,0\n"
        "8,46,12,9,0,0,0\n"
        "13,352,14,63,8,2,6\n"
        "14,1400,48,125,0,0,0\n"
        "18,n/a,192,n/a,n/a,n/a,n/a\n"
        "50,n/a,n/a,n/a,n/a,n/a,n/a\n"),
    "json": (
        '{"C_d":"2","C_d_provenance":"oracle","C_o":"1","C_o_provenance":"oracle",'
        '"C_sd":"0","C_sd_provenance":"oracle","C_su":"0","C_su_provenance":"oracle",'
        '"C_t":"0","C_t_provenance":"oracle","C_u":"2","C_u_provenance":"oracle","n":2}\n'
        '{"C_d":"46","C_d_provenance":"oracle","C_o":"9","C_o_provenance":"oracle",'
        '"C_sd":"0","C_sd_provenance":"oracle","C_su":"0","C_su_provenance":"oracle",'
        '"C_t":"0","C_t_provenance":"oracle","C_u":"12","C_u_provenance":"oracle","n":8}\n'
        '{"C_d":"352","C_d_provenance":"formula","C_o":"63","C_o_provenance":"formula",'
        '"C_sd":"8","C_sd_provenance":"formula","C_su":"2","C_su_provenance":"formula",'
        '"C_t":"6","C_t_provenance":"formula","C_u":"14","C_u_provenance":"formula","n":13}\n'
        '{"C_d":"1400","C_d_provenance":"formula","C_o":"125","C_o_provenance":"formula",'
        '"C_sd":"0","C_sd_provenance":"oracle","C_su":"0","C_su_provenance":"oracle",'
        '"C_t":"0","C_t_provenance":"oracle","C_u":"48","C_u_provenance":"formula","n":14}\n'
        '{"C_d":null,"C_d_provenance":null,"C_o":null,"C_o_provenance":null,'
        '"C_sd":null,"C_sd_provenance":null,"C_su":null,"C_su_provenance":null,'
        '"C_t":null,"C_t_provenance":null,"C_u":"192","C_u_provenance":"oracle","n":18}\n'
        '{"C_d":null,"C_d_provenance":null,"C_o":null,"C_o_provenance":null,'
        '"C_sd":null,"C_sd_provenance":null,"C_su":null,"C_su_provenance":null,'
        '"C_t":null,"C_t_provenance":null,"C_u":null,"C_u_provenance":null,"n":50}\n'),
}


@pytest.mark.parametrize("fmt", sorted(_TABLE1_PINNED))
def test_table1_pinned_in_three_formats(capsys, fmt):
    argv = ["--format", fmt, "table", "1", "--orders", "2,8,13,14,18,50", "--oracle"]
    assert run(capsys, *argv) == (0, _TABLE1_PINNED[fmt], "")
    # --strict prints the same table, then exits 3 for the n/a cells
    assert run(capsys, *argv, "--strict") == (
        3, _TABLE1_PINNED[fmt], "error: table 1 has n/a cells at n = 18, 50\n")


@pytest.mark.parametrize("flags", [(), ("--oracle",)], ids=["formula", "oracle"])
def test_table1_cells_follow_the_coverage_rule(capsys, flags):
    # n/a exactly where identities.covered, the rule the registry reads, fails
    allow_oracle = bool(flags)
    code, out, _ = run(capsys, "--format", "csv", "table", "1",
                       "--orders", ",".join(map(str, range(1, 31))), *flags)
    assert code == 0
    for line in out.splitlines()[1:]:
        n, *fields = line.split(",")
        for klass, field in zip(CLASSES, fields, strict=True):
            assert (field == "n/a") == (not covered(int(n), klass, allow_oracle)), \
                (n, klass)


@pytest.mark.parametrize("flags", [(), ("--oracle",)], ids=["formula", "oracle"])
def test_table2_undirected_block(capsys, flags):
    # --oracle fills only cells without a formula, so it changes nothing here
    code, out, _ = run(capsys, "table", "2", "--orders", "7,13,14,19,37,38",
                       "--class", "u", *flags)
    assert code == 0
    lines = out.strip().split("\n")
    orders = [7, 13, 14, 19, 37, 38]
    assert lines[0].split("\t") == ["r"] + [f"n={n}" for n in orders]
    for line in lines[1:]:
        fields = line.split("\t")
        r = int(fields[0])
        assert r % 2 == 0
        for n, cell in zip(orders, fields[1:]):
            column = TABLE2_U[n]
            if r // 2 < len(column):
                assert int(cell) == column[r // 2], (n, r)


def test_table2_oracle_fills_only_orders_without_a_formula(capsys):
    # 8 has no formula and comes from the oracle, 13 from the formula; at 8
    # the even valencies 0, 2, 4, 6 hold the empty set, {1,7} ~ {3,5} and
    # {2,6}, the complements of {4,1,7} ~ {4,3,5} and {4,2,6}, and {1..7} - {4}
    code, out, err = run(capsys, "table", "2", "--orders", "8,13", "--class", "u",
                         "--oracle")
    assert (code, err) == (0, "")
    columns = list(zip(*(line.split("\t") for line in out.strip().split("\n")[1:])))
    assert [int(c) for c in columns[1] if c] == [1, 2, 2, 1]
    assert [int(c) for c in columns[2] if c] == TABLE2_U[13]


@pytest.mark.parametrize("argv,out", [
    (("--orders", "7,13,14", "--class", "u"),
     '{"class":"u","coefficients":["1","0","1","0","1","0","1"],"n":7}\n'
     '{"class":"u","coefficients":["1","0","1","0","3","0","4","0","3","0","1","0","1"],'
     '"n":13}\n'
     '{"class":"u","coefficients":["1","1","2","2","5","5","8","8","5","5","2","2","1","1"],'
     '"n":14}\n'),
    (("--orders", "8,9", "--class", "o", "--oracle"),
     '{"class":"o","coefficients":["1","2","4","2"],"n":8}\n'
     '{"class":"o","coefficients":["1","2","4","6","3"],"n":9}\n'),
], ids=["u-formula", "o-oracle"])
def test_table2_json_pinned(capsys, argv, out):
    # every coefficient of each series, odd powers of the 2p u series too
    assert run(capsys, "table", "2", *argv, "--format", "json") == (0, out, "")


def test_table2_rejects_a_class_without_a_series(capsys):
    assert run(capsys, "table", "2", "--orders", "13", "--class", "sd") == \
        (2, "", "error: class 'sd' has no valency series\n")


def test_verify_all_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--max", "40")
    assert code == 0
    assert "0 fail" in out


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "4.6", "--max", "80")
    assert code == 0
    orders = [int(line.split("n=")[1].split(":")[0])
              for line in out.strip().split("\n") if line.startswith("4.6")]
    assert orders == [5, 13, 37, 61, 73]


def test_verify_lemma(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "L2.1", "--max", "64")
    assert code == 0 and "64 hold" in out


def test_verify_repeated_key_runs_once(capsys):
    argv = ("verify", "--identity", "3.7", "--identity", "3.7", "--max", "12")
    code, out, _ = run(capsys, "--format", "csv", *argv)
    assert code == 0
    assert out.strip().split("\n")[1] == \
        '3.7,"C_sd(p) = C_t(p) + C_su(p)","3 5 7 11",4,0,holds'
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip().split("\n")[-1] == "-- 4 hold, 0 fail, 0 not applicable"


def test_primes_nearly_doubled(capsys):
    code, out, _ = run(capsys, "primes", "--nearly-doubled", "--limit", "1000")
    assert code == 0
    assert "-- 21 pairs" in out


def test_primes_nearly_doubled_json_pinned(capsys):
    # one record per pair and no summary line
    assert run(capsys, "primes", "--nearly-doubled", "--limit", "20",
               "--format", "json") == \
        (0, '{"p":3,"q":2}\n{"p":5,"q":3}\n{"p":13,"q":7}\n', "")


def test_primes_chain(capsys):
    code, out, _ = run(capsys, "primes", "--chain", "--ptilde", "21",
                       "--kmax", "200")
    assert code == 0 and "4, 16, 128" in out


@pytest.mark.parametrize("ptilde,kmax,text,json_line", [
    ("9", "1000",
     "chain starts k with 9*2^k+1 and 9*2^(k+1)+1 prime, k <= 1000: 1, 2, 6, 42\n",
     '{"k":[1,2,6,42],"k_max":1000,"ptilde":9}\n'),
    ("21", "200",
     "chain starts k with 21*2^k+1 and 21*2^(k+1)+1 prime, k <= 200: 4, 16, 128\n",
     '{"k":[4,16,128],"k_max":200,"ptilde":21}\n'),
    ("1", "20",
     "chain starts k with 1*2^k+1 and 1*2^(k+1)+1 prime, k <= 20: 0, 1\n",
     '{"k":[0,1],"k_max":20,"ptilde":1}\n'),
])
def test_primes_chain_output_pinned(capsys, ptilde, kmax, text, json_line):
    argv = ("primes", "--chain", "--ptilde", ptilde, "--kmax", kmax)
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--format", "json") == (0, json_line, "")


def test_primes_chain_parity_guard(capsys):
    code, _, err = run(capsys, "primes", "--chain", "--ptilde", "2",
                       "--kmax", "10")
    assert code == 2 and "odd" in err


def test_logconcave_prime(capsys):
    code, out, _ = run(capsys, "logconcave", "--order", "61")
    assert code == 0 and "log-concave" in out


def test_logconcave_violation(capsys):
    code, out, _ = run(capsys, "logconcave", "--order", "121")
    assert code == 1 and "violation at r=2" in out


def test_logconcave_unsupported(capsys):
    code, _, err = run(capsys, "logconcave", "--order", "15")
    assert code == 3


_UNSUPPORTED = [  # (argv, the order and class that fail)
    ("count --order 15 --class d", 15, "d"),
    ("count --order 28 --class u --oracle", 28, "u"),
    ("count --order 30 --class d", 30, "d"),
    ("table 2 --orders 7,8 --class u", 8, "u"),
    ("table 2 --orders 28 --class u --oracle", 28, "u"),
    ("table 2 --orders 30 --class u", 30, "u"),
    ("logconcave --order 15", 15, "u"),
    ("logconcave --order 28 --oracle", 28, "u"),
    ("logconcave --order 30", 30, "u"),
]


@pytest.mark.parametrize("argv,order,klass", _UNSUPPORTED,
                         ids=[argv for argv, _, _ in _UNSUPPORTED])
def test_unsupported_order_exits_once(capsys, argv, order, klass):
    # one error line, from main; the --oracle hint only where it was not
    # given and the oracle covers the failing order
    code, out, err = run(capsys, *argv.split())
    lines = err.splitlines()
    assert code == 3 and out == ""
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err
    hinted = lines[0].endswith(" (try --oracle for desk-scale orders)")
    assert hinted == ("--oracle" not in argv and oracle.covers(order, klass))


@pytest.mark.parametrize("name,argv", [
    ("nearly_doubled_primes", "primes --nearly-doubled --limit 100000000000"),
    ("cunningham_pairs", "primes --chain --ptilde 3 --kmax 100000000000"),
])
def test_request_beyond_memory_exits_three(capsys, monkeypatch, name, argv):
    # stands in for a sieve larger than the address space; nothing is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, name, exhausted)
    code, out, err = run(capsys, *argv.split())
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--order", "not-a-number", "--class", "d"])
    assert exc.value.code == 2


# refused by a rule across arguments, not by the parser; each before any work
_REFUSED_BEFORE_WORK = [
    "count --order 13 --class sd --poly",
    "count --order 13 --class t --valency 0",
    "count --order 15 --class sd --poly",  # no formula at 15 either
    "count --order 17 --class su --oracle --poly",  # past the oracle's su range
    "count --order 15 --class sd --oracle --poly",
    "table 2 --orders 13 --class sd",
]


@pytest.mark.parametrize("argv", _REFUSED_BEFORE_WORK + [
    "verify --identity nope --max 10",
    "primes --chain --ptilde 2 --kmax 10",
    "primes --chain --kmax 10",
    "table 2 --max 1",
    "primes --nearly-doubled --limit 1",
    "count --order -3 --class d",
    "count --order 13 --class d --valency -1",
    "count --order 13 --class xx",
    "primes --chain --ptilde 3 --kmax -5",
    "table 1 --orders 0 --oracle",
    "verify --all --max -5",
    "verify --all --lemma-max -1",
    "table 1 --orders 5,,7",
    "table 2 --orders , --class d",
    "table 1 --orders 13 --class xx",
    "table 2 --orders 13 --class xx",
])
def test_malformed_arguments_exit_two(capsys, argv):
    try:
        code = main(argv.split())
    except SystemExit as exc:  # rejected by the parser
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Traceback" not in captured.err and "<lambda>" not in captured.err
    assert sum("error" in line for line in captured.err.splitlines()) == 1


def test_malformed_commands_are_refused_before_any_count(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a count was computed for a malformed command")

    monkeypatch.setattr(cli, "_get_count", no_work)
    monkeypatch.setattr(cli, "_table_count", no_work)
    for argv in _REFUSED_BEFORE_WORK:
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, argv


def _fuzz_argv(rng):
    """One command line over the five subcommands, each value drawn from
    valid and invalid ones.  Oracle orders stay at or below 30 and formula
    orders at or below 1000: a series request has no size gate."""
    def value(*invalid, low=0, high=1000):
        if rng.random() < 0.9:
            return str(rng.randint(low, high))
        return rng.choice(("x",) + invalid)

    def option(flag, *values, chance=0.5):
        return [flag, rng.choice(values)] if rng.random() < chance else []

    use_oracle = rng.random() < 0.3
    top = 30 if use_oracle else 1000

    def order():
        return value("0", "-3", "", low=1, high=top)

    klass = rng.choice(CLASSES * 3 + ("xx",))
    command = rng.choice(("count", "table", "verify", "primes", "logconcave"))
    if command == "count":
        argv = ["count", *option("--order", order(), chance=0.95),
                *option("--class", klass, chance=0.95)]
        argv += rng.choice([[], ["--poly"], ["--valency", value("-1", high=40)]])
    elif command == "table":
        orders = ",".join(order() for _ in range(rng.randint(1, 4)))
        argv = ["table", rng.choice("12" * 5 + "3"), *option("--class", klass)]
        argv += rng.choice([["--orders", orders], ["--max", value("1", high=30)], []])
        argv += ["--strict"] if rng.random() < 0.3 else []
    elif command == "verify":
        keys = rng.sample(IDENTITY_KEYS * 3 + ("9.9",), rng.randint(0, 3))
        argv = ["verify"] + ([f"--identity={key}" for key in keys] or ["--all"])
        argv += option("--max", value("-5", high=min(top, 300)))
        argv += option("--lemma-max", value("-1", high=40))
    elif command == "primes":
        argv = ["primes", *rng.choice([["--nearly-doubled"], ["--chain"]] * 9 + [[]])]
        argv += option("--limit", value("1"))
        argv += option("--ptilde", *"-3 0 1 2 3 9 21 x".split())
        argv += option("--kmax", value("-1", high=200))
        argv += option("--mr-rounds", value("-1", high=8))
    else:
        argv = ["logconcave", *option("--order", order(), chance=0.95)]
    argv += ["--oracle"] if use_oracle and command != "primes" else []
    formats = ("text", "csv", "json") * 3 + ("xml",)
    return (option("--format", *formats, chance=0.3) + argv
            + option("--format", *formats, chance=0.3))


def test_exit_code_contract_under_fuzzing(capsys, monkeypatch):
    # every drawn command exits 0, 1 (logconcave alone: a genuine violation),
    # 2 or 3; a refusal prints exactly one error line, and nothing escapes
    monkeypatch.delenv("CIRCENUM_FORMAT", raising=False)
    rng = random.Random(34)
    for _ in range(1500):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:  # rejected by the parser
            code = exc.code
        except Exception as exc:
            raise AssertionError(f"{argv} raised") from exc
        err = capsys.readouterr().err
        assert code in (0, 2, 3) or (code == 1 and "logconcave" in argv), argv
        if code in (2, 3):
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        assert "Traceback" not in err, argv


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_counts_print_past_the_int_string_digit_limit(capsys, fmt):
    # C_sd(28603) has 4,301 digits, one past the interpreter's default limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "--format", fmt, "count", "--order", "28603",
                         "--class", "sd")
    assert code == 0 and err == ""
    total = out.split()[0] if fmt == "text" else json.loads(out)["total"]
    assert len(total) == 4301 and total.isdigit()
    if fmt == "text":
        assert out == total + " (formula)\n"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-string digit limit before Python 3.10.7")
def test_huge_order_string_is_still_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--order", "9" * 5000, "--class", "d"])
    assert exc.value.code == 2


def test_json_round_trip(capsys):
    argv = ["--format", "json", "count", "--order", "13", "--class", "d"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    record = json.loads(out)
    assert record["total"] == "352"
    assert record["by_valency"][2] == "6"
    rendered = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert rendered == out.strip()


def test_json_verify_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "--identity", "3.7",
                       "--max", "20")
    assert code == 0
    for line in out.strip().split("\n"):
        record = json.loads(line)
        assert record["status"] == "holds"
        assert json.dumps(record, sort_keys=True, separators=(",", ":")) == line


def test_format_env_default(capsys, monkeypatch):
    cli._build_parser()   # the environment is read by main, not by the parser
    monkeypatch.setenv("CIRCENUM_FORMAT", "json")
    code, out, _ = run(capsys, "count", "--order", "13", "--class", "sd")
    assert code == 0
    assert out == ('{"by_valency":null,"class":"sd","order":13,'
                   '"provenance":"formula","total":"8"}\n')
    # an explicit --format beats the environment
    code, out, _ = run(capsys, "--format", "text", "count", "--order", "13",
                       "--class", "sd")
    assert code == 0 and out == "8 (formula)\n"


def test_format_env_rejects_unknown_format(capsys, monkeypatch):
    cli._build_parser()
    monkeypatch.setenv("CIRCENUM_FORMAT", "xml")
    with pytest.raises(SystemExit) as exc:
        main(["count", "--order", "13", "--class", "d"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert sum("error" in line for line in captured.err.splitlines()) == 1
    assert captured.err.splitlines()[-1] == (
        "circenum: error: CIRCENUM_FORMAT: invalid choice: 'xml' "
        "(choose from text, csv, json)")


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_no_state_carries_between_main_calls(capsys, monkeypatch):
    monkeypatch.delenv("CIRCENUM_FORMAT", raising=False)
    code, out, _ = run(capsys, "table", "1", "--max", "3", "--format", "csv")
    assert code == 0 and out.startswith("n,C_d,")
    code, out, _ = run(capsys, "table", "1", "--max", "3")
    assert code == 0 and out.startswith("n\tC_d\t")
    code, out, _ = run(capsys, "count", "--order", "13", "--class", "d", "--poly")
    assert code == 0 and out.endswith(" (formula)\n") and out.count(" ") > 1
    code, out, _ = run(capsys, "count", "--order", "13", "--class", "d")
    assert code == 0 and out == "352 (formula)\n"
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith("usage: circenum")


def test_format_flag_after_subcommand(capsys):
    code, out, _ = run(capsys, "count", "--order", "13", "--class", "sd",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["provenance"] == "formula"
    # given on both sides of the subcommand, the later one wins
    code, out, _ = run(capsys, "--format", "json", "count", "--order", "13",
                       "--class", "sd", "--format", "text")
    assert code == 0 and out == "8 (formula)\n"
    code, out, _ = run(capsys, "--format", "csv", "count", "--order", "13",
                       "--class", "sd", "--format", "json")
    assert code == 0 and json.loads(out)["total"] == "8"


def test_primes_chain_mr_rounds_flag(capsys):
    code, out, _ = run(capsys, "primes", "--chain", "--ptilde", "9",
                       "--kmax", "50", "--mr-rounds", "8")
    assert code == 0 and "1, 2, 6, 42" in out


def test_logconcave_json_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "logconcave", "--order", "121")
    assert code == 1
    record = json.loads(out)
    assert record["violations"][0]["r"] == 2
    assert json.dumps(record, sort_keys=True, separators=(",", ":")) == out.strip()


def test_verify_csv_summary(capsys):
    code, out, _ = run(capsys, "--format", "csv", "verify", "--identity", "3.7",
                       "--max", "30")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "key,formula,orders,holds,fails,status"
    assert lines[1] == '3.7,"C_sd(p) = C_t(p) + C_su(p)","3 5 7 11 13 17 19 23 29",9,0,holds'


def test_verify_csv_digest_unchanged(capsys):
    # the benchmark's "verify csv 100" query: all 38 summary rows
    code, out, _ = run(capsys, "verify", "--all", "--max", "100", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 39
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3826081c5bc3682acf112662565018d98fd1f53d75a7ff828b0dab6dfcfe67c7"


def test_closed_stdout_exits_141_without_traceback():
    # about 140 KB of pairs, more than a pipe buffer holds, so writing
    # continues after the reader has gone
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("CIRCENUM_FORMAT", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "circenum", "primes", "--nearly-doubled",
         "--limit", "2000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"q=2 p=3\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
