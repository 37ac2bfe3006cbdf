"""CLI behavior: formats, schemas, exit codes, determinism."""

import gc
import json
import math
import subprocess
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rootsum.cli as cli
from rootsum import MismatchRecord, ScanReport
from rootsum.cli import main
from oracles import exact_falling, sum_doubling


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "6", "--k", "2", "--alpha", "5", "--modulus", "1000000")
        assert code == 0
        assert "2832" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "6", "--k", "2", "--alpha", "5", "--modulus", "6", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 6, "k": 2, "alpha": 5, "modulus": 6, "residue": 0}

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--n", "4", "--k", "3", "--alpha", "1", "--modulus", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,alpha,modulus,residue"
        assert lines[1] == "4,3,1,4,2"


    def test_at_the_input_cap(self, capsys):
        # alpha = 1 telescopes: S = n-falling-13 / 13
        n = 2**31
        code, out, _ = run_cli(
            capsys, "eval", "--n", str(n), "--k", "12", "--alpha", "1", "--modulus", "1000003",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["residue"] == exact_falling(n, 13) // 13 % 1000003

    def test_large_n_and_k_within_two_seconds(self, capsys):
        argv = ["eval", "--n", "2147483647", "--alpha", "3", "--modulus", "1000003", "--format", "json"]
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv, "--k", "3000")
        assert time.perf_counter() - start < 2
        assert code == 0
        assert 0 <= json.loads(out)["residue"] < 1000003
        # the same route at a k the doubling reference can reach
        code, out, _ = run_cli(capsys, *argv, "--k", "40")
        assert json.loads(out)["residue"] == sum_doubling(2147483647, 40, 3, 1000003)


class TestRoots:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--n", "6", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 6, "count": 2, "roots": [1, 5]}

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--n", "6", "--format", "csv")
        assert out.strip().splitlines() == ["alpha", "1", "5"]

    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--n", "1")
        assert code == 0
        assert "0" in out

    def test_factorizes_n_once(self, capsys, monkeypatch):
        # the cap check and the enumeration read one factorization
        from rootsum import criterion

        real, calls = criterion.factorize, []

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(criterion, "factorize", counting)
        criterion._factors.cache_clear()
        code, out, _ = run_cli(capsys, "roots", "--n", "2147483646", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 171072
        assert calls.count(2147483646) == 1


class TestCheck:
    def test_json_schema_fields(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n", "6", "--k", "2", "--alpha", "5", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["n"] == 6 and record["k"] == 2 and record["alpha"] == 5
        assert record["predicted"] is True
        assert record["clauses"] == ["c"]
        assert record["oracle_residue"] == 0
        assert record["hypothesis_ok"] is True
        assert record["agree"] is True
        assert record["witness"]["alpha_is_one_mod_q"] is False

    def test_hypothesis_violation(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--n", "6", "--k", "2", "--alpha", "4", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["hypothesis_ok"] is False

    def test_plain_mentions_witness(self, capsys):
        _, out, _ = run_cli(capsys, "check", "--n", "6", "--k", "2", "--alpha", "5")
        assert "alpha != 1 (mod 3)" in out

    def test_csv_row(self, capsys):
        _, out, _ = run_cli(capsys, "check", "--n", "4", "--k", "3", "--alpha", "1", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,k,alpha,predicted,clauses")
        assert lines[1].startswith("4,3,1,False,")


    def test_at_the_input_cap(self, capsys):
        n = 2**31
        code, out, _ = run_cli(capsys, "check", "--n", str(n), "--k", "4", "--alpha", "1", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["oracle_residue"] == exact_falling(n, 5) // 5 % n
        assert record["hypothesis_ok"] and record["agree"]

    def test_large_k_within_two_seconds(self, capsys):
        # alpha = 1 telescopes: S = n-falling-(k+1) / (k+1)
        n, k = 1000000, 200000
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "check", "--n", str(n), "--k", str(k), "--alpha", "1", "--format", "json")
        assert time.perf_counter() - start < 2
        assert code == 0
        assert json.loads(out)["oracle_residue"] == math.perm(n, k + 1) // (k + 1) % n


class TestScanCommand:
    def test_clean_scan_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--max-n", "20", "--max-k", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mismatches"] == []
        assert payload["lemma_failures"] == []
        assert payload["cases"] > 0 and payload["roots"] > 0
        assert "elapsed_ms" not in payload  # timing is opt-in for machine output

    def test_timing_flag_adds_elapsed(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--max-n", "5", "--max-k", "1", "--format", "json", "--timing")
        assert "elapsed_ms" in json.loads(out)

    def test_timing_leaves_csv_unchanged(self, capsys):
        argv = ("scan", "--max-n", "5", "--max-k", "1", "--format", "csv")
        _, plain, _ = run_cli(capsys, *argv)
        _, timed, _ = run_cli(capsys, *argv, "--timing")
        assert timed == plain

    def test_json_byte_identical_across_jobs(self, capsys):
        _, out1, _ = run_cli(capsys, "scan", "--max-n", "30", "--max-k", "4", "--format", "json", "--jobs", "1")
        _, out2, _ = run_cli(capsys, "scan", "--max-n", "30", "--max-k", "4", "--format", "json", "--jobs", "3")
        assert out1 == out2

    def test_csv_header(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--max-n", "10", "--max-k", "2", "--format", "csv")
        assert out.splitlines()[0] == "n,k,alpha,clauses,predicted,oracle_residue,agree"

    def test_mismatches_force_exit_one(self, capsys, monkeypatch):
        fake = ScanReport(
            cases_checked=1,
            roots_enumerated=1,
            mismatches=[MismatchRecord(6, 2, 5, ("c",), True, 3)],
        )
        monkeypatch.setattr(cli, "scan", lambda cfg: fake)
        code, out, _ = run_cli(capsys, "scan", "--max-n", "6", "--max-k", "2", "--format", "json")
        assert code == 1
        assert json.loads(out)["mismatches"][0]["n"] == 6

    def test_lemma_failures_force_exit_one(self, capsys, monkeypatch):
        fake = ScanReport(
            cases_checked=1, roots_enumerated=1, mismatches=[], lemma_failures=["boom"]
        )
        monkeypatch.setattr(cli, "scan", lambda cfg: fake)
        code, _, _ = run_cli(capsys, "scan", "--max-n", "2", "--max-k", "1")
        assert code == 1


class TestHuntCommand:
    def test_clause_c_alpha_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "hunt", "--drop", "clause-c-alpha", "--max-n", "6", "--max-k", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["drop"] == "clause-c-alpha"
        assert {"n": 6, "k": 2, "alpha": 5, "clauses": [], "predicted": False,
                "oracle_residue": 0, "agree": False} in payload["records"]

    def test_clause_b_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "hunt", "--drop", "clause-b", "--max-n", "4", "--max-k", "3", "--format", "csv"
        )
        assert code == 0
        assert "4,3,1,b,True,2,False" in out.splitlines()

    def test_unknown_drop_label_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["hunt", "--drop", "clause-a", "--max-n", "4", "--max-k", "3"])
        assert err.value.code == 2


@pytest.mark.parametrize(
    "command, expected",
    [
        ("scan --max-n 2 --max-k 2147483647",
         {"cases": 2 * 2**31, "roots": 2, "mismatches": [], "lemma_failures": []}),
        ("scan --max-n 2 --max-k 2147483647 --check-lemmas",
         {"cases": 2 * 2**31, "roots": 2, "mismatches": [], "lemma_failures": []}),
        ("hunt --drop clause-b --max-n 2 --max-k 2147483647", {"drop": "clause-b", "records": []}),
    ],
)
def test_k_at_the_cap_is_settled_by_argument(capsys, command, expected):
    # every k >= n is an empty sum that every criterion predicts vanishes,
    # so the range past n - 1 costs nothing, yet still counts as cases
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *command.split(), "--format", "json")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert json.loads(out) == expected


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_over_cap_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--n", str(2**31 + 1), "--k", "1", "--alpha", "1", "--modulus", "7")
        assert code == 2
        assert "2**31" in err

    def test_modulus_cap(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--n", "5", "--k", "1", "--alpha", "1", "--modulus", str(2**31 + 1))
        assert code == 2

    def test_scan_rejects_zero_max_n(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--max-n", "0", "--max-k", "2")
        assert code == 2

    def test_scan_rejects_bad_jobs(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--max-n", "5", "--max-k", "2", "--jobs", "0")
        assert code == 2

    def test_scan_rejects_jobs_over_ceiling_before_any_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was created")

        monkeypatch.setattr("multiprocessing.Pool", no_pool)
        jobs = str(cli.MAX_JOBS + 1)
        code, _, err = run_cli(capsys, "scan", "--max-n", "5", "--max-k", "2", "--jobs", jobs)
        assert code == 2
        assert str(cli.MAX_JOBS) in err

    def test_roots_over_count_ceiling_builds_nothing(self, capsys, monkeypatch):
        def no_roots(n):
            raise AssertionError("roots were enumerated")

        monkeypatch.setattr(cli, "roots_of_unity", no_roots)
        code, out, err = run_cli(capsys, "roots", "--n", "1073741824", "--format", "json")
        assert code == 2
        assert out == ""
        assert str(2**29) in err

    def test_roots_count_ceiling_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ROOTS", 2)
        assert run_cli(capsys, "roots", "--n", "6")[0] == 0  # 2 roots
        assert run_cli(capsys, "roots", "--n", "8")[0] == 2  # 4 roots

    def test_bad_format_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as err:
            main(["roots", "--n", "6", "--format", "xml"])
        assert err.value.code == 2

    def test_removed_bench_subcommand_rejected_by_argparse(self):
        # bench is a removed subcommand, rejected like an unknown drop label
        with pytest.raises(SystemExit) as err:
            main(["bench", "--n", "40", "--k", "3"])
        assert err.value.code == 2


def test_parser_is_built_once_and_carries_nothing_between_calls(capsys, monkeypatch):
    run_cli(capsys, "roots", "--n", "6")

    def no_second_build():
        raise AssertionError("main built its parser again")

    monkeypatch.setattr(cli, "build_parsers", no_second_build)
    eval_argv = ("eval", "--n", "6", "--k", "2", "--alpha", "5", "--modulus", "1000000")
    code, out, _ = run_cli(capsys, *eval_argv, "--format", "csv")
    assert code == 0 and out == "n,k,alpha,modulus,residue\n6,2,5,1000000,2832\n"
    code, out, _ = run_cli(capsys, *eval_argv)
    assert code == 0 and out == "S(6, 2, 5) mod 1000000 = 2832\n"
    code, out, _ = run_cli(capsys, "roots", "--n", "6", "--format", "json")
    assert code == 0 and json.loads(out)["roots"] == [1, 5]
    scan_argv = ("scan", "--max-n", "5", "--max-k", "1", "--format", "json")
    code, out, _ = run_cli(capsys, *scan_argv, "--timing")
    assert code == 0 and "elapsed_ms" in json.loads(out)
    code, out, _ = run_cli(capsys, *scan_argv)
    assert code == 0 and "elapsed_ms" not in json.loads(out)


# every JSON scalar kind: huge and negative ints, floats (NaN and the
# infinities too) for the json.dumps fallback, and strings that need escapes
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.text()
    | st.text(st.sampled_from('"\\\x00\x1f\n\t\x7f\u00e9\u2028\U0001f600a'))
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.lists(st.integers())
        | st.dictionaries(st.text(), children)
    ),
    max_leaves=40,
)


@given(JSON_VALUES)
def test_json_renderer_writes_the_indented_encoders_bytes(value):
    assert cli._json(value, "") == json.dumps(value, indent=2)


@pytest.mark.parametrize("argv", [
    ("check", "--n", "6", "--k", "2", "--alpha", "5"),
    ("eval", "--n", "1000", "--k", "5", "--alpha", "-3", "--modulus", "97"),
    ("roots", "--n", "360"),
    ("hunt", "--drop", "clause-b", "--max-n", "20", "--max-k", "4"),
    ("scan", "--max-n", "20", "--max-k", "4", "--check-lemmas"),
], ids=" ".join)
def test_a_json_reply_leaves_no_cyclic_garbage(capsys, argv):
    argv = [*argv, "--format", "json"]
    main(argv)  # the first call in a process builds the parsers
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert code == 0 and capsys.readouterr().out
    assert unreachable == 0


CHECK = ("check", "--n", "6", "--k", "2", "--alpha", "5")
DISPATCH_ARGVS = [
    ("--help",),
    ("check", "--help"),
    (),
    ("chec",),
    ("chec", "--n", "6"),
    ("--format", "json", "check"),
    ("check", "--n", "6", "--k", "2"),  # missing --alpha
    ("check", "--n", "six", "--k", "2", "--alpha", "5"),
    (*CHECK, "extra"),
    (*CHECK, "--bogus"),
    (*CHECK, "--bogus", "--k", "1"),
    ("check", "--bogus"),  # unknown and missing at once
    ("roots", "--n=5", "--format", "json"),
    ("eval", "--n", "6", "--k", "2", "--alpha", "5", "--mod", "1000000"),
    ("scan", "--max-n", "5", "--max-k", "1", "--check", "--format", "json"),
    ("scan", "--max-n", "5", "--max-k", "1", "--jobs=1", "--timing", "--format", "csv"),
    ("roots", "--n", "5", "--n", "6"),
    ("roots", "--n", "6", "--"),
    ("roots", "--", "--n", "6"),
    ("roots", "--n", "6", "--format", "xml"),
    ("roots", "--n", "0"),  # parses, then the handler rejects it
    ("hunt", "--drop", "clause-d", "--max-n", "5", "--max-k", "1"),
]


def outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
def test_dispatch_matches_the_full_parser(capsys, monkeypatch, argv):
    # main hands a subcommand's argv to that subcommand's parser alone; with
    # no subcommands known to it, main parses everything with a freshly
    # built full parser, as it did before
    monkeypatch.setenv("COLUMNS", "80")
    dispatched = outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parsers", (cli.build_parsers()[0], {}))
    assert dispatched == outcome(capsys, argv)


def test_a_subcommand_is_parsed_by_its_own_parser_alone(capsys, monkeypatch):
    main(["roots", "--n", "6"])
    capsys.readouterr()
    parser, _ = cli._parsers

    def no_top_level_parse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(parser, "parse_args", no_top_level_parse)
    code, out, _ = run_cli(capsys, *CHECK, "--format", "csv")
    assert code == 0 and out.startswith("n,k,alpha,predicted,clauses,")
    with pytest.raises(AssertionError, match="top-level parser ran"):
        main([*CHECK, "--bogus"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rootsum", "roots", "--n", "6", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["roots"] == [1, 5]


def test_importing_the_cli_loads_no_unused_stdlib_modules():
    # nothing on the CLI path needs fractions or decimal, and only a
    # parallel scan needs multiprocessing
    code = (
        "import sys, rootsum.cli; "
        "print(sorted({'fractions', 'decimal', 'multiprocessing'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
