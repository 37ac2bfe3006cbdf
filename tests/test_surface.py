"""The public surface: pinned CLI output bytes and the package's name registry."""

import csv
import hashlib
import io
import json

import pytest

import rootsum
import rootsum.cli as cli
from rootsum import MismatchRecord, ScanReport, criterion, derivsum, falling, harness, numtheory
from rootsum.cli import main

MODULES = (numtheory, falling, derivsum, criterion, harness)

# sha256 of stdout for invocations whose output carries no timing.  Any
# change here changes what users and scripts read, and must say so.
PINNED = {
    "scan --max-n 60 --max-k 8 --format json":
        "badcd2f218fc539d8b24b78ed603fd161e51ad8b685792638140ca9d09b10716",
    "scan --max-n 60 --max-k 8 --format csv":
        "71855817f40cad897763f31b6ac9dee7b2d8980c299d9d10afce23897c29d8a3",
    "scan --max-n 40 --max-k 6 --check-lemmas --format json":
        "e437bcdc0c339782dce72cb662a3dcae72bbca2d65916b172074e073a49eb3a8",
    "hunt --drop clause-c-alpha --max-n 60 --max-k 6 --format json":
        "d04f25fe358f7ceb4602ca01b52b4b25406d0f105f1a8158581cea59af7d7523",
    "hunt --drop clause-c-alpha --max-n 60 --max-k 6 --format csv":
        "bf9c9a2422477212fa614c57d0ce4a2e0d0cfe80b2f3c9a444e71c7c6c84aa3f",
    "hunt --drop clause-c-alpha --max-n 60 --max-k 6 --format plain":
        "d50ba59a320c67e292799647ab0a1e872525549196e295c8dad8c371beb93b3b",
    "hunt --drop clause-b --max-n 60 --max-k 6 --format json":
        "f6ffff8c95820ba1a68dadbe6d22a29c4c1c09ff3654579caf8b0cc57212c364",
    "hunt --drop clause-b --max-n 60 --max-k 6 --format csv":
        "ecd321b47070d782bae3a0106d3fe1d47c77fb1f36704c58a03c2d2424d033d0",
    "hunt --drop clause-b --max-n 60 --max-k 6 --format plain":
        "c7e7449bcf197ecd1611459ccad1b6e7dfe25fe6158070c81e2db0f4809e568b",
    "hunt --drop none --max-n 60 --max-k 6 --format json":
        "44089b842d4011afe2f3f38b339ad45c46a28340b670d5c94aefce334f14b4a7",
    "hunt --drop none --max-n 60 --max-k 6 --format csv":
        "71855817f40cad897763f31b6ac9dee7b2d8980c299d9d10afce23897c29d8a3",
    "hunt --drop none --max-n 60 --max-k 6 --format plain":
        "72195e1267acefa9a6a215ee9bbe58c78e530c0609629aa3143b3040bc50fdc3",
    "roots --n 360 --format json":
        "817709d8c12e713c09e24304e7be42cbf0907f249fce381a97f83b4cc08bd6cf",
    "roots --n 360 --format csv":
        "c8080ff5cee01b5f706f3cd2a3428f4ef309d308d584b8ee2e0dfa351cef808a",
    "roots --n 360 --format plain":
        "b4ca286e9978f70c9c5d63782b98cf5bef871a4a4b85935621b23a0c8f187834",
    # 32,768 roots: one join over a long list of ints
    "roots --n 65536 --format json":
        "72b8993d7f66cf38733a712772247be29d61681017979d8442c8cae8f3262b7c",
    "check --n 6 --k 2 --alpha 5 --format json":
        "3c7096ef97a17eaf771914f93315162ed2d4a44965978f6ffd25f3f5b8f1fd8a",
    "check --n 6 --k 2 --alpha 5 --format csv":
        "8c4f8d9691291229d84cf650726b26985500d2119b4ba23d1464829de14c5558",
    "check --n 6 --k 2 --alpha 5 --format plain":
        "030de174a881ad1c25800484efbc1b0b186ad9f5374246e1d0a3020e472ec292",
    # k+1 = 4 with 4 | n, and k+1 = 6 (clause a): the other witness branches
    "check --n 8 --k 3 --alpha 1 --format json":
        "28ffe50cf7a957b82675fa1bfca68c9a5d83b007e1a5602dce56d40da10c54b7",
    "check --n 8 --k 3 --alpha 1 --format csv":
        "25c4c6bbcb99e85e15c05370a10cfea77ad63066217cba10e56e377d9ac8fe66",
    "check --n 8 --k 3 --alpha 1 --format plain":
        "1114ea2b9be6059e3b286610eba65b3cbc26bd7e4c7141b3793b1dae44d9a166",
    "check --n 9 --k 5 --alpha 1 --format json":
        "ffc4a49b604ac7290ced26f5a921d023751492b10df510d1e3d26d01de49f1e0",
    "check --n 9 --k 5 --alpha 1 --format csv":
        "be3b48f18c42d3333713c52104f23df24a425625ad048cb01efb9731eaef8a13",
    "check --n 9 --k 5 --alpha 1 --format plain":
        "2852bc3a6a5ac67df2c5720fd68a46721d180a247f92dbfe6da365b217fbe09d",
    "eval --n 1000 --k 5 --alpha -3 --modulus 97 --format json":
        "eb37a1f3032a61d2de7fde991f8d2d03f2c625d776820b5aca32b8a013014e1b",
    "eval --n 1000 --k 5 --alpha -3 --modulus 97 --format csv":
        "177feb3ca44401e3d2f8fbb7c7f1cf7a785f415a49f9e1f836f495e784617255",
    "eval --n 1000 --k 5 --alpha -3 --modulus 97 --format plain":
        "bc8178e6f98015a3e4d8c02c3b0402d61032f339a384af494433ac83c8a0cb63",
}


@pytest.mark.parametrize("command", PINNED)
def test_cli_output_bytes_are_pinned(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command]


# sha256 of the --help text at COLUMNS=80, the same on Python 3.10 to 3.13
HELP_PINNED = {
    "": "8d37a53a2ebe1dfe851c1954796c33cfaca2b0cc8bbe4d0ffc0681057e262701",
    "eval": "0d04e88c4c74c0d29bbefe030badc0f8aea0368f950508df21153d6fafa20867",
    "roots": "404650bc1b77b4ca455f70bfeb59f62bd7768200b9135e45ab0841db0e46024f",
    "check": "fc4d93762c3565985e8f5870edd711ddee122bd8fe16b24a560b4b1f39c5e4ad",
    "scan": "c6b7c4ef0a66cf37365e94a48175e60cd50efd92186ca32942c275c6d1a60d80",
    "hunt": "a75dbf4533cc2d966d37613d75445763561a443c09ebc8b7c288a09039488556",
}


@pytest.mark.parametrize("command", HELP_PINNED)
def test_help_bytes_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*command.split(), "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_PINNED[command]


# A report no clean range produces: the MISMATCH and LEMMA FAILURE lines.
# Its elapsed_seconds is 0.0, so even the plain bytes are stable.
FAKE_REPORT = ScanReport(
    cases_checked=9,
    roots_enumerated=3,
    mismatches=[MismatchRecord(6, 2, 5, ("c",), True, 3)],
    lemma_failures=["telescoping sum identity: n=6 k=2 lhs=3 rhs=0"],
)

FAKE_JSON_HEAD = """\
{
  "cases": 9,
  "roots": 3,
  "mismatches": [
    {
      "n": 6,
      "k": 2,
      "alpha": 5,
      "clauses": [
        "c"
      ],
      "predicted": true,
      "oracle_residue": 3,
      "agree": false
    }
  ],
  "lemma_failures": [
    "telescoping sum identity: n=6 k=2 lhs=3 rhs=0"
  ]"""

FAKE_OUTPUT = {
    "--format json": FAKE_JSON_HEAD + "\n}\n",
    "--format json --timing": FAKE_JSON_HEAD + ',\n  "elapsed_ms": 0\n}\n',
    "--format csv": "n,k,alpha,clauses,predicted,oracle_residue,agree\n6,2,5,c,True,3,False\n",
    "--format plain": (
        "scan: max_n=6 max_k=2 jobs=1\n"
        "cases checked: 9 (3 roots enumerated)\n"
        "MISMATCH n=6 k=2 alpha=5 predicted=True oracle_residue=3 clauses=c\n"
        "LEMMA FAILURE: telescoping sum identity: n=6 k=2 lhs=3 rhs=0\n"
        "mismatches: 1  lemma failures: 1\n"
        "elapsed: 0.00 s\n"
    ),
}


@pytest.mark.parametrize("options", FAKE_OUTPUT)
def test_failing_scan_output_is_pinned(capsys, monkeypatch, options):
    monkeypatch.setattr(cli, "scan", lambda cfg: FAKE_REPORT)
    assert main(["scan", "--max-n", "6", "--max-k", "2", *options.split()]) == 1
    assert capsys.readouterr().out == FAKE_OUTPUT[options]


# Each command whose CSV is a table of JSON records, and where its JSON
# keeps those records.
RECORD_TABLES = {
    "eval": ("eval --n 1000 --k 5 --alpha -3 --modulus 97", lambda payload: [payload]),
    "check": ("check --n 6 --k 2 --alpha 5", lambda payload: [payload]),
    "hunt-clause-b": ("hunt --drop clause-b --max-n 20 --max-k 4", lambda payload: payload["records"]),
    "hunt-clause-c-alpha": (
        "hunt --drop clause-c-alpha --max-n 20 --max-k 4", lambda payload: payload["records"]
    ),
    "scan": ("scan --max-n 6 --max-k 2", lambda payload: payload["mismatches"]),
}


@pytest.mark.parametrize("name", RECORD_TABLES)
def test_csv_rows_are_the_json_records_fields(capsys, monkeypatch, name):
    # one field list per record: the CSV header is the record's keys without
    # nested dicts (check's witness), and each cell is the record's value,
    # with a clause list joined
    monkeypatch.setattr(cli, "scan", lambda cfg: FAKE_REPORT)
    command, records_of = RECORD_TABLES[name]
    main([*command.split(), "--format", "json"])
    records = records_of(json.loads(capsys.readouterr().out))
    main([*command.split(), "--format", "csv"])
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert records and len(rows) == len(records)
    for record, row in zip(records, rows):
        fields = {key: value for key, value in record.items() if not isinstance(value, dict)}
        assert header == list(fields)
        assert row == ["".join(v) if isinstance(v, list) else str(v) for v in fields.values()]


def test_package_names_are_the_modules_names():
    assert len(set(rootsum.__all__)) == len(rootsum.__all__)
    assert rootsum.__all__ == ["__version__", *(n for m in MODULES for n in m.__all__)]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rootsum, name) is getattr(module, name), (module.__name__, name)
