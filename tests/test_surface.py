"""The public surface: pinned CLI output bytes and the package's name registry."""

import hashlib

import pytest

import rootsum
from rootsum import criterion, derivsum, falling, harness, numtheory
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
    "roots --n 360 --format json":
        "817709d8c12e713c09e24304e7be42cbf0907f249fce381a97f83b4cc08bd6cf",
    "roots --n 360 --format csv":
        "c8080ff5cee01b5f706f3cd2a3428f4ef309d308d584b8ee2e0dfa351cef808a",
    "roots --n 360 --format plain":
        "b4ca286e9978f70c9c5d63782b98cf5bef871a4a4b85935621b23a0c8f187834",
    "check --n 6 --k 2 --alpha 5 --format json":
        "3c7096ef97a17eaf771914f93315162ed2d4a44965978f6ffd25f3f5b8f1fd8a",
    "check --n 6 --k 2 --alpha 5 --format csv":
        "8c4f8d9691291229d84cf650726b26985500d2119b4ba23d1464829de14c5558",
    "check --n 6 --k 2 --alpha 5 --format plain":
        "030de174a881ad1c25800484efbc1b0b186ad9f5374246e1d0a3020e472ec292",
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


def test_package_names_are_the_modules_names():
    assert len(set(rootsum.__all__)) == len(rootsum.__all__)
    assert rootsum.__all__ == ["__version__", *(n for m in MODULES for n in m.__all__)]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rootsum, name) is getattr(module, name), (module.__name__, name)
