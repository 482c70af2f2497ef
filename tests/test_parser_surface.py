"""Byte-for-byte snapshots of the argument parser's own output.

Each file under ``tests/data/parser_surface/`` holds ``exit <code>`` on its
first line and, after it, what argparse printed: ``--help``'s stdout for
the top level and each subparser, and a usage error's stderr.  The
terminal width is pinned to 80 columns, since argparse wraps to it.  Like
the goldens, the snapshots are never rewritten by the suite.
"""

from pathlib import Path

import pytest

SURFACE = Path(__file__).parent / "data" / "parser_surface"

# --help on every parser prints to stdout and exits 0
HELP = {
    "help-top": [],
    "help-report": ["report"],
    "help-epoch": ["epoch"],
    "help-epoch-matter": ["epoch", "matter"],
    "help-epoch-radiation": ["epoch", "radiation"],
    "help-epoch-inflation": ["epoch", "inflation"],
    "help-large-numbers": ["large-numbers"],
    "help-constants": ["constants"],
    "help-manmade": ["manmade"],
}

# a usage error prints to stderr and exits 2
USAGE_ERRORS = {
    "error-empty": [],
    "error-epoch": ["epoch"],
    "error-bogus": ["bogus"],
    "error-radiation-missing": ["epoch", "radiation", "--t1", "1"],
    "error-manmade-profile": ["manmade", "--profile", "x"],
}

PROBES = [
    *((name, [*path, "--help"], "out") for name, path in HELP.items()),
    *((name, argv, "err") for name, argv in USAGE_ERRORS.items()),
]


@pytest.mark.parametrize(("name", "argv", "stream"), PROBES, ids=[p[0] for p in PROBES])
def test_parser_output_matches_snapshot(run_cli, monkeypatch, name, argv, stream):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(argv)
    shown, silent = (out, err) if stream == "out" else (err, out)
    assert silent == ""
    expected = (SURFACE / f"{name}.out").read_bytes()
    assert f"exit {code}\n{shown}".encode("utf-8") == expected
