"""Byte-for-byte JSON goldens of the command line front end.

Each case runs one subcommand with ``--format json`` on a file under
``goldens/inputs`` and compares stdout and the exit code with the output
recorded in ``goldens/<case>.json``.  The cases cover exact and float
inputs, so a refactor that reorders exact or float arithmetic shows here.
"""

from pathlib import Path

import pytest

from solvstrat.cli import main

GOLDENS = Path(__file__).parent / "goldens"

CASES = [
    ("stratum-h3", ["stratum", "h3.json"], 0),
    ("stratum-fil4", ["stratum", "fil4.json"], 0),
    ("stratum-free3", ["stratum", "free3.json"], 0),
    ("stratum-fil4-gl-float", ["stratum", "fil4_gl.json"], 2),
    ("einstein-audit-ch2", ["einstein", "ch2.json", "--audit"], 0),
    ("einstein-audit-nonstandard-h3", ["einstein", "nonstandard_h3.json", "--audit"], 2),
    ("einstein-audit-ch2-gram", ["einstein", "ch2_gram.json", "--audit"], 2),
    ("extend-h3", ["extend", "h3.json"], 0),
    ("extend-abelian3", ["extend", "abelian3.json"], 0),
    ("validate-fil4", ["validate", "fil4.json"], 0),
    ("validate-fil4-gl-float", ["validate", "fil4_gl.json"], 0),
    ("minnorm-12-points", ["minnorm", "points12.json"], 0),
    ("minnorm-13-points", ["minnorm", "points13.json"], 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_json_output_matches_golden(capsys, name, argv, code):
    args = [str(GOLDENS / "inputs" / a) if a.endswith(".json") else a for a in argv]
    assert main(args + ["--format", "json"]) == code
    out = capsys.readouterr().out
    assert out.encode() == (GOLDENS / f"{name}.json").read_bytes()
