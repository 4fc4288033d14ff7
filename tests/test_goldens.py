"""Byte-for-byte goldens of the command line front end.

Each case runs one subcommand with ``--format json`` on a file under
``goldens/inputs`` and compares stdout and the exit code with the output
recorded in ``goldens/<case>.json``; the same run in text format is
compared with ``goldens/<case>.txt``, its wall-clock ``elapsed:`` value
masked.  The cases cover exact and float inputs, so a refactor that
reorders exact or float arithmetic shows here, and one failing extension,
whose report has no ``elapsed:`` line.
Each case also runs in a fresh interpreter, which must print the same bytes
and load numpy only for float work: numpy is imported lazily (solvstrat._np),
and the test process itself has imported it already.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from solvstrat.cli import main

GOLDENS = Path(__file__).parent / "goldens"
SRC = Path(__file__).resolve().parents[1] / "src"

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
    ("extend-fil4", ["extend", "fil4.json"], 0),
    ("validate-fil4", ["validate", "fil4.json"], 0),
    ("validate-fil4-gl-float", ["validate", "fil4_gl.json"], 0),
    ("minnorm-12-points", ["minnorm", "points12.json"], 0),
    ("minnorm-13-points", ["minnorm", "points13.json"], 0),
    ("extend-non-nilsoliton", ["extend", "non_nilsoliton7.json"], 2),
    ("stratum-non-nilsoliton", ["stratum", "non_nilsoliton7.json"], 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_json_output_matches_golden(capsys, name, argv, code):
    args = [str(GOLDENS / "inputs" / a) if a.endswith(".json") else a for a in argv]
    assert main(args + ["--format", "json"]) == code
    out = capsys.readouterr().out
    assert out.encode() == (GOLDENS / f"{name}.json").read_bytes()


def mask_elapsed(text: str) -> str:
    return re.sub(r"^elapsed: \d+\.\d{3}s$", "elapsed: <t>s", text, flags=re.MULTILINE)


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_text_output_matches_golden(capsys, name, argv, code):
    args = [str(GOLDENS / "inputs" / a) if a.endswith(".json") else a for a in argv]
    assert main(args) == code
    out = capsys.readouterr().out
    assert mask_elapsed(out).encode() == (GOLDENS / f"{name}.txt").read_bytes()


# the cases whose work is float: float brackets (among them the flow route
# of stratum), the extension of fil4 (tr D = 5 has no rational root) and the
# Cholesky factor of a gram matrix.  Exact stratum takes the weight-hull route
LOADS_NUMPY = {"stratum-fil4-gl-float", "einstein-audit-ch2-gram", "extend-fil4", "validate-fil4-gl-float"}

# numpy counts as loaded once its __init__ has run: until then the lazy
# placeholder that solvstrat._np puts in sys.modules is not a plain module
FRESH = """
import contextlib, io, json, sys, types
code = None
{body}
loaded = type(sys.modules.get("numpy")) is types.ModuleType
print(json.dumps({{"code": code, "numpy": loaded}}))
"""
RUN_CLI = """
from solvstrat.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
sys.stdout.write(out.getvalue())
"""


def fresh(body, *argv):
    """Run body in a new interpreter with the package's source on its path.
    Returns what it printed before the last line, and the last line: its
    exit code and whether numpy loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FRESH.format(body=body), *argv],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    out, last = proc.stdout[:-1].rpartition(b"\n")[::2]
    return out + b"\n" if out else b"", json.loads(last)


EXACT_WORK = {
    "import": "import solvstrat.cli",
    "curvature": "from fractions import Fraction as F\n"
                 "from solvstrat import bracket, solvable\n"
                 "mu = bracket.BracketTensor.make(4, {(2, 3, 4): F(1), (1, 2, 2): F(1, 2),\n"
                 "                                    (1, 3, 3): F(1, 2), (1, 4, 4): F(1)})\n"
                 "solvable.curvature_report(solvable.MetricSolvableAlgebra.create(1, 3, mu))",
}


@pytest.mark.parametrize("body", EXACT_WORK.values(), ids=EXACT_WORK)
def test_exact_work_does_not_load_numpy(body):
    assert fresh(body) == (b"", {"code": None, "numpy": False})


EXACT_CERTIFICATES = """
from solvstrat import jsonio, strata
code = []
for path in sys.argv[1:]:
    mu = jsonio.read_bracket_file(path).bracket
    chamber, _ = strata.sort_to_weyl_chamber(strata.beta_of(mu))
    cert = strata.certify_candidate(mu, chamber)
    code.append([cert.all_passed, cert.residuals["adbeta_quadratic_min"] == 0])
"""


def test_exact_label_and_certificate_do_not_load_numpy():
    # the exact certificate decides its quadratic condition by the grading,
    # with no eigenvalue; the labels of fil4 and free3 are sorted already
    paths = [str(GOLDENS / "inputs" / name) for name in ("fil4.json", "free3.json")]
    assert fresh(EXACT_CERTIFICATES, *paths) == (b"", {"code": [[True, True]] * 2,
                                                       "numpy": False})


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_fresh_process_matches_golden_and_loads_numpy_for_float_work(name, argv, code):
    args = [str(GOLDENS / "inputs" / a) if a.endswith(".json") else a for a in argv]
    out, last = fresh(RUN_CLI, *args, "--format", "json")
    assert out == (GOLDENS / f"{name}.json").read_bytes()
    assert last == {"code": code, "numpy": name in LOADS_NUMPY}
