"""Outputs pinned byte for byte: every file under golden/ was written by the
CLI before the code path it pins was last rewritten (the GL2 scans before
they were reduced to one matrix per scalar class, the other commands before
the field arithmetic was rebound at construction).  The GF(9) full GL2
stabilizer report was written by the package's scan before that scan became
a test oracle (oracles.py), which must still reproduce it."""

import hashlib
import json
from pathlib import Path

import pytest

from hermitia.cli import main
from hermitia.orbit import canonical_rep, embed_qprime
from hermitia.tetra import CASE_C3

from oracles import full_small_report

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_reps_q2_scan_stdout(capsys):
    assert main(["reps-q2", "--scan"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "reps_q2_scan.json").read_text()


@pytest.mark.parametrize("name,argv,code", [
    ("count_q2", ["count", "--q", "2"], 0),
    ("count_q3", ["count", "--q", "3"], 0),
    ("count_q4", ["count", "--q", "4"], 0),
    ("count_q5", ["count", "--q", "5"], 0),
    ("classify_q2", ["classify", "--q", "2"], 2),
    ("classify_q3", ["classify", "--q", "3"], 0),
    ("build_c1_q3_fermat", ["build", "--q", "3", "--case", "c1", "--fermat"], 0),
    ("build_c2_q2_fermat", ["build", "--q", "2", "--case", "c2", "--fermat"], 0),
    ("build_c2_q4_fermat", ["build", "--q", "4", "--case", "c2", "--fermat"], 0),
    ("build_c3_q3_fermat", ["build", "--q", "3", "--case", "c3", "--fermat"], 0),
    ("stabilizer_c2_q4",
     ["stabilizer", "--q", "4", "--case", "c2", "--samples", "0"], 0),
    ("stabilizer_c3_q3",
     ["stabilizer", "--q", "3", "--case", "c3", "--samples", "0"], 2),
])
def test_cli_stdout(name, argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("argv,code,sha256", [
    (["stabilizer", "--q", "4", "--case", "c2", "--seed", "1"], 0,
     "7cbdc1b50b30c42b91d3771c9bca9c18f38e2cd816f31ff2142899e1f610d75e"),
    (["stabilizer", "--q", "3", "--case", "c3", "--seed", "1"], 2,
     "7bf197c2f75dbac16d79fcf063a300a3582b3d18c1c445a6c10a9dcb3d48f269"),
], ids=["c2_q4", "c3_q3"])
def test_sampled_stabilizer_stdout_digest(argv, code, sha256, capsys):
    """The report at the default --samples 10^4, pinned by the digest of
    stdout as written when 10^4 seeded g were drawn and each went through a
    dense act.  Nothing is drawn now (orbit.nondiagonal_excluded decides the
    non-diagonal part), so the report, which echoes the sample count and
    reports no non-diagonal hit, must still match byte for byte."""
    assert main(argv) == code
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == sha256


def test_stabilizer_c3_q3_full_small_gf9_report():
    M = embed_qprime(canonical_rep(CASE_C3, 3), CASE_C3, 3)
    text = json.dumps(full_small_report(M), indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / "stabilizer_c3_q3_full_small_gf9.json").read_text()
