"""Outputs pinned byte for byte: every file under golden/ was written by the
CLI before the code path it pins was last rewritten (the GL2 scans before
they were reduced to one matrix per scalar class, the other commands before
the field arithmetic was rebound at construction)."""

import json
from pathlib import Path

import pytest

from hermitia import gf
from hermitia.cli import main
from hermitia.orbit import stabilizer_search
from hermitia.tetra import CASE_C3

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


def test_stabilizer_c3_q3_full_small_gf9_report():
    rep = stabilizer_search(CASE_C3, 3, mode="full_small",
                            search_field=gf.gfq2(3), samples=0)
    text = json.dumps(rep.to_json(), indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / "stabilizer_c3_q3_full_small_gf9.json").read_text()
