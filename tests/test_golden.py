"""Outputs pinned byte for byte: the files under golden/ were written by the
exhaustive GL2 scans, before those scans were reduced to one matrix per
scalar class."""

import json
from pathlib import Path

from hermitia import gf
from hermitia.cli import main
from hermitia.orbit import stabilizer_search
from hermitia.tetra import CASE_C3

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_reps_q2_scan_stdout(capsys):
    assert main(["reps-q2", "--scan"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "reps_q2_scan.json").read_text()


def test_stabilizer_c3_q3_full_small_gf9_report():
    rep = stabilizer_search(CASE_C3, 3, mode="full_small",
                            search_field=gf.gfq2(3), samples=0)
    text = json.dumps(rep.to_json(), indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / "stabilizer_c3_q3_full_small_gf9.json").read_text()
