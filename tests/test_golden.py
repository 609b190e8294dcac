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


@pytest.mark.parametrize("argv,code,sha256", [
    (["classify", "--q", "5"], 0,
     "a9378dfaace0b95cafd32dfb9848e82078b9416a4772939e74ce9f6e55d402b2"),
    (["classify", "--q", "7"], 0,
     "47c93059a47ca12b2957fb1d2485a9c942fd2bd0116c99968b3cee10577867b7"),
    (["build", "--q", "5", "--case", "c3", "--fermat"], 0,
     "1104ceb138c9e6b12d92c00da0de2c15334c563fee2fde4dfbafa5be206d5fa8"),
    (["build", "--q", "7", "--case", "c3", "--fermat"], 0,
     "1926d51dfcc630c071ac0181e0f564f19f09c1e5826b4f58590c0c4ad4929479"),
    (["stabilizer", "--q", "5", "--case", "c3", "--samples", "0"], 0,
     "f2921b172c87e425b44e5f19ad4ec1cfb681535aa982a459a3c478b40797cd00"),
    (["stabilizer", "--q", "7", "--case", "c3", "--samples", "0"], 2,
     "845798048701a5191d13c05901e2e1bc1109dd262689afc7f212e54f94db5de8"),
], ids=["classify_q5", "classify_q7", "build_c3_q5_fermat",
        "build_c3_q7_fermat", "stabilizer_c3_q5", "stabilizer_c3_q7"])
def test_odd_characteristic_stdout_digest(argv, code, sha256, capsys):
    """Odd-characteristic commands past q = 3, pinned by the digest of
    stdout as written when tabled fields of odd p added by Zech logarithms.
    Every field now adds digit by digit, so the bytes must not move.  The
    c3 q = 7 stabilizer exits 2: its order is twice the closed form
    (README finding 2)."""
    assert main(argv) == code
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == sha256


@pytest.mark.parametrize("argv,code,sha256", [
    (["classify", "--q", "32"], 0,
     "0792be88da96f356dda6cbc9d1511713268be5871673c19014d19d8bca09fb04"),
    (["stabilizer", "--q", "9", "--case", "c3", "--samples", "0"], 0,
     "37ec357c6642b4420a964b847aa2a0ddfd16e17759c2e762e65737268d076b65"),
    (["build", "--q", "8", "--case", "c2", "--fermat"], 0,
     "7738e7e0b08b4d2b2b4b00db2dc9170217f3bd6c7ce9cf2d639eddecbe874805"),
], ids=["classify_q32", "stabilizer_c3_q9", "build_c2_q8_fermat"])
def test_largest_table_stdout_digest(argv, code, sha256, capsys):
    """The commands that built the largest tables when every field up to
    TABLE_LIMIT was tabled: GF(2^20), exactly at TABLE_LIMIT, for
    classify --q 32; GF(3^12) for the c3 q = 9 stabilizer; GF(2^18) for
    the c2 q = 8 build.  Pinned by the digest of stdout as written when
    every table was a list of ints, so storing them as C arrays must not
    move a byte, and neither must leaving the first two untabled: only
    the build's three-cycle scan still asks for tables."""
    assert main(argv) == code
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == sha256


@pytest.mark.parametrize("argv,code,size,sha256", [
    (["stabilizer", "--q", "16", "--case", "c2", "--samples", "0"], 0,
     23_759_015,
     "5125ed5b5a706813272694c3f12a9229c41fc50e756fc7ae4f6550a23e98c502"),
    (["stabilizer", "--q", "19", "--case", "c3", "--samples", "0"], 2,
     6_275_792,
     "8fedb75809db060bd03648ad5316505ad8da4fa4b74e99cbfec93c242f72494d"),
], ids=["stabilizer_c2_q16", "stabilizer_c3_q19"])
def test_large_stabilizer_listing_stdout_digest(argv, code, size, sha256,
                                                capsys):
    """The largest listings in the suite, 4,097 and 3,430 elements, pinned
    by the size and digest of stdout as written when the report was built
    whole, each element a Mat, before the command wrote each element's
    text from its packed diagonal as it went."""
    assert main(argv) == code
    out = capsys.readouterr().out.encode()
    assert len(out) == size
    assert hashlib.sha256(out).hexdigest() == sha256


def test_stabilizer_c3_q3_full_small_gf9_report():
    M = embed_qprime(canonical_rep(CASE_C3, 3), CASE_C3, 3)
    text = json.dumps(full_small_report(M), indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / "stabilizer_c3_q3_full_small_gf9.json").read_text()
