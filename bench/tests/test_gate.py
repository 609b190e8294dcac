import json

import gate
import workloads
from workloads import Command

STAB = Command("stabilizer-c3-q7", ("stabilizer", "--q", "7", "--case", "c3",
                                    "--samples", "0"), False)
SEEDED = Command("stabilizer-c2-q4", ("stabilizer", "--q", "4", "--case", "c2",
                                      "--seed", "5"), True)
DOC = {"case": "c3", "q": 7, "order": 172, "predicted_order": 86,
       "match": False, "nondiagonal_hits": 0, "elements": []}


def _out(doc):
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _expected(cmd, code=2, doc=DOC):
    return {cmd.key: gate.record(cmd, code, _out(doc))}


def test_recorded_output_passes():
    assert gate.check(STAB, 2, _out(DOC), _expected(STAB)) == []


def test_wrong_exit_code_is_flagged():
    problems = gate.check(STAB, 0, _out(DOC), _expected(STAB))
    assert problems == ["stabilizer-c3-q7: exit 0, expected 2"]


def test_flipped_verdict_field_is_flagged():
    flipped = dict(DOC, match=True)
    problems = gate.check(STAB, 2, _out(flipped), _expected(STAB))
    assert any("match = True, expected False" in p for p in problems)


def test_changed_digest_is_flagged_only_for_unseeded_commands():
    reordered = json.dumps(DOC).encode()  # same verdict, other bytes
    problems = gate.check(STAB, 2, reordered, _expected(STAB))
    assert len(problems) == 1 and "sha256" in problems[0]
    assert gate.check(SEEDED, 2, reordered, _expected(SEEDED)) == []


def test_unreadable_output_and_unknown_command_are_flagged_not_raised():
    assert gate.check(STAB, 2, b"Traceback ...", _expected(STAB))
    assert gate.check(STAB, 2, _out(DOC), {}) == [
        "stabilizer-c3-q7: no expected values recorded"]


def test_classify_verdict_is_the_admissible_signature_set():
    doc = {"admissible": [{"sig": [4, 1, 3]}, {"sig": [3, 1, 2]}]}
    assert gate.verdict("classify", doc) == {"admissible": [[3, 1, 2], [4, 1, 3]]}


def test_expected_covers_every_command(tmp_path):
    expected = gate.load_expected()
    keys = set()
    for name in workloads.WORKLOADS:
        for cmd in workloads.commands(name, 7, tmp_path):
            assert cmd.key in expected
            assert ("sha256" in expected[cmd.key]) == (not cmd.seeded)
            assert "--threads" not in cmd.argv
            keys.add(cmd.key)
    assert keys == set(expected)
    assert expected["classify-q2"]["exit"] == 2
    assert [4, 1, 3] in expected["classify-q2"]["verdict"]["admissible"]
