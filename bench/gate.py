"""Correctness gate: every command's exit code and verdict fields must equal
the values recorded in expected.json, and so must the stdout sha256 of every
command whose input does not depend on the seed (stdout is meant to stay
byte-identical).  A mismatch is reported and counted, never raised."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def verdict(subcommand: str, doc: dict) -> dict:
    """The fields of a command's JSON output that carry its verdict."""
    if subcommand == "stabilizer":
        return {k: doc[k] for k in ("order", "predicted_order", "match",
                                    "nondiagonal_hits")}
    if subcommand == "classify":
        return {"admissible": sorted(e["sig"] for e in doc["admissible"])}
    if subcommand == "reps-q2":
        return {"all_pairwise_inequivalent": doc["all_pairwise_inequivalent"]}
    if subcommand == "build":
        return {"on_surface": doc["on_surface"], "nonplanar": doc["nonplanar"]}
    return {}


def record(cmd, exit_code: int, stdout: bytes) -> dict:
    """The expected-value entry for one command's observed output."""
    entry = {"exit": exit_code,
             "verdict": verdict(cmd.subcommand, json.loads(stdout))}
    if not cmd.seeded:
        entry["sha256"] = hashlib.sha256(stdout).hexdigest()
    return entry


def check(cmd, exit_code: int, stdout: bytes, expected: dict) -> list:
    """Problems with one command's result; an empty list means it passed."""
    want = expected.get(cmd.key)
    if want is None:
        return [f"{cmd.key}: no expected values recorded"]
    problems = []
    if exit_code != want["exit"]:
        problems.append(f"{cmd.key}: exit {exit_code}, expected {want['exit']}")
    try:
        got = verdict(cmd.subcommand, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"{cmd.key}: unreadable output ({type(exc).__name__}: {exc})")
    else:
        for field, value in want["verdict"].items():
            if got.get(field) != value:
                problems.append(f"{cmd.key}: {field} = {got.get(field)!r}, "
                                f"expected {value!r}")
    if not cmd.seeded:
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != want.get("sha256"):
            problems.append(f"{cmd.key}: stdout sha256 {digest[:12]}..., "
                            f"expected {str(want.get('sha256'))[:12]}...")
    return problems
