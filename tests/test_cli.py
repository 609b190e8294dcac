import functools
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import hermitia
from hermitia import cli, gf
from hermitia.cli import main
from hermitia.matff import Mat
from hermitia.orbit import stabilizer_search
from matrices import random_hermitian_invertible
from oracles import stabilizer_json


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def exit_code(argv):
    """The exit status of main(argv), whether it returns it or raises
    SystemExit with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_process(argv, cwd=None, timeout=None, **env):
    """Run the CLI in a fresh interpreter, as the installed script would."""
    src = str(Path(hermitia.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hermitia.cli", *argv],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path, **env})


def test_count_q3(capsys):
    code, out = run(["count", "--q", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    counts = {e["case"]: e["count"] for e in doc["cases"]}
    assert counts == {"c1": 18144, "c3": 1866240}


def test_count_q2_infinite(capsys):
    code, out = run(["count", "--q", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [e["count"] for e in doc["cases"]] == ["infinite", "infinite"]


def test_count_tsv_format(capsys):
    code, out = run(["count", "--q", "4", "--format", "tsv"], capsys)
    assert code == 0
    assert "cases.1.count\t15667200" in out


def test_count_rejects_non_prime_power(capsys):
    assert exit_code(["count", "--q", "6"]) == 3
    assert capsys.readouterr().err == "q=6 is not a prime power\n"


@pytest.mark.parametrize("q", ["6", "1"])
@pytest.mark.parametrize("argv", [
    ["classify"], ["count"], ["build", "--case", "c1", "--fermat"],
    ["stabilizer", "--case", "c2"],
])
def test_a_q_that_is_not_a_prime_power_exits_3_in_every_subcommand(argv, q,
                                                                   capsys):
    """gf.prime_power_split is the one rule, checked before any other."""
    assert exit_code(argv + ["--q", q]) == 3
    assert capsys.readouterr() == ("", f"q={q} is not a prime power\n")


def test_count_takes_a_large_prime_q():
    """10^18 + 3 is prime; its square root is past any trial division."""
    proc = run_process(["count", "--q", "1000000000000000003"], timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["q"] == 10 ** 18 + 3


@pytest.mark.parametrize("argv", [
    ["classify", "--q", "1000000000000000003"],
    ["build", "--q", "1000000000000000003", "--case", "c1", "--fermat"],
    ["stabilizer", "--q", "1000000000000000003", "--case", "c3"],
])
def test_a_huge_prime_q_exits_4_naming_the_field_and_budget(argv):
    """GF(q^2) at q = 10^18 + 3 gets its modulus from the lazy walk; its
    group order is refused by the trial-division budget in one line."""
    start = time.perf_counter()
    proc = run_process(argv, timeout=30)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr == (
        "GF(1000000000000000003^2) refused: factoring "
        f"{(10 ** 18 + 3) ** 2 - 1} needs more than 1000000 trial divisors\n")


@pytest.mark.parametrize("argv,d_max", [
    (["classify", "--q", "9", "--max-d", "1000000000"], 10 ** 9),
    (["classify", "--q", "3", "--max-d", "10000001"], 10 ** 7 + 1),
    (["classify", "--q", "2591"], 10073808),
])
def test_a_d_max_past_the_budget_exits_4_naming_it(argv, d_max):
    """The signature count lists d_max + 1 integers twice, so a d_max past
    10^7, given or the default (3q(q + 1) + 1)/2 at q = 2591 (the least
    prime power past 2581), is refused in one line before any signature
    is visited; --max-d 10^9 ran past a 60 s timeout before."""
    start = time.perf_counter()
    proc = run_process(argv, timeout=30)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr == (f"signature count to d_max = {d_max} refused: "
                           f"{d_max} degrees > budget 10000000\n")


@pytest.mark.parametrize("argv", [
    ["count", "--q", str(2 ** 89 - 1)],
    ["classify", "--q", str(10000000000037 * 10000000001011)],
    ["build", "--q", str(2 ** 89 - 1), "--case", "c1", "--fermat"],
    ["stabilizer", "--q", str(10000000000037 * 10000000001011), "--case", "c3"],
])
def test_primality_past_the_miller_rabin_bound_exits_4_within_the_budget(argv):
    """At and above 3.3e24 primality is decided by factoring within the
    10^6-divisor budget: the prime 2^89 - 1 and a product of two 14-digit
    primes are refused in one line, not trial-divided for hours."""
    start = time.perf_counter()
    proc = run_process(argv, timeout=30)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr == (f"factoring {argv[2]} needs more than 1000000 "
                           "trial divisors\n")


def test_classify_q3(capsys):
    code, out = run(["classify", "--q", "3", "--max-d", "12"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [e["case_sig"] for e in doc["admissible"]] == [[4, 1, 3], [6, 2, 5]]
    assert [e["case"] for e in doc["admissible"]] == ["I", "III"]
    assert doc["matches_prediction"]


def test_classify_q2_flags_surplus_family(capsys):
    code, out = run(["classify", "--q", "2", "--max-d", "8"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert [e["sig"] for e in doc["admissible"]] == [[3, 1, 2], [4, 1, 3], [6, 1, 3]]
    assert doc["admissible"][1]["case"] == "unexpected"
    assert not doc["matches_prediction"]


def test_classify_names_its_exit_reason(capsys):
    assert main(["classify", "--q", "2", "--max-d", "8"]) == 2
    assert capsys.readouterr().err == (
        "unexpected signatures [[4, 1, 3]]; admissible [[3, 1, 2], [4, 1, 3], "
        "[6, 1, 3]] != predicted [[3, 1, 2], [6, 1, 3]]\n")
    assert main(["classify", "--q", "3", "--max-d", "12"]) == 0
    assert capsys.readouterr().err == ""


def test_build_c1_fermat(capsys):
    code, out = run(["build", "--q", "3", "--case", "c1", "--fermat"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["on_surface"] and doc["nonplanar"]
    assert doc["standard_model_scan"]["singular"] == []


def test_build_c2_q2_reports_singular_point(capsys):
    code, out = run(["build", "--q", "2", "--case", "c2", "--fermat"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["on_surface"]
    sing = doc["standard_model_scan"]["singular"]
    assert len(sing) == 1 and sing[0]["rank"] == 1
    # the rank-deficient point of the q=2 degree-6 model is (1:0:0:0)
    assert sing[0]["point"] == [[1, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4]


def test_build_with_surface_file(tmp_path, capsys):
    A = random_hermitian_invertible(3, 4, seed=12)
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(A.to_json()))
    code, out = run(["build", "--q", "3", "--case", "c1",
                     "--surface", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["on_surface"]


def test_build_refuses_a_surface_over_another_field_before_building_it(
        tmp_path, capsys):
    """GF(2^89) is refused from its (p, m) alone; building it would factor
    2^89 - 1 by trial division."""
    big = {"p": 2, "m": 89, "modulus": [1] + [0] * 37 + [1] + [0] * 50 + [1]}
    one, zero = [1] + [0] * 88, [0] * 89
    entries = [one if k % 5 == 0 else zero for k in range(16)]
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"field": big, "rows": 4, "cols": 4,
                                "entries": entries}))
    t0 = time.perf_counter()
    assert exit_code(["build", "--q", "2", "--case", "c1",
                      "--surface", str(path)]) == 3
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err == (
        f"{path} is not a valid surface file: MatError: "
        "surface field is not GF(q^2) = GF(2^2)\n")


@pytest.mark.parametrize("case", ["c1", "c3"])
def test_build_takes_a_surface_with_another_modulus_of_gf_q2(
        case, tmp_path, capsys):
    fld = gf.make_field(3, 2, (2, 1, 1))  # x^2 + x + 2, not the default
    assert fld is not gf.gfq2(3)
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(Mat.identity(fld, 4).to_json()))
    code, out = run(["build", "--q", "3", "--case", case,
                     "--surface", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["on_surface"]


def test_build_rejects_non_hermitian_surface(tmp_path, capsys):
    f9 = gf.gfq2(3)
    u = f9.element([0, 1])
    bad = Mat.diagonal(f9, [u, 1, 1, 1])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    assert exit_code(["build", "--q", "3", "--case", "c1",
                      "--surface", str(path)]) == 3
    assert capsys.readouterr().err == "surface matrix is not Hermitian for this q\n"


def test_build_parity_error(capsys):
    assert exit_code(["build", "--q", "3", "--case", "c2", "--fermat"]) == 3


def test_stabilizer_c3_q3_reports_mismatch(capsys):
    code, out = run(["stabilizer", "--q", "3", "--case", "c3",
                     "--samples", "50"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["order"] == 14 and doc["predicted_order"] == 7
    assert doc["cyclic"] and not doc["match"]
    assert doc["nondiagonal_hits"] == 0


def test_stabilizer_c2_q4_matches(capsys):
    code, out = run(["stabilizer", "--q", "4", "--case", "c2",
                     "--samples", "50"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 65 and doc["match"]


@pytest.mark.parametrize("argv,code,err", [
    (["--q", "3", "--case", "c3"], 2, "stabilizer order 14 != predicted_order 7\n"),
    (["--q", "4", "--case", "c2"], 0, ""),
])
def test_stabilizer_names_its_exit_reason(argv, code, err, capsys):
    """Under a second whatever the sample count: nothing is drawn."""
    t0 = time.perf_counter()
    assert main(["stabilizer", "--samples", "1000000000000"] + argv) == code
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err == err


def test_stabilizer_parity_error(capsys):
    assert exit_code(["stabilizer", "--q", "3", "--case", "c2"]) == 3


# input files the invalid-input cases below read, written to the working
# directory of each run
_GF9 = {"p": 3, "m": 2, "modulus": [1, 0, 1]}
_IDENTITY = [[1, 0] if k % 5 == 0 else [0, 0] for k in range(16)]
BAD_INPUT_FILES = {
    "not_json.json": "[[0, 0",
    "wrong_keys.json": json.dumps({"rows": 4, "cols": 4, "entries": []}),
    "long_lambda.json": json.dumps([[0, 0, 0, 0]]),   # GF(4) has m = 2
    "float_lambda.json": json.dumps([[1.5, 0]]),
    "bool_lambda.json": json.dumps([[True, False]]),
    "bool_modulus.json": json.dumps({
        "field": {**_GF9, "modulus": [True, 0, True]}, "rows": 4, "cols": 4,
        "entries": _IDENTITY}),
    "float_entry.json": json.dumps({"field": _GF9, "rows": 4, "cols": 4,
                                    "entries": [[1.5, 0]] + _IDENTITY[1:]}),
    "float_modulus.json": json.dumps({
        "field": {**_GF9, "modulus": [1, 0, 1.0]}, "rows": 4, "cols": 4,
        "entries": _IDENTITY}),
    "deep.json": "[" * 200000 + "]" * 200000,
}


@pytest.mark.parametrize("argv", [
    ["count", "--q", "6"],
    ["stabilizer", "--q", "2", "--case", "c2"],
    ["build", "--q", "3", "--case", "c2", "--fermat"],
    ["classify", "--q", "2", "--max-d", "2"],
    ["build", "--q", "3", "--case", "c1", "--surface", "missing.json"],
    ["build", "--q", "3", "--case", "c1", "--surface", "not_json.json"],
    ["build", "--q", "3", "--case", "c1", "--surface", "wrong_keys.json"],
    ["reps-q2", "--lambdas-file", "not_json.json"],
    ["reps-q2", "--lambdas-file", "long_lambda.json"],
    ["reps-q2", "--lambdas-file", "float_lambda.json"],
    ["build", "--q", "3", "--case", "c1", "--surface", "float_entry.json"],
    ["build", "--q", "3", "--case", "c1", "--surface", "float_modulus.json"],
    ["stabilizer", "--q", "3", "--case", "c3", "--samples", "-5"],
    ["stabilizer", "--q", "3", "--case", "c3", "--samples", "0",
     "--out", "missing_dir/x.json"],
    ["count", "--q", "3", "--out", "missing_dir/x.json"],
    ["stabilizer", "--q", "3", "--case", "c3", "--samples", "0", "--out", "."],
    ["build", "--q", "3", "--case", "c1", "--fermat", "--max-ext", "-5"],
    ["build", "--q", "3", "--case", "c3", "--fermat", "--max-ext", "0"],
    ["build", "--q", "4", "--case", "c2", "--fermat", "--max-ext", "0"],
    ["reps-q2", "--lambdas-file", "bool_lambda.json"],
    ["build", "--q", "3", "--case", "c1", "--surface", "bool_modulus.json"],
    ["reps-q2", "--lambdas-file", "deep.json"],
    ["build", "--q", "3", "--case", "c1", "--surface", "deep.json"],
    ["count", "--q", "1000000016000000063"],     # (10^9 + 7)(10^9 + 9)
])
def test_invalid_input_exits_3_with_one_line_reason(argv, tmp_path):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    proc = run_process(argv, cwd=tmp_path, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].strip()
    assert "Traceback" not in proc.stderr


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)
# surface-shaped documents, so some runs get past the field check
_SURFACE_LIKE = st.fixed_dictionaries({
    "field": st.just(_GF9) | _JSON_VALUES, "rows": st.just(4) | _JSON_VALUES,
    "cols": st.just(4) | _JSON_VALUES, "entries": _JSON_VALUES})


@pytest.mark.parametrize("argv", [
    ["reps-q2", "--lambdas-file"],
    ["build", "--q", "3", "--case", "c1", "--surface"],
])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_JSON_VALUES | _SURFACE_LIKE)
# a shape that is not two integers is refused before rows * cols is taken
@example(doc={"field": _GF9, "rows": 2 ** 62, "cols": [0, 0, 0, 0],
              "entries": []})
@example(doc={"field": _GF9, "rows": 10 ** 30, "cols": [0], "entries": []})
def test_random_json_input_ends_in_a_documented_exit(argv, doc, tmp_path):
    """Any JSON value given as an input file ends in 0, 2 or 3, in-process
    and without an exception; a nonzero exit writes one stderr line."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv + [str(path)])
    assert code in (0, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].strip()


def test_exhausted_build_exits_4_naming_the_field_bound():
    """A three-cycle search over GF(q^6) estimates its work before the
    field is built and refuses past its budget: c2 q = 64 at q^3 baby
    steps per discrete log of the closed form, c3 q = 9 at q^6 steps of
    the p = 3 scan.  One stderr line names the estimate and the budget."""
    for q, case, estimate in (
            (64, "c2", "about 262144 steps (sqrt|F| baby steps per discrete log)"),
            (9, "c3", "about 531441 steps (|F| for the p = 3 scan)")):
        proc = run_process(["build", "--q", str(q), "--case", case, "--fermat"])
        assert proc.returncode == 4
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert (f"three-cycle search over GF({q}^6) refused: {estimate} "
                "> budget 100000") == lines[0]


def test_exhausted_build_exits_4_naming_the_max_ext_bound():
    """The c2 three-cycle needs GF(q^6), m = 3 (the lemma in
    orbit._untwist); --max-ext 2 leaves no such m, and the reason says so."""
    proc = run_process(["build", "--q", "4", "--case", "c2", "--fermat",
                        "--max-ext", "2"])
    assert proc.returncode == 4
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert "m <= 2: a three-cycle needs 3 | m" in lines[0]


# The c2 q = 16 case that stood first here now builds; tests/test_recheck.py
# re-checks its report.
@pytest.mark.parametrize("argv,tried", [
    pytest.param(["build", "--q", "9", "--case", "c3", "--fermat"],
                 [81, 6561], id="argv1-[81, 6561]"),
])
def test_exhausted_build_names_the_orders_the_three_cycle_rules_out(
        argv, tried, monkeypatch, capsys):
    """GF(q^2) and GF(q^4) cannot split the three-cycle (the lemma in
    orbit._untwist), so the search builds neither as an extension: the
    only field the command builds is the coefficient field GF(q^2).
    GF(q^6) is refused on its work estimate before it is built, and the
    reason names that field."""
    built = []

    def record(p, m, modulus):
        built.append(gf.Field(p, m, modulus))
        return built[-1]

    monkeypatch.setattr(gf, "_field_cache",
                        functools.lru_cache(maxsize=None)(record))
    monkeypatch.setattr(gf, "_embedding_cache", functools.lru_cache(
        maxsize=None)(gf._embedding_cache.__wrapped__))
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("three-cycle search over GF(9^6) refused: ")
    assert [f.order for f in built] == tried[:1]


def test_cli_imports_only_the_standard_library():
    """hermitia needs nothing outside the standard library.  -S leaves
    site-packages off the path, so importing an installed third-party package
    fails, and no .pth hook loads modules of its own."""
    src = str(Path(hermitia.__file__).resolve().parent.parent)
    code = ("import sys, hermitia.cli\n"
            "print('\\n'.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "hermitia.cli" in loaded
    foreign = [name for name in loaded
               if name != "__main__" and name.split(".")[0] != "hermitia"
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def _modules_loaded_by_cli_import():
    """sys.modules after `python -S -c "import hermitia.cli"`; -S keeps site
    hooks from loading anything first."""
    src = str(Path(hermitia.__file__).resolve().parent.parent)
    code = ("import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import hermitia.cli\n"
            "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "hermitia.cli" in loaded
    return loaded


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Each CLI call pays for what `import hermitia.cli` loads; dataclasses
    alone pulls in inspect, ast, dis and tokenize."""
    loaded = _modules_loaded_by_cli_import()
    assert {"dataclasses", "inspect", "typing"}.isdisjoint(loaded)


def test_cli_import_loads_no_array():
    """Importing the CLI does no module-level work: array is imported only
    when a field above 257 elements builds its tables, and a command such
    as reps-q2, whose GF(4) and GF(16) are tabled at construction as lists,
    never loads it."""
    assert "array" not in _modules_loaded_by_cli_import()


def test_threads_environment_variable_is_ignored():
    proc = run_process(["count", "--q", "3"], HERMITIA_THREADS="abc")
    assert proc.returncode == 0, proc.stderr
    assert {e["case"]: e["count"] for e in json.loads(proc.stdout)["cases"]} == {
        "c1": 18144, "c3": 1866240}


def test_threads_flag_is_rejected(capsys):
    assert exit_code(["count", "--q", "3", "--threads", "2"]) == 3
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["count", "--q", "3"],
    ["classify", "--q", "2"],
    ["build", "--q", "3", "--case", "c1", "--fermat"],
    ["reps-q2", "--scan"],
])
def test_seed_flag_belongs_to_stabilizer_only(argv, capsys):
    assert exit_code(argv + ["--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert err.endswith("error: unrecognized arguments: --seed 1\n")


@pytest.mark.parametrize("argv,usage", [
    (["count", "--q", "3", "--seed", "1"], "usage: hermitia count [-h] --q Q"),
    (["stabilizer", "--q", "3", "--case", "c3", "--threads", "2"],
     "usage: hermitia stabilizer [-h] --case {c2,c3}"),
])
def test_unknown_flag_is_refused_with_the_subcommand_usage(argv, usage, capsys):
    assert exit_code(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(usage)
    assert err.endswith(f"\nhermitia {argv[0]}: error: unrecognized arguments: "
                        f"{' '.join(argv[-2:])}\n")


@pytest.mark.parametrize("argv", [
    ["--seed", "1", "count", "--q", "3"],
    ["--samples", "5", "stabilizer", "--q", "3", "--case", "c3"],
    ["--q", "3", "count"],
])
def test_flag_before_the_subcommand_is_refused_by_name(argv, capsys):
    assert exit_code(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: hermitia [-h]")
    assert err.endswith(f"hermitia: error: unrecognized arguments: {argv[0]} "
                        f"(flags go after the subcommand)\n")


def test_mode_flag_is_rejected(capsys):
    argv = ["stabilizer", "--q", "3", "--case", "c3", "--mode", "full_small"]
    assert exit_code(argv) == 3
    assert "--mode" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["dir", "missing_dir/x.json"])
def test_unwritable_out_is_refused_before_any_work(target, tmp_path,
                                                   monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "stabilizer_search",
                        lambda *a, **k: calls.append(a))
    out = tmp_path / target
    if target == "dir":
        out.mkdir()
    assert main(["stabilizer", "--q", "3", "--case", "c3", "--samples", "0",
                 "--out", str(out)]) == 3
    assert calls == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"cannot write {out}: ")


def test_stabilizer_c2_q8_runs(capsys):
    """GF(8^6) has 2^18 elements; the diagonal order is one gcd."""
    code, out = run(["stabilizer", "--q", "8", "--case", "c2", "--samples", "0"],
                    capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 513 == doc["predicted_order"] and doc["match"]


def test_reps_q2_with_lambda_file(tmp_path, capsys):
    path = tmp_path / "lams.json"
    path.write_text(json.dumps([[0, 0], [1, 0]]))   # lambda = 0 and 1
    code, out = run(["reps-q2", "--lambdas-file", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pairwise_inequivalent"]
    assert len(doc["members"]) == 5   # 3 fixed + 2 lambdas


def test_reps_q2_names_the_first_equivalent_pair(tmp_path, capsys):
    path = tmp_path / "lams.json"
    path.write_text(json.dumps([[1, 0], [0, 1], [1, 0]]))   # lambda = 1 twice
    assert main(["reps-q2", "--lambdas-file", str(path)]) == 2
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["members"][3] == doc["members"][5] == "lambda-[1, 0]"
    assert captured.err == (
        "members 3 (lambda-[1, 0]) and 5 (lambda-[1, 0]) are equivalent\n")


def test_out_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["count", "--q", "5", "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert {e["case"]: e["count"] for e in doc["cases"]} == {
        "c1": 1890000, "c3": 468000000}


# -- what a command computes ------------------------------------------------

@pytest.mark.parametrize("argv,code", [
    (["stabilizer", "--q", "7", "--case", "c3", "--samples", "0"], 2),
    (["build", "--q", "13", "--case", "c1", "--fermat"], 0),
    (["build", "--q", "7", "--case", "c3", "--fermat"], 0),
    (["build", "--q", "8", "--case", "c2", "--fermat"], 0),
    (["classify", "--q", "17"], 0),
], ids=["stabilizer_c3_q7", "build_c1_q13", "build_c3_q7", "build_c2_q8",
        "classify_q17"])
def test_only_fields_of_at_most_257_elements_have_tables(argv, code,
                                                         monkeypatch, capsys):
    """Every field the command builds has table lookups bound exactly when
    it has at most 257 elements, the three-cycle field GF(q^6) of a c2/c3
    build included.  Fresh field and embedding caches make the command
    build every field itself, and each one is recorded."""
    built = []

    def record(p, m, modulus):
        built.append(gf.Field(p, m, modulus))
        return built[-1]

    monkeypatch.setattr(gf, "_field_cache",
                        functools.lru_cache(maxsize=None)(record))
    monkeypatch.setattr(gf, "_embedding_cache", functools.lru_cache(
        maxsize=None)(gf._embedding_cache.__wrapped__))
    assert main(argv) == code
    capsys.readouterr()
    assert any(f.order > 257 for f in built)
    for f in built:
        assert ("mul" in vars(f)) == (f.order <= 257), f


_INT_LISTS = st.lists(st.integers(-2, 2) | st.booleans(), max_size=3)
_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | _INT_LISTS | _INT_LISTS.map(tuple),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=16)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_DOCS)
def test_json_writer_matches_json_dumps(doc, monkeypatch):
    """The writer's text is json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for tuples (json writes them as lists), bools inside int lists (True ==
    1, so [True] must not reuse the text cached for [1]), empty containers,
    non-ASCII strings and floats.  Three pieces per write make every
    document span several writes."""
    monkeypatch.setattr(cli, "_CHUNK", 3)
    parts = []
    cli._write_json(doc, parts.append)
    assert "".join(parts) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case,q", [("c2", 8), ("c2", 16), ("c3", 19)])
def test_json_writer_matches_json_dumps_on_stabilizer_reports(case, q):
    """The largest reports the CLI writes, 2.3 to 23.8 MB, full of repeated
    coefficient lists; each write carries a chunk, never a single token."""
    doc = stabilizer_json(stabilizer_search(case, q, samples=0))
    parts = []
    cli._write_json(doc, parts.append)
    text = "".join(parts)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert len(parts) * 1000 < len(text)


def test_json_writer_holds_a_fraction_of_its_output():
    """json.dumps holds the whole c2 q = 16 report, 23.8 MB, as one string
    and, with indent set, a list of all its pieces besides.  The writer
    holds one chunk and the cached text of each distinct int list: under
    a quarter of the output at its peak."""
    doc = stabilizer_json(stabilizer_search("c2", 16, samples=0))
    size = 0

    def count(text):
        nonlocal size
        size += len(text)

    tracemalloc.start()
    try:
        cli._write_json(doc, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 20_000_000
    assert peak < size / 4, peak / size


_STREAMED = [("c2", 4), ("c2", 8), ("c2", 16), ("c3", 3), ("c3", 5),
             ("c3", 7), ("c3", 19)]


@pytest.mark.parametrize("case,q", _STREAMED,
                         ids=[f"{case}_q{q}" for case, q in _STREAMED])
def test_stabilizer_stdout_is_json_dumps_of_the_whole_report(case, q, capsys):
    """The command writes each element's text from its packed diagonal as
    it goes; the bytes are those of json.dumps on the report built whole,
    with every element a Mat.to_json dict."""
    code, out = run(["stabilizer", "--q", str(q), "--case", case,
                     "--samples", "0"], capsys)
    doc = stabilizer_json(stabilizer_search(case, q, samples=0))
    assert code == (0 if doc["match"] else 2)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _joined_tsv(doc) -> str:
    return "\n".join(f"{key}\t{val}" for key, val in cli._flatten(doc)) + "\n"


def test_tsv_stabilizer_report_is_the_joined_lines(capsys):
    code, out = run(["stabilizer", "--q", "8", "--case", "c2", "--samples",
                     "0", "--format", "tsv"], capsys)
    assert code == 0
    assert out == _joined_tsv(stabilizer_json(stabilizer_search("c2", 8,
                                                                samples=0)))


def test_tsv_classify_report_is_the_joined_lines(monkeypatch, capsys):
    """Three lines per write, so the report spans many writes."""
    docs, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit",
                        lambda doc, cfg: emit(docs.append(doc) or doc, cfg))
    monkeypatch.setattr(cli, "_CHUNK", 3)
    code, out = run(["classify", "--q", "5", "--format", "tsv"], capsys)
    assert code == 0 and out.count("\n") > 10
    assert out == _joined_tsv(docs[0])


def test_stabilizer_command_holds_a_tenth_of_its_output(monkeypatch):
    """stabilizer --q 16 --case c2 writes 23.8 MB.  From the search to the
    last write, the command's traced peak stays under a tenth of that: the
    stars as packed ints, one element's text at a time."""
    size = 0

    class Sink:
        @staticmethod
        def write(text):
            nonlocal size
            size += len(text)

    monkeypatch.setattr(sys, "stdout", Sink)
    tracemalloc.start()
    try:
        assert main(["stabilizer", "--q", "16", "--case", "c2",
                     "--samples", "0"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 23_759_015
    assert peak < size / 10, peak / size
