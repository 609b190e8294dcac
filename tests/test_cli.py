import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hermitia
from hermitia import cli, gf
from hermitia.cli import main
from hermitia.matff import Mat
from matrices import random_hermitian_invertible


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


def run_process(argv, cwd=None, **env):
    """Run the CLI in a fresh interpreter, as the installed script would."""
    src = str(Path(hermitia.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hermitia.cli", *argv],
                          capture_output=True, text=True, cwd=cwd,
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
])
def test_invalid_input_exits_3_with_one_line_reason(argv, tmp_path):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    proc = run_process(argv, cwd=tmp_path)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].strip()
    assert "Traceback" not in proc.stderr


def test_exhausted_build_exits_4_naming_the_field_bound():
    """Every extension past GF(64^2) exceeds the search's field-size bound,
    so the ladder tries one field; the reason names both bounds."""
    proc = run_process(["build", "--q", "64", "--case", "c2", "--fermat"])
    assert proc.returncode == 4
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert "m <= 6, field size <= 2^18; field orders tried: [4096]" in lines[0]


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


def test_out_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["count", "--q", "5", "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert {e["case"]: e["count"] for e in doc["cases"]} == {
        "c1": 1890000, "c3": 468000000}
