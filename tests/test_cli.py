import json
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from capelli import cli
from capelli.identities import VerificationReport
from capelli.tableaux import all_partitions, enumerate_standard_tableaux


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_theorem_text(capsys):
    code, out = run(["verify", "theorem", "--shape", "2", "--m", "1", "--n", "1"], capsys)
    assert code == 0
    assert out.startswith("PASS")
    assert "theorem shape=2" in out


def test_verify_theorem_specific_tableaux(capsys):
    code, out = run(
        [
            "verify",
            "theorem",
            "--shape",
            "2,1",
            "--m",
            "2",
            "--n",
            "2",
            "--tableau",
            "[[1,2],[3]]",
            "--tableau2",
            "[[1,3],[2]]",
        ],
        capsys,
    )
    assert code == 0
    assert out.count("PASS") == 1


def test_verify_theorem_json(capsys):
    code, out = run(
        ["verify", "theorem", "--shape", "2", "--m", "1", "--n", "1", "--json"],
        capsys,
    )
    assert code == 0
    payloads = [json.loads(line) for line in out.splitlines()]
    assert len(payloads) == 1
    assert payloads[0]["outcome"] == "pass"
    assert set(payloads[0]) == {
        "case",
        "outcome",
        "lhs_terms",
        "rhs_terms",
        "first_diff",
        "millis",
    }


def test_verify_corollary(capsys):
    code, out = run(
        ["verify", "corollary", "--shape", "2,1", "--m", "2", "--n", "2"], capsys
    )
    assert code == 0
    assert "corollary-T-independence" in out


def test_verify_proof_steps(capsys):
    code, out = run(["verify", "proof-steps", "--shape", "2,1"], capsys)
    assert code == 0
    assert "branching" in out
    assert "jm-annihilation" in out


def test_verify_sweep(capsys):
    code, out = run(
        ["verify", "sweep", "--max-k", "2", "--max-m", "2", "--max-n", "2", "--json"],
        capsys,
    )
    assert code == 0
    payloads = [json.loads(line) for line in out.splitlines()]
    assert payloads
    assert all(p["outcome"] == "pass" for p in payloads)


def test_immanant(capsys):
    code, out = run(["immanant", "--shape", "2", "--m", "2"], capsys)
    assert code == 0
    assert "central" in out
    code, out = run(["immanant", "--shape", "2", "--m", "2", "--print-pbw"], capsys)
    assert code == 0
    assert "E[" in out


def test_the_immanant_tableau_is_the_first_standard_tableau():
    # immanant and eigenvalue build the row reading tableau directly; it is
    # the first of the enumeration, which they used to build in full
    for k in range(8):
        for shape in all_partitions(k):
            assert cli._row_reading(shape) == enumerate_standard_tableaux(shape)[0], shape


def test_eigenvalue(capsys):
    code, out = run(
        ["eigenvalue", "--shape", "1", "--m", "2", "--weights", "3,1"], capsys
    )
    assert code == 0
    assert out.strip().endswith("4")


def test_eigenvalue_json(capsys):
    code, out = run(
        ["eigenvalue", "--shape", "2", "--m", "2", "--weights", "3,1", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eigenvalue"] == "16"


def test_eigenvalue_checks_the_weight_count_before_building_the_immanant(
    monkeypatch, capsys
):
    # the k = 7 immanant takes seconds to build; a wrong weight count is
    # refused first, with the line hc_eigenvalue gives
    def built(*args):
        raise AssertionError("quantum_immanant called")

    monkeypatch.setattr(cli, "quantum_immanant", built)
    argv = ["eigenvalue", "--shape", "4,2,1", "--m", "3", "--weights", "1,2"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: expected 3 weights, got 2\n"


def test_tableaux_listing(capsys):
    code, out = run(["tableaux", "--shape", "2,2"], capsys)
    assert code == 0
    assert "2 standard tableaux" in out
    assert "[[1,2],[3,4]]" in out
    assert "[[1,3],[2,4]]" in out


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "capelli", "tableaux", "--shape", "2,1"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "2 standard tableaux of shape 2,1:"


def test_tableaux_json(capsys):
    code, out = run(["tableaux", "--shape", "2,1", "--json"], capsys)
    assert code == 0
    payloads = [json.loads(line) for line in out.splitlines()]
    assert payloads[0]["tableau"] == "[[1,2],[3]]"
    assert payloads[0]["contents"] == [0, 1, -1]


@pytest.mark.parametrize("shape", ["1200", ",".join(["1"] * 1200)], ids=["row", "column"])
def test_tableaux_of_a_long_row_or_column(shape, capsys):
    # the enumeration goes entry by entry without recursion, so a shape of
    # more cells than the recursion limit has its one tableau listed
    code, out = run(["tableaux", "--shape", shape, "--json"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1


def test_bad_input_returns_error(capsys):
    code = cli.main(["verify", "theorem", "--shape", "1,2", "--m", "1", "--n", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_tableau_shape_mismatch_returns_error(capsys):
    code = cli.main(
        [
            "verify",
            "theorem",
            "--shape",
            "2",
            "--m",
            "1",
            "--n",
            "1",
            "--tableau",
            "[[1,2],[3]]",
        ]
    )
    assert code == 2
    assert "not of shape" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "theorem", "--shape", "", "--m", "2", "--n", "2"], "at least one cell"),
        (["verify", "corollary", "--shape", "", "--m", "2", "--n", "2"], "at least one cell"),
        (["immanant", "--shape", "", "--m", "2"], "at least one cell"),
        (["eigenvalue", "--shape", "", "--m", "2", "--weights", "1,0"], "at least one cell"),
        (["verify", "theorem", "--shape", "2", "--m", "0", "--n", "2"], "m must be"),
        (["verify", "corollary", "--shape", "2", "--m", "0", "--n", "2"], "m must be"),
        (["immanant", "--shape", "2", "--m", "0"], "m must be"),
        (["verify", "theorem", "--shape", "2", "--m", "2", "--n", "0"], "n must be"),
        (["verify", "corollary", "--shape", "2", "--m", "2", "--n", "-1"], "n must be"),
        (["verify", "sweep", "--max-k", "0"], "max_k must be at least 1, got 0"),
        (["verify", "sweep", "--max-m", "0"], "max_m must be at least 1, got 0"),
        (["verify", "sweep", "--max-n", "-1"], "max_n must be at least 1, got -1"),
        (["verify", "theorem", "--shape", "1", "--m", "1", "--n", "1", "--tableau", "5"],
         "JSON list of lists"),
        (["verify", "theorem", "--shape", "1", "--m", "1", "--n", "1", "--tableau", "[1]"],
         "JSON list of lists"),
        (["verify", "theorem", "--shape", "2", "--m", "1", "--n", "1",
          "--tableau", "[[1.5,2]]"], "expected an integer, got 1.5"),
        (["verify", "theorem", "--shape", "2", "--m", "1", "--n", "1",
          "--tableau", "[[true,2]]"], "expected an integer, got True"),
        (["eigenvalue", "--shape", "2,1", "--m", "2", "--weights", "1/0,1"],
         "weight '1/0' has a zero denominator"),
        (["tableaux", "--shape", "2,,1"], "empty part in shape '2,,1'"),
        (["tableaux", "--shape", "2,1,"], "empty part in shape '2,1,'"),
        (["verify", "theorem", "--shape", ",2", "--m", "2", "--n", "2"],
         "empty part in shape ',2'"),
        (["eigenvalue", "--shape", "2,1", "--m", "2", "--weights", "1e999999999,1"],
         "weight '1e999999999': use an integer, p/q or a decimal, no exponent"),
        (["verify", "theorem", "--shape", "1", "--m", "1", "--n", "1",
          "--tableau", "[" * 5000 + "]" * 5000], "tableau nested too deeply"),
    ],
)
def test_degenerate_input_returns_error(argv, message, capsys):
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, value",
    [("3", Fraction(3)), ("-1", Fraction(-1)), ("1/2", Fraction(1, 2)), ("0.5", Fraction(1, 2))],
)
def test_weights_without_an_exponent_parse(text, value):
    assert cli._weight(text) == value


def test_running_out_of_memory_returns_error():
    # Catalan(16) tableaux do not fit in a 200 MB address space
    def cap():
        limit = 200 * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "capelli", "tableaux", "--shape", "16,16", "--json"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap,
    )
    assert done.returncode == 2
    assert done.stderr == "error: out of memory\n"


def test_tableau2_without_tableau_returns_error(capsys):
    argv = ["verify", "theorem", "--shape", "2", "--m", "1", "--n", "1"]
    assert cli.main(argv + ["--tableau2", "[[1,2]]"]) == 2
    assert "tableau2 needs tableau" in capsys.readouterr().err


def test_failing_report_sets_exit_code(capsys, monkeypatch):
    fake = VerificationReport(
        case="fabricated", outcome=False, lhs_terms=1, rhs_terms=2,
        first_diff="at ((1,),(1,)): lhs != rhs", millis=0.1,
    )
    monkeypatch.setattr(cli, "verify_theorem", lambda *a, **k: [fake])
    code, out = run(["verify", "theorem", "--shape", "2", "--m", "1", "--n", "1"], capsys)
    assert code == 1
    assert out.startswith("FAIL")
    assert "first diff" in out


def test_a_failed_certificate_is_an_error_line(capsys, monkeypatch):
    # the rows of s_2 of shape 2,1 swapped break s_2^2 = 1: a check failed
    # on valid input, so one error line and exit code 1, with no report
    import capelli.tableaux as tableaux

    generator = tableaux._generator_columns

    def patched(parts, r):
        columns = generator(parts, r)
        if (parts, r) != ((2, 1), 2):
            return columns
        return tuple({1 - i: c for i, c in column.items()} for column in columns)

    memos = (generator, tableaux._certified, tableaux._seminormal_cached, tableaux._psi_cached)
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(tableaux, "_generator_columns", patched)
    try:
        argv = ["verify", "theorem", "--shape", "2,1", "--m", "2", "--n", "2", "--json"]
        assert cli.main(argv) == 1
    finally:
        monkeypatch.undo()
        for memo in memos:
            memo.cache_clear()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the generators of shape 2,1 fail the relation (2, 2)\n"


def test_sweep_json_matches_golden_reports(capsys):
    # every report of a small sweep, pinned with the timing field removed:
    # the reports of the m <= 3, n <= 3 golden file whose case has m, n <= 2
    # (a proof-step case has neither), in the same order
    golden = Path(__file__).parent / "data" / "sweep_k3_m3_n3.jsonl"
    expected = [
        report
        for report in map(json.loads, golden.read_text().splitlines())
        if all(int(v) <= 2 for v in re.findall(r"\b[mn]=(\d+)", report["case"]))
    ]
    code, out = run(
        ["verify", "sweep", "--max-k", "3", "--max-m", "2", "--max-n", "2", "--json"],
        capsys,
    )
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    for report in reports:
        del report["millis"]
    assert len(reports) == len(expected) == 104
    assert reports == expected


def test_sweep_to_m3_json_matches_golden_reports(capsys):
    # the m = 3 cases with n < m go through ev_n on a kernel that is not 0
    golden = Path(__file__).parent / "data" / "sweep_k3_m3_n3.jsonl"
    code, out = run(
        ["verify", "sweep", "--max-k", "3", "--max-m", "3", "--max-n", "3", "--json"],
        capsys,
    )
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    for report in reports:
        del report["millis"]
    assert len(reports) == 214
    assert "".join(json.dumps(report) + "\n" for report in reports) == golden.read_text()


def test_immanant_pbw_json_matches_golden(capsys):
    # every k = 4 quantum immanant at m = 3, printed in PBW form
    golden = Path(__file__).parent / "data" / "immanant_k4_m3_pbw.jsonl"
    out = []
    for shape in ("4", "3,1", "2,2", "2,1,1", "1,1,1,1"):
        code, text = run(["immanant", "--shape", shape, "--m", "3", "--print-pbw", "--json"], capsys)
        assert code == 0
        out.append(text)
    assert "".join(out) == golden.read_text()
