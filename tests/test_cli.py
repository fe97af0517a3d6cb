"""End-to-end tests for the command line interface (in-process via run)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from macdpoly.cli import run
from macdpoly.identities import VerificationReport

import macdpoly.cli

ROOT = Path(__file__).resolve().parent.parent


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_text_output(capsys, tmp_path):
    code, out, err = invoke(
        capsys, "poly", "--n", "2", "--k", "1", "--lambda", "2,0",
        "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P[2,0]  n=2 k=1"
    # Schur polynomial for k = 1: both orbit-sum coefficients are 1
    assert "  m[2,0]: 1" in lines
    assert "  m[0,0]: 1" in lines
    assert err == ""


def test_poly_json_output(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "poly", "--n", "2", "--k", "2", "--lambda", "2,0",
        "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["k"] == 2
    assert doc["lambda"] == "2,0"
    by_mu = {rec["mu"]: rec["value"] for rec in doc["coeffs"]}
    assert by_mu["2,0"] == "1"
    assert by_mu["0,0"] == "(1 + 2*q^(2) + 1*q^(4))/(1 + 1*q^(2) + 1*q^(4))"


def test_eval_constant_polynomial(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "eval", "--n", "2", "--k", "2", "--lambda", "0,0",
        "--mu", "3,0", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.strip() == "1"


def test_eval_json_round_trip(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "eval", "--n", "2", "--k", "1", "--lambda", "1,0",
        "--mu", "0,0", "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    # P_(1,0) at k = 1 is the orbit sum of (1,0); at q^(2 rho) it is q + 1/q
    assert doc["value"] == "1*q^(-1) + 1*q^(1)"


def test_verify_passing_identity(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "verify", "norm", "--n", "2", "--k", "2", "--lambda", "2,0",
        "--cache-dir", str(tmp_path))
    assert code == 0
    assert "identity: norm" in out
    assert "equal: yes" in out


def test_verify_missing_parameter_is_input_error(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "verify", "symmetry", "--n", "2", "--k", "2",
        "--lambda", "2,0", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "error: identity 'symmetry' requires parameter 'mu'" in out


def test_verify_error_report_params_are_ints(capsys, tmp_path):
    # n and k are ints in error reports, as in success reports
    code, out, _ = invoke(
        capsys, "verify", "symmetry", "--n", "2", "--k", "1", "--lambda", "1,0",
        "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "identity 'symmetry' requires parameter 'mu'"
    assert doc["params"] == {"n": 2, "k": 1, "lambda": "1,0"}


def test_verify_failed_identity_exits_one(capsys, tmp_path, monkeypatch):
    # every shipped identity passes, so fake a failing report to pin the
    # exit-code contract
    def fake_verify(identity, params, ctx):
        return VerificationReport(
            identity=identity, params={"n": ctx.n, "k": ctx.k},
            lhs="1", rhs="2", equal=False)

    monkeypatch.setattr(macdpoly.cli, "verify", fake_verify)
    code, out, _ = invoke(
        capsys, "verify", "norm", "--n", "2", "--k", "1", "--lambda", "1,0",
        "--cache-dir", str(tmp_path))
    assert code == 1
    assert "equal: no" in out


def test_grid_all_pass(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "grid", "--n", "2", "--k", "1", "--max-size", "2",
        "--cache-dir", str(tmp_path))
    assert code == 0
    summary = out.splitlines()[-1]
    assert summary.startswith("checked ")
    assert summary.endswith("passed, 0 failed")
    assert "size-2 grid" in summary


def test_grid_json_deterministic_across_cache_states(capsys, tmp_path):
    argv = ("grid", "--n", "2", "--k", "2", "--max-size", "2",
            "--format", "json", "--cache-dir", str(tmp_path))
    code_cold, out_cold, _ = invoke(capsys, *argv)
    # second run reads the cache file written by the first
    code_warm, out_warm, _ = invoke(capsys, *argv)
    assert code_cold == code_warm == 0
    assert out_cold == out_warm
    doc = json.loads(out_cold)
    assert doc["failed"] == 0
    assert doc["total"] == doc["passed"] == len(doc["reports"])


def test_table_output(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "table", "--n", "2", "--k", "2", "--mu", "2,0", "--r", "1",
        "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Pieri terms for mu=2,0, r=1  n=2 k=2"
    assert any(line.startswith("  nu=") for line in lines[1:])
    # the dominant-direction coefficient is always 1
    assert "  nu=1,0: 1" in lines


def test_cache_dir_flag_creates_named_file(capsys, tmp_path):
    cache_dir = tmp_path / "flagged"
    invoke(capsys, "poly", "--n", "2", "--k", "1", "--lambda", "1,0",
           "--cache-dir", str(cache_dir))
    cache_file = cache_dir / "macd-n2-k1.json"
    assert cache_file.is_file()
    doc = json.loads(cache_file.read_text())
    assert doc["n"] == 2 and doc["k"] == 1
    assert any(entry["lambda"] == "1,0" for entry in doc["entries"])


def test_cache_env_variable_used_when_no_flag(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("MACD_CACHE_DIR", str(env_dir))
    invoke(capsys, "poly", "--n", "2", "--k", "1", "--lambda", "1,0")
    assert (env_dir / "macd-n2-k1.json").is_file()


def test_cache_flag_wins_over_env(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("MACD_CACHE_DIR", str(env_dir))
    invoke(capsys, "poly", "--n", "2", "--k", "1", "--lambda", "1,0",
           "--cache-dir", str(flag_dir))
    assert (flag_dir / "macd-n2-k1.json").is_file()
    assert not env_dir.exists()


def test_cache_default_directory(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("MACD_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    invoke(capsys, "poly", "--n", "2", "--k", "1", "--lambda", "1,0")
    assert (tmp_path / ".macd-cache" / "macd-n2-k1.json").is_file()


def test_corrupt_cache_warns_and_recomputes(capsys, tmp_path):
    cache_file = tmp_path / "macd-n2-k1.json"
    cache_file.write_text("{ not json at all")
    code, out, err = invoke(
        capsys, "poly", "--n", "2", "--k", "1", "--lambda", "2,0",
        "--cache-dir", str(tmp_path))
    assert code == 0
    assert "P[2,0]" in out
    assert "warning: ignoring cache file" in err
    # the bad file has been replaced by a valid one
    doc = json.loads(cache_file.read_text())
    assert doc["n"] == 2


def test_wrong_context_cache_warns(capsys, tmp_path):
    # prime a k=1 cache, then point a k=2 run at the same file path
    invoke(capsys, "poly", "--n", "2", "--k", "1", "--lambda", "1,0",
           "--cache-dir", str(tmp_path))
    (tmp_path / "macd-n2-k2.json").write_text(
        (tmp_path / "macd-n2-k1.json").read_text())
    code, _, err = invoke(
        capsys, "poly", "--n", "2", "--k", "2", "--lambda", "1,0",
        "--cache-dir", str(tmp_path))
    assert code == 0
    assert "warning: ignoring cache file" in err


def test_invalid_rank_exits_two(capsys, tmp_path):
    code, _, err = invoke(
        capsys, "poly", "--n", "1", "--k", "1", "--lambda", "0",
        "--cache-dir", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")


def test_non_dominant_weight_exits_two(capsys, tmp_path):
    code, _, err = invoke(
        capsys, "poly", "--n", "2", "--k", "1", "--lambda", "1,2",
        "--cache-dir", str(tmp_path))
    assert code == 2
    assert "error: " in err


def test_malformed_weight_exits_two(capsys, tmp_path):
    code, _, err = invoke(
        capsys, "eval", "--n", "2", "--k", "1", "--lambda", "one,0",
        "--mu", "0,0", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "malformed weight" in err


def test_missing_subcommand_exits_two(capsys):
    code, _, err = invoke(capsys)
    assert code == 2
    assert "usage:" in err


def test_module_entry_point(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "macdpoly", "eval", "--n", "2", "--k", "1",
         "--lambda", "0,0", "--mu", "0,0", "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_cache_entry_without_coeffs_warns_and_recomputes(capsys, tmp_path):
    (tmp_path / "macd-n2-k2.json").write_text(
        json.dumps({"n": 2, "k": 2, "entries": [{"lambda": "2,0"}]}))
    code, out, err = invoke(
        capsys, "verify", "norm", "--n", "2", "--k", "2", "--lambda", "2,0",
        "--cache-dir", str(tmp_path))
    assert code == 0
    assert "equal: yes" in out
    assert "warning: ignoring cache file" in err


def test_poisoned_cache_entry_warns_and_rebuilds(capsys, tmp_path):
    invoke(capsys, "poly", "--n", "2", "--k", "2", "--lambda", "2,0",
           "--cache-dir", str(tmp_path))
    cache_file = tmp_path / "macd-n2-k2.json"
    doc = json.loads(cache_file.read_text())
    for entry in doc["entries"]:
        if entry["lambda"] == "2,0":
            for rec in entry["coeffs"]:
                if rec["mu"] == "0,0":
                    rec["value"] = "3"
    cache_file.write_text(json.dumps(doc))
    code, out, err = invoke(
        capsys, "verify", "norm", "--n", "2", "--k", "2", "--lambda", "2,0",
        "--cache-dir", str(tmp_path))
    assert code == 0
    assert "equal: yes" in out
    assert "entry 2,0 failed its orthogonality check" in err
    # the rebuilt value replaced the poisoned one on disk
    code, _, err = invoke(
        capsys, "verify", "norm", "--n", "2", "--k", "2", "--lambda", "2,0",
        "--cache-dir", str(tmp_path))
    assert code == 0 and err == ""


# sha256 of stdout for `python -m macdpoly <argv> --format json`, recorded
# before the gcd-first scalar addition; any change to the arithmetic must
# leave these bytes alone.
GOLDEN_JSON_DIGESTS = [
    (("grid", "--n", "2", "--k", "3", "--max-size", "3"),
     "699037664d26a85520272e012eaa5fd1124ba4ed7ba65b704670c5491d5df866"),
    (("grid", "--n", "3", "--k", "2", "--max-size", "3"),
     "62718ea69e9c88fef3ceb0f0abab7a2061484d92b7da5e8fc7c6a45e9f3ba320"),
    (("grid", "--n", "3", "--k", "3", "--max-size", "2"),
     "ba66b91a601060d00cf62e029f428f1fe9f4a52cdceff863167074688b31fdd7"),
    (("table", "--n", "3", "--k", "2", "--mu", "2,1,0", "--r", "1"),
     "f8e5e6f87975b0df622e21ee386bb3f8f23a73076fedfd2b3a592de0a086d923"),
    (("table", "--n", "3", "--k", "3", "--mu", "2,0,0", "--r", "2"),
     "3106fa63cd6805367df3ab85218bbd2a1128168101af6a6114ec620c99d085c1"),
    (("table", "--n", "4", "--k", "2", "--mu", "1,1,0,0", "--r", "2"),
     "34ea691747f561de935173cf11c7d355e4c2b20f01c8b2265c3dcf880f091076"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_JSON_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_JSON_DIGESTS])
def test_json_output_matches_golden_digest(capsys, tmp_path, argv, expected):
    code, out, _ = invoke(capsys, *argv, "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected
