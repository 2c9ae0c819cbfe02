import json

import pytest

from ctdi.cli import main


def run(args):
    return main(args)


def test_usage_errors_exit_2(tmp_path):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0
    missing = tmp_path / "nope.cfg"
    assert run(["di-discrete", "--config", str(missing)]) == 2


def test_config_file_validation(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("writes_csv=yes\n")
    assert run(["di-discrete", "--config", str(bad_key), "--out", str(tmp_path)]) == 2
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("instances 40\n")
    assert run(["di-discrete", "--config", str(malformed), "--out", str(tmp_path)]) == 2
    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("instances=abc\n")
    assert run(["di-discrete", "--config", str(bad_value), "--out", str(tmp_path)]) == 2


def test_gaussian_duncan_small_run_and_reproducibility(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["gaussian-duncan", "--t-values", "0.2", "--dt", "0.01",
            "--replicas", "400", "--seed", "5"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    csv1 = (out1 / "gaussian_duncan.csv").read_bytes()
    csv2 = (out2 / "gaussian_duncan.csv").read_bytes()
    assert csv1 == csv2
    lines = csv1.decode().splitlines()
    assert lines[0] == "T,mc_di,stderr,closed_form,abs_error"
    assert len(lines) == 2
    manifest = json.loads((out1 / "gaussian_duncan_manifest.json").read_text())
    assert manifest["command"] == "gaussian-duncan"
    assert manifest["config"]["replicas"] == 400
    assert manifest["config"]["seed"] == 5
    assert manifest["wall_clock_seconds"] >= 0.0


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nt_values=0.5\ndt=0.01\nreplicas=200\n")
    assert run(["gaussian-duncan", "--config", str(cfg), "--t-values", "0.2",
                "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "gaussian_duncan.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.2,")
    manifest = json.loads((tmp_path / "gaussian_duncan_manifest.json").read_text())
    assert manifest["config"]["t_values"] == [0.2]
    assert manifest["config"]["replicas"] == 200


def test_poisson_rate_small_run(tmp_path):
    assert run(["poisson-rate", "--p-values", "0.5", "--horizon", "400",
                "--replicas", "3", "--seed", "3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "poisson_rate.csv").read_text().splitlines()
    assert lines[0] == "p,analytic,mc,stderr"
    assert len(lines) == 2


def test_poisson_rate_degenerate_weight_endpoints(tmp_path):
    assert run(["poisson-rate", "--p-values", "0,1", "--horizon", "200",
                "--replicas", "2", "--seed", "4", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "poisson_rate.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "0" and lines[1].split(",")[2] == "0"
    assert lines[2].split(",")[1] == "0" and lines[2].split(",")[2] == "0"


def test_poisson_capacity_run(tmp_path):
    assert run(["poisson-capacity", "--lambda2-values", "0,0.5,1",
                "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "poisson_capacity.csv").read_text().splitlines()
    assert lines[0] == "lambda2,p_star,rate_star"
    assert len(lines) == 4
    assert lines[1].split(",")[2] == "0"
    assert lines[3].split(",")[2] == "0"
    assert float(lines[2].split(",")[2]) > 0.0


def test_internal_numerical_failure_exits_3_without_traceback(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("Gauss-Legendre panels did not reach tol=1e-11")

    monkeypatch.setattr("ctdi.cli.capacity_curve", fail)
    assert run(["poisson-capacity", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal numerical failure: Gauss-Legendre panels did not reach tol=1e-11\n"
    assert "Traceback" not in err


def test_poisson_capacity_rejects_replicas_knob(tmp_path):
    assert run(["poisson-capacity", "--replicas", "5", "--out", str(tmp_path)]) == 2


def test_di_discrete_run_and_replica_alias(tmp_path, capsys):
    assert run(["di-discrete", "--replicas", "40", "--chains", "8",
                "--seed", "1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    report = (tmp_path / "di_discrete_report.txt").read_text()
    assert "conservation: 40 instances" in report
    assert not (tmp_path / "di_discrete_violation.json").exists()
    manifest = json.loads((tmp_path / "di_discrete_manifest.json").read_text())
    assert manifest["config"]["instances"] == 40


def test_jobs_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("CTDI_JOBS", "3")
    assert run(["di-discrete", "--replicas", "10", "--chains", "2",
                "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "di_discrete_manifest.json").read_text())
    assert manifest["config"]["jobs"] == 3


def test_module_entrypoint_help():
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "ctdi.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gaussian-duncan" in proc.stdout
