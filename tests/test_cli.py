import json
import tracemalloc

import numpy as np
import pytest

from conftest import count_streams
from ctdi import cli, gaussian, partition_di
from ctdi.cli import main
from ctdi.core import RngSpec
from ctdi.gaussian import constant_signal_model, directed_info_gaussian_mc
from ctdi.partition_di import random_joint, random_no_feedback_joint


def run(args):
    return main(args)


def test_usage_errors_exit_2(tmp_path, capsys, monkeypatch):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0
    missing = tmp_path / "nope.cfg"
    assert run(["di-discrete", "--config", str(missing)]) == 2
    assert run(["di-discrete", "--jobs", "0", "--out", str(tmp_path)]) == 2
    assert run(["di-discrete", "--jobs", "-3", "--out", str(tmp_path)]) == 2
    assert run(["di-discrete", "--instances", "-3", "--out", str(tmp_path)]) == 2
    assert run(["di-discrete", "--chains", "0", "--out", str(tmp_path)]) == 2
    for replicas in ("0", "-4"):
        assert run(["gaussian-duncan", "--replicas", replicas, "--out", str(tmp_path)]) == 2
        assert run(["poisson-rate", "--replicas", replicas, "--out", str(tmp_path)]) == 2
    manifest = json.loads((tmp_path / "gaussian_duncan_manifest.json").read_text())
    assert manifest["exit_status"] == 2
    for tol in ("0", "-1", "nan"):
        assert run(["poisson-capacity", "--tol", tol, "--out", str(tmp_path)]) == 2
    # an empty list or no replicas would run nothing and pass
    for command, manifest_name, args in (
            ("gaussian-duncan", "gaussian_duncan", ["--t-values", ""]),
            ("poisson-capacity", "poisson_capacity", ["--lambda2-values", ""]),
            ("poisson-rate", "poisson_rate", ["--p-values", ""]),
            ("gaussian-duncan", "gaussian_duncan", ["--t-values", "0", "--replicas", "0"]),
            # non-finite grids and levels are usage errors, not failed checks or
            # numerical breakdowns
            ("gaussian-duncan", "gaussian_duncan", ["--t-values", "inf"]),
            ("gaussian-duncan", "gaussian_duncan", ["--t-values", "1", "--dt", "inf"]),
            # a subnormal step is refused as Poisson levels below the smallest
            # normal float are, not left to fail as a non-finite control
            ("gaussian-duncan", "gaussian_duncan", ["--t-values", "5e-324", "--dt", "5e-324"]),
            ("gaussian-duncan", "gaussian_duncan", ["--t-values", "1e-310", "--dt", "1e-310"]),
            ("poisson-rate", "poisson_rate", ["--horizon", "inf"]),
            ("poisson-capacity", "poisson_capacity", ["--lambda2-values", "inf"]),
            ("poisson-capacity", "poisson_capacity", ["--lambda1", "inf", "--lambda2-values", "0"]),
            ("poisson-rate", "poisson_rate", ["--lambda2", "inf"])):
        (tmp_path / f"{manifest_name}_manifest.json").unlink(missing_ok=True)
        assert run([command, *args, "--out", str(tmp_path)]) == 2
        manifest = json.loads((tmp_path / f"{manifest_name}_manifest.json").read_text())
        assert manifest["exit_status"] == 2
    # a bad horizon anywhere in the list fails before any replica is drawn
    streams = count_streams(monkeypatch)
    for args in (["--t-values", "1,-1"], ["--t-values", "2,0.0005", "--dt", "1e-3"]):
        out = tmp_path / "horizons"
        assert run(["gaussian-duncan", *args, "--replicas", "5", "--out", str(out)]) == 2
        assert streams == [0]
        assert not (out / "gaussian_duncan.csv").exists()
        assert json.loads((out / "gaussian_duncan_manifest.json").read_text())["exit_status"] == 2
    # ... and so does a bad weight, an over-cap horizon or a horizon inside the
    # burn-in anywhere in the poisson-rate list
    for args in (["--p-values", "0.5,1.5"],
                 ["--p-values", "0.9,0.1", "--horizon", "7e5"],
                 ["--p-values", "0,0.5", "--horizon", "7"]):
        out = tmp_path / "weights"
        assert run(["poisson-rate", *args, "--replicas", "3", "--out", str(out)]) == 2
        assert streams == [0]
        assert not (out / "poisson_rate.csv").exists()
        assert json.loads((out / "poisson_rate_manifest.json").read_text())["exit_status"] == 2
    # ... and so do more replicas than one entropy word of a stream can index
    capsys.readouterr()
    for command in ("gaussian-duncan", "poisson-rate"):
        out = tmp_path / "many"
        assert run([command, "--replicas", str(2**32 + 1), "--out", str(out)]) == 2
        assert "replicas must be at most 2**32" in capsys.readouterr().err
        assert streams == [0]
    # Poisson horizons that expect more events than the cap fail before a
    # trajectory is drawn
    capsys.readouterr()
    for args in (["--horizon", "1e9"], ["--lambda1", "1e7", "--lambda2", "2e7", "--horizon", "50"]):
        (tmp_path / "poisson_rate_manifest.json").unlink(missing_ok=True)
        tracemalloc.start()
        try:
            status = run(["poisson-rate", *args, "--replicas", "1", "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 2
        err = capsys.readouterr().err
        assert "horizon" in err and "event cap 1000000" in err
        assert peak < 10 * 2**20
        assert json.loads((tmp_path / "poisson_rate_manifest.json").read_text())["exit_status"] == 2
    assert streams == [0]
    # random joints over the enumeration cap fail before they are drawn
    assert run(["di-discrete", "--max-n", "9", "--out", str(tmp_path)]) == 2
    # ... whatever the seed would draw: the largest joint the sizes allow is
    # checked, n = 4 included, which the chains suite always draws
    capsys.readouterr()
    for args in (["--max-n", "5", "--max-alphabet", "5", "--instances", "30", "--chains", "2"],
                 ["--max-n", "1", "--max-alphabet", "40"],
                 ["--max-n", "1000000000000"]):
        (tmp_path / "di_discrete_manifest.json").unlink(missing_ok=True)
        assert run(["di-discrete", *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "max_alphabet" in err and "max_n" in err and "enumeration cap" in err
        assert json.loads((tmp_path / "di_discrete_manifest.json").read_text())["exit_status"] == 2
    assert streams == [0]
    # the largest sizes the benchmark runs stay under the cap
    assert run(["di-discrete", "--max-n", "5", "--instances", "2", "--chains", "1",
                "--out", str(tmp_path)]) == 0
    # sizes no joint can have are named by their key, not by numpy
    capsys.readouterr()
    for flag, value, key in (("--max-n", "0", "max_n"), ("--max-alphabet", "1", "max_alphabet"),
                             ("--max-alphabet", "0", "max_alphabet")):
        assert run(["di-discrete", flag, value, "--out", str(tmp_path)]) == 2
        assert f"error: {key} must be at least" in capsys.readouterr().err


def test_gaussian_grid_over_the_step_cap_fails_before_allocating(tmp_path, capsys):
    # 1e12 steps would ask numpy for terabytes
    tracemalloc.start()
    try:
        status = run(["gaussian-duncan", "--t-values", "1", "--dt", "1e-12", "--replicas", "1",
                      "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert "step cap 1000000" in capsys.readouterr().err
    assert peak < 10 * 2**20
    manifest = json.loads((tmp_path / "gaussian_duncan_manifest.json").read_text())
    assert manifest["exit_status"] == 2


def test_gaussian_duncan_draws_each_replica_stream_once(tmp_path, monkeypatch):
    # the horizons share replica r's stream, drawn once at the longest horizon
    written = []
    real_write = cli.write_csv

    def recording(path, header, rows):
        written.extend(rows)
        real_write(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", recording)
    streams = count_streams(monkeypatch)
    assert run(["gaussian-duncan", "--t-values", "0.5,1,0", "--replicas", "37",
                "--out", str(tmp_path)]) == 0
    assert streams == [37]
    monkeypatch.undo()
    alone = [directed_info_gaussian_mc(constant_signal_model(t, 1e-3), RngSpec(0), 37)
             for t in (0.5, 1.0)]
    assert [repr(row[:3]) for row in written] == [
        repr((0.5, alone[0].value, alone[0].stderr)), repr((1.0, alone[1].value, alone[1].stderr)),
        repr((0.0, 0.0, 0.0))]


def test_gaussian_duncan_zero_horizon_is_the_sweeps_empty_prefix(tmp_path, monkeypatch):
    # a zero horizon is estimated like any other: 0 on every replica
    streams = count_streams(monkeypatch)
    assert run(["gaussian-duncan", "--t-values", "0,0", "--replicas", "3",
                "--out", str(tmp_path / "a")]) == 0
    assert streams == [3]
    lines = (tmp_path / "a" / "gaussian_duncan.csv").read_text().splitlines()
    assert lines[1:] == ["0,0,0,0,0"] * 2
    # one replica has no spread, so its stderr is nan, as in every estimate
    assert run(["gaussian-duncan", "--t-values", "0", "--replicas", "1",
                "--out", str(tmp_path / "b")]) == 0
    lines = (tmp_path / "b" / "gaussian_duncan.csv").read_text().splitlines()
    assert lines[1:] == ["0,0,nan,0,0"]


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
    args = ["gaussian-duncan", "--t-values", "0,0.2", "--dt", "0.01",
            "--replicas", "400", "--seed", "5"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    csv1 = (out1 / "gaussian_duncan.csv").read_bytes()
    csv2 = (out2 / "gaussian_duncan.csv").read_bytes()
    assert csv1 == csv2
    lines = csv1.decode().splitlines()
    assert lines[0] == "T,mc_di,stderr,closed_form,abs_error"
    assert len(lines) == 3
    # numbers print to 12 significant digits; 0.5 ln 1.2 = 0.09116077839697...
    assert lines[1] == "0,0,0,0,0"
    assert lines[2].split(",")[::3] == ["0.2", "0.091160778397"]
    manifest = json.loads((out1 / "gaussian_duncan_manifest.json").read_text())
    assert manifest["command"] == "gaussian-duncan"
    assert manifest["config"]["replicas"] == 400
    assert manifest["config"]["seed"] == 5
    assert manifest["wall_clock_seconds"] >= 0.0
    assert manifest["exit_status"] == 0
    assert "exit_reason" not in manifest


def test_csvs_do_not_depend_on_the_job_count(tmp_path):
    # the seed contract at the CLI, with the fitted controls engaged (48 and
    # 64 replicas): the same seed writes the same bytes at --jobs 1 and 2
    for args, name in ((["poisson-rate", "--horizon", "50", "--replicas", "48"], "poisson_rate.csv"),
                       (["gaussian-duncan", "--t-values", "0.2,0.5", "--dt", "0.01",
                         "--replicas", "64"], "gaussian_duncan.csv")):
        csvs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"{name}-{jobs}"
            assert run(args + ["--seed", "3", "--jobs", jobs, "--out", str(out)]) == 0
            csvs.append((out / name).read_bytes())
        assert csvs[0] == csvs[1]


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


def test_poisson_rate_analytic_column_is_one_batched_call(tmp_path, monkeypatch, capsys):
    # one binary_rate call over every weight, each rate what it is alone; a
    # weight outside [0, 1] is refused before any replica runs
    calls = []
    batched = cli.binary_rate
    monkeypatch.setattr(cli, "binary_rate", lambda p, *levels: calls.append(list(p)) or batched(p, *levels))
    assert run(["poisson-rate", "--p-values", "0.2,0.5,0.7", "--horizon", "50",
                "--replicas", "2", "--out", str(tmp_path / "ok")]) == 0
    assert calls == [[0.2, 0.5, 0.7]]
    rows = (tmp_path / "ok" / "poisson_rate.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [f"{batched(p, 1.0, 2.0):.12g}" for p in (0.2, 0.5, 0.7)]
    streams = count_streams(monkeypatch)
    for weights in ("0.5,1.5", "nan,0.5", "-0.1"):
        out = tmp_path / "bad"
        capsys.readouterr()
        assert run(["poisson-rate", "--p-values", weights, "--out", str(out)]) == 2
        assert "error: p must lie in [0, 1]" in capsys.readouterr().err
        assert streams == [0]
        assert not (out / "poisson_rate.csv").exists()


def test_poisson_rate_degenerate_weight_endpoints(tmp_path):
    assert run(["poisson-rate", "--p-values", "0,1", "--horizon", "200",
                "--replicas", "2", "--seed", "4", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "poisson_rate.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "0" and lines[1].split(",")[2] == "0"
    assert lines[2].split(",")[1] == "0" and lines[2].split(",")[2] == "0"
    # from 32 replicas on the controls are fitted, and the endpoints still
    # read exactly 0 with a stderr of exactly 0
    out = tmp_path / "fitted"
    assert run(["poisson-rate", "--p-values", "0,0.5,1", "--horizon", "50",
                "--replicas", "48", "--seed", "3", "--out", str(out)]) == 0
    lines = (out / "poisson_rate.csv").read_text().splitlines()
    assert lines[1].split(",")[2:] == ["0", "0"]
    assert lines[3].split(",")[2:] == ["0", "0"]


def test_poisson_capacity_run(tmp_path):
    assert run(["poisson-capacity", "--lambda2-values", "0,0.5,1,-0.0",
                "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "poisson_capacity.csv").read_text().splitlines()
    assert lines[0] == "lambda2,p_star,rate_star,q_star"
    assert len(lines) == 5
    # -0.0 is the silent level too, written as 0
    assert lines[4] == lines[1] == "0,1,0,0"
    assert lines[1].split(",")[2] == "0"
    assert lines[3].split(",")[2] == "0"
    assert float(lines[2].split(",")[2]) > 0.0


def test_poisson_rate_level_guards(tmp_path, monkeypatch, capsys):
    # levels too far apart for the rate quadrature, and a level whose mean
    # wait is below the float spacing of the epochs near the horizon, are
    # usage errors found before any replica runs
    streams = count_streams(monkeypatch)
    for levels, named in ((["--lambda1", "1e-300", "--lambda2", "1e10"],
                           ("lambda1=1e-300", "lambda2=1e+10")),
                          (["--lambda2", "1e20"], ("levels 1, 1e+20", "horizon 50")),
                          (["--lambda1", "nan"], ("finite", "lambda1=nan")),
                          (["--lambda2", "inf"], ("finite", "lambda2=inf"))):
        out = tmp_path / levels[-1]
        assert run(["poisson-rate", *levels, "--horizon", "50", "--p-values", "0.5",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in named) and "Traceback" not in err
        assert streams == [0]
        assert not (out / "poisson_rate.csv").exists()
        assert json.loads((out / "poisson_rate_manifest.json").read_text())["exit_status"] == 2
    # at 1e12 fast waits often round to zero-length segments, which the
    # simulation drops instead of failing its own epoch check
    assert run(["poisson-rate", "--lambda2", "1e12", "--horizon", "50", "--p-values", "0.5",
                "--seed", "2", "--out", str(tmp_path / "1e12")]) == 0


def test_estimates_hold_at_extreme_level_scales(tmp_path):
    # the replica statistics run on columns scaled by a power of two, so
    # levels near 1e160 do not overflow their squares into nan and levels
    # near 1e-160 do not underflow the stderr to 0; the suite turns a
    # RuntimeWarning into an error, so each run is also warning-free
    for lam1, lam2, horizon in (("1e160", "2e160", "5e-157"), ("1e-160", "2e-160", "5e163")):
        out = tmp_path / lam1
        assert run(["poisson-rate", "--lambda1", lam1, "--lambda2", lam2, "--horizon", horizon,
                    "--replicas", "48", "--p-values", "0.5", "--out", str(out)]) == 0
        row = (out / "poisson_rate.csv").read_text().splitlines()[1].split(",")
        mc, stderr = float(row[2]), float(row[3])
        assert np.isfinite(mc) and 0.0 < stderr < np.inf
    # at T = dt = 1e-300 the Duncan value is T / 2, within 1e-12 relative
    for seed in ("0", "2"):
        out = tmp_path / f"gaussian{seed}"
        assert run(["gaussian-duncan", "--t-values", "1e-300", "--dt", "1e-300",
                    "--replicas", "64", "--seed", seed, "--out", str(out)]) == 0
        row = (out / "gaussian_duncan.csv").read_text().splitlines()[1].split(",")
        assert abs(float(row[1]) - 5e-301) <= 1e-12 * 5e-301


def test_poisson_rate_equal_levels_are_named(tmp_path, monkeypatch, capsys):
    # one level twice is no binary input: both flags are named before any
    # replica runs, not left to the pmf's "support points must be distinct"
    streams = count_streams(monkeypatch)
    out = tmp_path / "equal"
    assert run(["poisson-rate", "--lambda1", "1", "--lambda2", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "lambda1=1 and lambda2=1" in err and "Traceback" not in err
    assert streams == [0]
    assert not (out / "poisson_rate.csv").exists()
    assert json.loads((out / "poisson_rate_manifest.json").read_text())["exit_status"] == 2


def test_poisson_capacity_level_ratio_cap(tmp_path, monkeypatch, capsys):
    # the rate quadrature spans level ratios up to about 3.6e306; one beyond
    # it is a usage error, found before any level is optimized, and so is a
    # level that is not finite
    assert run(["poisson-capacity", "--lambda2-values", "2,1e-91", "--out", str(tmp_path)]) == 0
    evaluations = []
    monkeypatch.setattr("ctdi.capacity._binary_rates", lambda *args, **kwargs: evaluations.append(1))
    for name, levels, named in (("wide", ["--lambda1", "1e-300", "--lambda2-values", "2,1e10"],
                                 ("lambda1=1e-300", "lambda2=1e+10")),
                                ("nan", ["--lambda2-values", "2,nan"], ("finite", "lambda2=nan")),
                                ("inf", ["--lambda1", "inf"], ("finite", "lambda1=inf"))):
        capsys.readouterr()
        out = tmp_path / name
        assert run(["poisson-capacity", *levels, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in named) and "Traceback" not in err
        assert evaluations == []
        assert not (out / "poisson_capacity.csv").exists()
        assert json.loads((out / "poisson_capacity_manifest.json").read_text())["exit_status"] == 2


def test_subnormal_levels_are_usage_errors(tmp_path, capsys):
    # below the smallest normal float 1/x overflows: the level is named and
    # nothing is written but the manifest
    for command, args in (("poisson-capacity", ["--lambda1", "1e-310", "--lambda2-values", "3e-310"]),
                          ("poisson-rate", ["--lambda1", "1e-310", "--lambda2", "3e-310"])):
        out = tmp_path / command
        assert run([command, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "lambda1=1e-310" in err and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == [f"{command.replace('-', '_')}_manifest.json"]


def test_subnormal_first_level_with_silent_second_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "cap"
    assert run(["poisson-capacity", "--lambda1", "1e-310", "--lambda2-values", "0",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "lambda1=1e-310" in err and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["poisson_capacity_manifest.json"]


def test_any_other_exception_exits_3_with_one_line_and_a_manifest(tmp_path, monkeypatch, capsys):
    # a fault of the program, not of the run's numbers: still exit 3, one
    # line naming the exception's type, and a manifest recording it
    def fail(*args, **kwargs):
        return 1 / 0

    monkeypatch.setattr("ctdi.cli.capacity_curve", fail)
    assert run(["poisson-capacity", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal failure: ZeroDivisionError: division by zero\n"
    manifest = json.loads((tmp_path / "poisson_capacity_manifest.json").read_text())
    assert manifest["exit_status"] == 3
    assert manifest["exit_reason"] == "internal failure: ZeroDivisionError: division by zero"


def test_unwritable_manifest_exits_2_with_one_line(tmp_path, capsys):
    # the run itself passes; a directory where the manifest goes is an OSError
    (tmp_path / "gaussian_duncan_manifest.json").mkdir()
    assert run(["gaussian-duncan", "--t-values", "0", "--replicas", "3",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "gaussian_duncan_manifest.json" in err


def test_internal_numerical_failure_exits_3_without_traceback(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("Gauss-Legendre panels did not reach tol=1e-11")

    monkeypatch.setattr("ctdi.cli.capacity_curve", fail)
    assert run(["poisson-capacity", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal numerical failure: Gauss-Legendre panels did not reach tol=1e-11\n"
    assert "Traceback" not in err
    manifest = json.loads((tmp_path / "poisson_capacity_manifest.json").read_text())
    assert manifest["exit_status"] == 3
    assert manifest["exit_reason"] == (
        "internal numerical failure: Gauss-Legendre panels did not reach tol=1e-11")


def test_non_finite_gaussian_filter_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("ctdi.gaussian.exact_filter_constant_signal",
                        lambda inc, dt: np.full(inc.shape, np.nan))
    assert run(["gaussian-duncan", "--t-values", "0.2", "--dt", "0.01", "--replicas", "4",
                "--jobs", "1", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal numerical failure: a causal-MMSE integral is not finite\n"
    manifest = json.loads((tmp_path / "gaussian_duncan_manifest.json").read_text())
    assert manifest["exit_status"] == 3
    assert manifest["exit_reason"] == "internal numerical failure: a causal-MMSE integral is not finite"


def test_non_finite_martingale_control_exits_3(tmp_path, monkeypatch, capsys):
    # an infinite last increment: no filter value reads it, so every
    # causal-MMSE integral stays finite and only the martingale control is not
    real = gaussian.simulate_awgn

    def corrupted(model, gens, inc=None, **kwargs):
        x, inc = real(model, gens, inc, **kwargs)
        inc[:, -1] = np.inf
        return x, inc

    monkeypatch.setattr(gaussian, "simulate_awgn", corrupted)
    assert run(["gaussian-duncan", "--t-values", "0.2", "--dt", "0.01", "--replicas", "40",
                "--jobs", "1", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal numerical failure: a martingale control is not finite\n"
    manifest = json.loads((tmp_path / "gaussian_duncan_manifest.json").read_text())
    assert manifest["exit_status"] == 3


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


def test_di_discrete_names_the_first_violation_in_draw_order(tmp_path, monkeypatch, capsys):
    # the conservation suite's joints at seed 0, drawn as the command draws them
    gen = RngSpec(0).stream(0)
    joints = [random_joint(gen, *cli._random_sizes(gen, 3, 3)) for _ in range(40)]
    shapes = [joint.probs.shape for joint in joints]
    first_seen = {}
    for i, shape in enumerate(shapes):
        first_seen.setdefault(shape, i)
    # buckets are walked in the order their shapes first appear, so the
    # later-drawn `late` sits in a bucket walked before that of `early`
    early, late = next((i, j) for i in range(40) for j in range(i + 1, 40)
                       if first_seen[shapes[j]] < first_seen[shapes[i]]
                       and shapes.count(shapes[i]) > 1 and shapes.count(shapes[j]) > 1)
    targets = {early: joints[early].probs, late: joints[late].probs}
    hits = []
    real = partition_di._walks

    def corrupted(probs, n, tables):
        values = real(probs, n, tables)
        if tables is not partition_di._tables(n, True):
            return values
        # one nat too much reverse DI for the two target joints
        bump = np.zeros(len(probs))
        for k, row in enumerate(probs):
            for index, target in targets.items():
                if row.shape == target.shape and np.array_equal(row, target):
                    bump[k] = 1.0
                    hits.append(index)
        values[1] += bump
        return values

    monkeypatch.setattr(partition_di, "_walks", corrupted)
    assert run(["di-discrete", "--instances", "40", "--chains", "2",
                "--out", str(tmp_path)]) == 1
    assert hits == [late, early]
    report = (tmp_path / "di_discrete_report.txt").read_text().splitlines()
    assert report[-1] == f"result: FAIL (conservation/sandwich, instance {early})"
    assert capsys.readouterr().out.splitlines()[-1] == report[-1]
    violation = json.loads((tmp_path / "di_discrete_violation.json").read_text())
    assert violation["suite"] == "conservation/sandwich"
    assert violation["instance"] == early
    assert violation["joint"] == json.loads(joints[early].to_json())
    assert json.loads((tmp_path / "di_discrete_manifest.json").read_text())["exit_status"] == 1


def test_di_discrete_one_block_check_can_fail(tmp_path, monkeypatch, capsys):
    # the one-block value is checked against a relative-entropy form of MI,
    # not against the engine's own walk, so a wrong value is caught
    real = cli.chain_directed_info

    def shifted(bump):
        seen = []

        def chain(joint, groupings):
            values = real(joint, groupings)
            for k, grouping in enumerate(groupings):
                if len(grouping.ends) == 1:
                    seen.append(values[k])
                    if len(seen) == 2:  # the second chain
                        values[k] += bump
            return values
        return chain

    monkeypatch.setattr(cli, "chain_directed_info", shifted(5e-11))
    assert run(["di-discrete", "--instances", "10", "--chains", "3", "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(cli, "chain_directed_info", shifted(1e-9))
    assert run(["di-discrete", "--instances", "10", "--chains", "3", "--out", str(tmp_path)]) == 1
    report = (tmp_path / "di_discrete_report.txt").read_text().splitlines()
    assert report[-1] == "result: FAIL (grouping one-block vs mi, instance 1)"
    assert capsys.readouterr().out.splitlines()[-1] == report[-1]
    violation = json.loads((tmp_path / "di_discrete_violation.json").read_text())
    assert (violation["suite"], violation["instance"]) == ("grouping one-block vs mi", 1)


def test_unparsable_flag_values_exit_2_before_the_manifest(tmp_path, capsys):
    # a value that does not parse is a usage error found before the output
    # directory is made, so no manifest is written
    for args, message in ((["--dt", "abc"], "cannot parse number 'abc'"),
                          (["--t-values", "1,x"], "cannot parse list value '1,x'")):
        out = tmp_path / "bad"
        assert run(["gaussian-duncan", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "gaussian_duncan_manifest.json").exists()


def test_out_naming_a_file_fails_before_any_work(tmp_path, monkeypatch, capsys):
    # --out must be a directory: a file there is a usage error found before
    # any stream is drawn, reported once, and the file is left as it was
    target = tmp_path / "taken"
    target.write_bytes(b"keep\n")
    streams = count_streams(monkeypatch)
    assert run(["gaussian-duncan", "--t-values", "0.5,1", "--replicas", "2000",
                "--out", str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(target) in err[0]
    assert streams == [0]
    assert target.read_bytes() == b"keep\n"


def test_di_discrete_refinement_increase_fails(tmp_path, monkeypatch, capsys):
    # the two-block grouping of the second chain reads one nat more than
    # the one block it refines
    real = cli.chain_directed_info
    chains = []

    def chain(joint, groupings):
        chains.append(joint)
        values = real(joint, groupings)
        return [value + 1.0 if len(chains) == 2 and len(grouping.ends) == 2 else value
                for grouping, value in zip(groupings, values)]

    monkeypatch.setattr(cli, "chain_directed_info", chain)
    assert run(["di-discrete", "--instances", "10", "--chains", "3", "--out", str(tmp_path)]) == 1
    report = (tmp_path / "di_discrete_report.txt").read_text().splitlines()
    assert report[-1] == "result: FAIL (grouping monotonicity, instance 1)"
    assert report[2].startswith("grouping monotonicity: 3 chains of length 4, max increase")
    assert capsys.readouterr().out.splitlines()[-1] == report[-1]
    violation = json.loads((tmp_path / "di_discrete_violation.json").read_text())
    assert (violation["suite"], violation["instance"]) == ("grouping monotonicity", 1)
    assert violation["joint"] == json.loads(chains[1].to_json())
    assert json.loads((tmp_path / "di_discrete_manifest.json").read_text())["exit_status"] == 1


def test_di_discrete_no_feedback_gap_fails(tmp_path, monkeypatch, capsys):
    # the no-feedback suite's joints at seed 0, drawn as the command draws them
    gen = RngSpec(0).stream(2)
    joints = [random_no_feedback_joint(gen, *cli._random_sizes(gen, 3, 3)) for _ in range(8)]
    target = joints[3].probs
    real = partition_di._walks

    def corrupted(probs, n, tables):
        values = real(probs, n, tables)
        if tables is partition_di._tables(n, False):
            # DI above MI by more than the 1e-9 tolerance for the target joint
            values[0] += np.array([1e-8 if row.shape == target.shape
                                   and np.array_equal(row, target) else 0.0 for row in probs])
        return values

    monkeypatch.setattr(partition_di, "_walks", corrupted)
    assert run(["di-discrete", "--instances", "40", "--chains", "2", "--out", str(tmp_path)]) == 1
    report = (tmp_path / "di_discrete_report.txt").read_text().splitlines()
    assert report[-1] == "result: FAIL (no-feedback di == mi, instance 3)"
    assert report[-2].startswith("no-feedback: 8 instances, max |di - mi| = 1.000e-08")
    assert capsys.readouterr().out.splitlines()[-1] == report[-1]
    violation = json.loads((tmp_path / "di_discrete_violation.json").read_text())
    assert (violation["suite"], violation["instance"]) == ("no-feedback di == mi", 3)
    assert violation["joint"] == json.loads(joints[3].to_json())
    assert json.loads((tmp_path / "di_discrete_manifest.json").read_text())["exit_status"] == 1


def test_jobs_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("CTDI_JOBS", "3")
    assert run(["di-discrete", "--replicas", "10", "--chains", "2",
                "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "di_discrete_manifest.json").read_text())
    assert manifest["config"]["jobs"] == 3
    monkeypatch.setenv("CTDI_JOBS", "0")
    assert run(["di-discrete", "--replicas", "10", "--chains", "2",
                "--out", str(tmp_path)]) == 2


def test_module_entrypoint_help():
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "ctdi.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gaussian-duncan" in proc.stdout
