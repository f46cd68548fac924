import json

import numpy as np
import pytest

import starkwalk.cli as cli
from starkwalk import TOL, ConfigError, ModelParams, transport_coefficients
from starkwalk.cli import (
    ResultTable,
    parse_config,
    read_table,
    render,
    run_experiment,
    write_output,
)
from starkwalk.verify import CheckResult


def test_parse_full_flag_line():
    cfg = parse_config("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 "
                       "walk --n 10000 --trials 100000 --seed 7".split())
    assert cfg.params.E == 2.0 and cfg.params.F == 1.0 and cfg.params.lam == 0.5
    assert cfg.experiment == "walk"
    assert cfg.n == 10000 and cfg.trials == 100000 and cfg.seed == 7
    assert cfg.fmt == "csv"


def test_parse_missing_parameter_names_it():
    with pytest.raises(ConfigError, match="F"):
        parse_config("--E 2 --lambda 0.5 --tau 1 --beta 1 walk".split())


def test_parse_rejects_zero_force():
    with pytest.raises(ConfigError, match="F must be > 0"):
        parse_config("--E 2 --F 0 --lambda 0.5 --tau 1 --beta 1 walk".split())


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"E": 2, "F": 1, "lambda": 0.5, "tau": 1, "beta": 1,
                                "experiment": "rate", "n": 10}))
    cfg = parse_config(["--config", str(path)])
    assert cfg.experiment == "rate" and cfg.n == 10
    # flags override the file
    cfg2 = parse_config(["--config", str(path), "--beta", "2"])
    assert cfg2.params.beta == 2.0


def test_parse_config_file_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"E": 2, "F": 1, "lambda": 0.5, "tau": 1, "beta": 1,
                                "experiment": "rate", "bogus": 3}))
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(["--config", str(path)])


def test_rate_experiment_table():
    cfg = parse_config("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 rate --n 40".split())
    table = run_experiment(cfg)
    assert table.columns == ["x", "rate_closed", "rate_numeric", "abs_diff"]
    assert max(row[3] for row in table.rows) <= 1e-8
    assert table.metadata["seed"] == 0


def test_walk_experiment_zero_coupling():
    cfg = parse_config("--E 2 --F 1 --lambda 0 --tau 1 --beta 1 "
                       "walk --n 50 --trials 200 --seed 3".split())
    table = run_experiment(cfg)
    displacements = [row[0] for row in table.rows]
    assert displacements == [0]
    assert table.rows[0][2] == 200


def test_fcs_energy_rows_diagonal():
    cfg = parse_config("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 "
                       "fcs-energy --n 2 --m 2".split())
    table = run_experiment(cfg)
    assert table.columns[:2] == ["ds_particle", "ds_env"]
    for row in table.rows:
        assert abs(row[0] - row[1]) <= 1e-12


@pytest.mark.parametrize("n", [0, 10, 16, 17])
def test_fcs_position_any_n(n, tmp_path):
    # every n, the smallest included, goes through the reduced route
    out = tmp_path / "pos.csv"
    rc = cli.main("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 "
                  f"fcs-position --n {n} --out {out}".split())
    assert rc == 0
    table = read_table(str(out))
    dx = np.array([row[0] for row in table.rows], dtype=float)
    prob = np.array([row[1] for row in table.rows])
    assert abs(prob.sum() - 1.0) <= TOL.trace
    drift = n * transport_coefficients(ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)).v_d
    assert abs(float(np.dot(dx, prob)) - drift) <= TOL.walk_moments_rel * max(1.0, drift)


def test_json_round_trip(tmp_path):
    cfg = parse_config("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 rate --n 12".split())
    table = run_experiment(cfg)
    path = tmp_path / "out.json"
    write_output(table, "json", str(path))
    back = read_table(str(path))
    assert back.columns == table.columns
    assert back.metadata == json.loads(json.dumps(table.metadata))
    assert np.allclose(np.array(back.rows, dtype=float),
                       np.array(table.rows, dtype=float), rtol=0, atol=0)


def test_csv_round_trip(tmp_path):
    cfg = parse_config("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 "
                       "walk --n 20 --trials 100 --seed 5".split())
    table = run_experiment(cfg)
    path = tmp_path / "out.csv"
    write_output(table, "csv", str(path))
    back = read_table(str(path))
    assert back.columns == table.columns
    assert back.metadata["seed"] == 5
    got = np.array([r[:2] for r in back.rows], dtype=float)
    want = np.array([r[:2] for r in table.rows], dtype=float)
    assert np.array_equal(got, want)   # repr round-trips floats exactly


def test_outputs_are_byte_identical(tmp_path):
    argv = ("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 "
            "walk --n 30 --trials 500 --seed 11").split()
    blobs = []
    for name in ("a.csv", "b.csv"):
        cfg = parse_config(argv)
        table = run_experiment(cfg)
        path = tmp_path / name
        write_output(table, "csv", str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_empty_table_render():
    table = ResultTable(columns=["a", "b"], rows=[], metadata={"seed": 0})
    text = render(table, "csv")
    lines = text.splitlines()
    assert lines[0].startswith("# metadata:")
    assert lines[1] == "a,b"
    assert len(lines) == 2


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("STARKWALK_OUTDIR", str(tmp_path))
    table = ResultTable(columns=["x"], rows=[[1]], metadata={})
    write_output(table, "csv", "sub.csv")
    assert (tmp_path / "sub.csv").exists()


def test_main_exit_codes(monkeypatch, tmp_path):
    out = tmp_path / "t.csv"
    rc = cli.main("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 rate --n 5 "
                  f"--out {out}".split())
    assert rc == 0
    rc = cli.main("--E 2 --lambda 0.5 --tau 1 --beta 1 rate".split())
    assert rc == 2

    def fake_run_all():
        return [CheckResult("ok", True, 0.0, 1.0),
                CheckResult("bad", False, 2.0, 1.0)]

    monkeypatch.setattr(cli, "run_all", fake_run_all)
    rc = cli.main("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 verify-all "
                  f"--out {tmp_path / 'v.csv'}".split())
    assert rc == 1

    monkeypatch.setattr(cli, "run_all", lambda: [CheckResult("ok", True, 0.0, 1.0)])
    rc = cli.main("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 verify-all "
                  f"--out {tmp_path / 'v2.csv'}".split())
    assert rc == 0


def test_spectrum_and_channel_evolve_experiments():
    cfg = parse_config("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 spectrum".split())
    table = run_experiment(cfg)
    for row in table.rows:
        assert abs(row[1] - row[3]) <= 1e-10 and abs(row[2] - row[4]) <= 1e-10

    cfg = parse_config("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 "
                       "channel-evolve --n 10".split())
    table = run_experiment(cfg)
    assert len(table.rows) == 11
    for row in table.rows:
        assert abs(row[1] - 1.0) <= 1e-10   # trace preserved


FLAGS = "--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1"
# config-file cases: the run keys each one adds to a valid walk configuration
BAD_CONFIGS = {"config-n-string": {"n": "10"}, "config-out-true": {"out": True},
               "config-out-int": {"out": 3}}


@pytest.mark.parametrize("args", [
    f"{FLAGS} walk --n -3",
    f"{FLAGS} walk --trials 0",
    f"{FLAGS} rate --n -2",
    f"{FLAGS} fcs-position --n -1",
    f"{FLAGS} fcs-energy --n -1",
    f"{FLAGS} channel-evolve --n -1",
    "--E nan --F 1 --lambda 0.5 --tau 1 --beta 1 walk",
    *BAD_CONFIGS,
])
def test_bad_input_exits_2_with_error_line(args, tmp_path, capsys):
    if args in BAD_CONFIGS:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"E": 2, "F": 1, "lambda": 0.5, "tau": 1, "beta": 1,
                                    "experiment": "walk", **BAD_CONFIGS[args]}))
        argv = ["--config", str(path)]
    else:
        argv = args.split()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_rate_far_from_equilibrium(capsys):
    # beta E = 1500: p_- underflows and cosh(beta E / 2) overflows a double
    argv = "--E 1500 --F 1 --lambda 1 --tau 2 --beta 1 rate --n 20".split()
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "x,rate_closed,rate_numeric,abs_diff"
    abs_diff = [float(line.split(",")[3]) for line in lines[2:]]
    assert len(abs_diff) == 21 and max(abs_diff) <= TOL.rate_match
