import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import starkwalk.bessel
import starkwalk.cli as cli
from starkwalk import (
    TOL,
    ConfigError,
    LatticeWindow,
    ModelParams,
    ParticleDensityMatrix,
    ReservoirConfig,
    apply_channel,
    position_distribution,
    run_energy_fcs,
    theta,
    transport_coefficients,
)
from starkwalk.cli import (
    ResultTable,
    parse_config,
    render,
    run_experiment,
    write_output,
)
from starkwalk.verify import CHECK_PARAMS, CheckResult
from starkwalk.walk import MAX_LAW_SITES, MAX_TRIALS

from conftest import TEST_TOL, convolved_position_moments


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
    # the Legendre oracle solves the 401-point grid in one lock-step call: every abs_diff
    # is within rate_match and is |rate_closed - rate_numeric| of its own row
    cfg = parse_config("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 rate --n 400".split())
    table = run_experiment(cfg)
    assert table.columns == ["x", "rate_closed", "rate_numeric", "abs_diff"]
    assert len(table.rows) == 401 and max(row[3] for row in table.rows) <= TOL.rate_match
    assert all(diff == abs(closed - numeric) for _, closed, numeric, diff in table.rows)
    # rate draws no sample: its metadata holds no seed
    assert "seed" not in table.metadata


def test_metadata_records_the_run_keys_the_experiment_reads():
    # the atom count leaves the rows as they are, but it is a run key the experiment
    # reads, so it is in the metadata line too
    lines = []
    for m in (2, 3):
        cfg = parse_config(f"--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 fcs-energy --n 2 --m {m}".split())
        lines.append(render(run_experiment(cfg), "csv").splitlines()[0])
    assert lines[0] != lines[1]
    assert [json.loads(line.removeprefix("# metadata: "))["m"] for line in lines] == [2, 3]


def test_walk_experiment_zero_coupling():
    cfg = parse_config("--E 2 --F 1 --lambda 0 --tau 1 --beta 1 "
                       "walk --n 50 --trials 200 --seed 3".split())
    table = run_experiment(cfg)
    displacements = [row[0] for row in table.rows]
    assert displacements == [0]
    assert table.rows[0][2] == 200


def test_fcs_energy_rows_diagonal():
    # one row per increment m, ds_particle = ds_env = beta E * m exactly, also
    # where beta E = 1.17 is not a multiple of F = 0.7
    for physics, n in (("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1", 2),
                       ("--E 1.3 --F 0.7 --lambda 0.37 --tau 1.1 --beta 0.9", 3)):
        cfg = parse_config(f"{physics} fcs-energy --n {n} --m {n}".split())
        table = run_experiment(cfg)
        assert table.columns[:2] == ["ds_particle", "ds_env"]
        keys = [row[0] for row in table.rows]
        assert len(keys) == len(set(keys)) == 2 * n + 1
        be = cfg.params.beta * cfg.params.E
        for m, row in zip(range(-n, n + 1), table.rows):
            assert row[0] == row[1] == be * m


ENERGY_PHYSICS = ("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1",
                  "--E 1.3 --F 0.7 --lambda 0.37 --tau 1.1 --beta 0.9")


@pytest.mark.parametrize("physics", ENERGY_PHYSICS)
def test_fcs_energy_rows_are_the_reservoir_law(physics):
    # the rows read the walk law, the same for every m >= n; the brute-force reservoir
    # of n atoms is their oracle
    for m in range(1, 5):
        for n in range(m + 1):
            cfg = parse_config(f"{physics} fcs-energy --n {n} --m {m}".split())
            rows = run_experiment(cfg).rows
            # reversed, the oracle's S_n = n..-n is in the rows' ascending ds = -beta E S_n
            oracle = run_energy_fcs(ReservoirConfig(params=cfg.params, n=n)).walk_law().pmf[::-1]
            assert len(rows) == np.count_nonzero(oracle > 1e-15)
            be = cfg.params.beta * cfg.params.E
            for ds, _, prob in rows:
                expected = oracle[round(ds / be) + n]
                assert abs(prob / expected - 1.0) <= TOL.walk_law_rel, (n, m, ds)


def test_fcs_energy_at_no_interaction_is_one_row(capsys):
    assert cli.main(f"{FLAGS} fcs-energy --n 0 --out -".split()) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["0.0,0.0,1.0"]


def test_fcs_energy_far_past_the_reservoir(capsys):
    # n = 10^4 interactions: the closed form has no atom budget
    n = 10_000
    assert cli.main(f"{FLAGS} fcs-energy --n {n} --out -".split()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.split(",")[0] == line.split(",")[1] for line in lines[2:])
    ds, _, prob = np.array([[float(cell) for cell in line.split(",")] for line in lines[2:]]).T
    assert abs(prob.sum() - 1.0) <= TOL.trace
    # the rows stop at prob 1e-15, about 8 standard deviations out, so the tilts are
    # scaled by 1 / (beta E sqrt n) to keep the tilted law inside them
    params = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
    for a in (-1.0, 0.5, 2.0):
        alpha = a / (params.beta * params.E * math.sqrt(n))
        mgf = float(np.dot(np.exp(alpha * ds), prob))
        assert abs(mgf / theta(alpha, params) ** n - 1.0) <= TOL.fcs_mgf_rel, a


@pytest.mark.parametrize("n", [0, 10, 16, 17])
def test_fcs_position_any_n(n, tmp_path):
    # every n, the smallest included, goes through the reduced route
    out = tmp_path / "pos.csv"
    rc = cli.main("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 "
                  f"fcs-position --n {n} --out {out}".split())
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "dx,prob"
    dx, prob = np.array([[float(cell) for cell in line.split(",")] for line in lines[2:]]).T
    assert abs(prob.sum() - 1.0) <= TOL.trace
    drift = n * transport_coefficients(ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)).v_d
    assert abs(float(np.dot(dx, prob)) - drift) <= TOL.walk_moments_rel * max(1.0, drift)


def test_json_round_trip(tmp_path):
    cfg = parse_config("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 rate --n 12".split())
    table = run_experiment(cfg)
    path = tmp_path / "out.json"
    write_output(table, "json", str(path))
    back = json.loads(path.read_text())
    assert back["columns"] == table.columns
    assert back["metadata"] == json.loads(json.dumps(table.metadata))
    assert np.allclose(np.array(back["rows"], dtype=float),
                       np.array(table.rows, dtype=float), rtol=0, atol=0)


def test_csv_round_trip(tmp_path):
    cfg = parse_config("--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1 "
                       "walk --n 20 --trials 100 --seed 5".split())
    table = run_experiment(cfg)
    path = tmp_path / "out.csv"
    write_output(table, "csv", str(path))
    meta, header, *body = path.read_text().splitlines()
    assert header.split(",") == table.columns
    assert json.loads(meta.removeprefix("# metadata: "))["seed"] == 5
    got = np.array([[float(cell) for cell in line.split(",")[:2]] for line in body])
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


def test_cell_rule_keeps_the_text_of_each_type():
    # np.float64 through repr(float), the rest through str: the text of every type
    table = ResultTable(columns=list("abcdefg"), metadata={},
                        rows=[[np.float64(0.1), np.int64(3), True, "x", -0.0, 1e-300, math.inf]])
    assert render(table, "csv").splitlines()[2] == "0.1,3,True,x,-0.0,1e-300,inf"


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
    rc = cli.main(f"verify-all --out {tmp_path / 'v.csv'}".split())
    assert rc == 1

    monkeypatch.setattr(cli, "run_all", lambda: [CheckResult("ok", True, 0.0, 1.0)])
    rc = cli.main(f"verify-all --out {tmp_path / 'v2.csv'}".split())
    assert rc == 0


def test_verify_all_records_the_parameters_it_checks(monkeypatch):
    # verify-all reads no physics key: its run and its metadata hold the set it checks
    monkeypatch.setattr(cli, "run_all", lambda: [CheckResult("ok", True, 0.0, 1.0)])
    cfg = parse_config(["verify-all"])
    p = CHECK_PARAMS
    assert cfg.params == p
    assert run_experiment(cfg).metadata["params"] == {
        "E": p.E, "F": p.F, "lambda": p.lam, "tau": p.tau, "beta": p.beta}


def test_verify_all_refuses_physics_keys(tmp_path, capsys):
    # as flags or in a config file, with one error line that names them
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"experiment": "verify-all", "E": 7}))
    for argv, keys in (("--E 7 --F 0.3 --lambda 1.1 --tau 2 --beta 3 verify-all --out -".split(),
                        "E F beta lambda tau"),
                       (["--config", str(path)], "E")):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: verify-all does not read {keys}; it reads format, out\n")


@pytest.mark.parametrize("key,value", [
    ("E", True), ("F", "1"), ("lambda", "0.5"), ("tau", False), ("beta", "1e0"),
    ("E", None), ("F", [1.0]),
])
def test_config_physics_values_are_typed_like_run_keys(key, value, tmp_path, capsys):
    # a JSON bool or string is refused naming its key, as for "n": "2" and "n": true
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**PHYSICS, "experiment": "rate", "n": 2, key: value}))
    assert cli.main(["--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {key} must be a real number, got {key} = ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("args,hint", [
    ("walk --E 3", True), ("rate --lambda=3", True), ("rate --trials 3", False)])
def test_physics_flag_after_the_subcommand_says_where_it_goes(args, hint, capsys):
    assert cli.main(f"{FLAGS} {args}".split()) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.endswith("; physics flags go before the subcommand\n") == hint


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


@pytest.mark.parametrize("n", [0, 1, 10, 30])
@pytest.mark.parametrize("physics", [
    "--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1",
    "--E 1.3 --F 0.7 --lambda 0.37 --tau 1.1 --beta 0.9",
    "--E 2 --F 0.3 --lambda 0.5 --tau 1 --beta 0",
])
def test_channel_evolve_rows_match_the_iterated_channel(physics, n):
    # the rows read the convolution identity; the oracle steps the density matrix
    # through apply_channel and transforms it to position space at every step
    cfg = parse_config(f"{physics} channel-evolve --n {n}".split())
    rows = run_experiment(cfg).rows
    assert [row[0] for row in rows] == list(range(n + 1))
    window = LatticeWindow.for_dynamics(0, 0, steps=n, F=cfg.params.F)
    dm = ParticleDensityMatrix.eigenstate(window, 0)
    for _, trace, mean, var in rows:
        xs, pmf = position_distribution(dm, cfg.params.F)
        want_mean = float(np.dot(xs, pmf))
        want_var = float(np.dot((xs - want_mean) ** 2, pmf))
        assert abs(trace - dm.trace()) <= TOL.trace
        assert abs(mean - want_mean) <= TEST_TOL.master_vs_channel * max(1.0, abs(want_mean))
        assert abs(var - want_var) <= TEST_TOL.master_vs_channel * max(1.0, abs(want_var))
        dm = apply_channel(dm, 0.0, cfg.params)


@pytest.mark.parametrize("physics", [
    "--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1",
    "--E 2 --F 0.3 --lambda 0.5 --tau 1 --beta 0",
])
def test_channel_evolve_rows_match_the_convolution_identity(physics):
    # past the density matrix's reach: the Bloch profile convolved step by step, O(n^2)
    cfg = parse_config(f"{physics} channel-evolve --n 2000".split())
    rows = np.array(run_experiment(cfg).rows)
    want = convolved_position_moments(2000, cfg.params)
    assert np.array_equal(rows[:, 0], np.arange(2001)) and np.all(rows[:, 1] == 1.0)
    assert np.all(np.abs(want[:, 0] - 1.0) <= TOL.trace)
    scale = TOL.walk_moments_rel * np.maximum(1.0, np.abs(want[:, 1:]))
    assert np.all(np.abs(rows[:, 2:] - want[:, 1:]) <= scale)


FLAGS = "--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1"
PHYSICS = {"E": 2, "F": 1, "lambda": 0.5, "tau": 1, "beta": 1}
_WALK_CONFIG = {**PHYSICS, "experiment": "walk"}
# config-file cases: the text of the file, or None for a path where no file is
BAD_CONFIGS = {
    "config-n-string": json.dumps({**_WALK_CONFIG, "n": "10"}),
    "config-out-true": json.dumps({**_WALK_CONFIG, "out": True}),
    "config-out-int": json.dumps({**_WALK_CONFIG, "out": 3}),
    "config-missing": None,
    "config-not-an-object": "[2, 1, 0.5]",
    "config-no-experiment": json.dumps({k: v for k, v in _WALK_CONFIG.items() if k != "experiment"}),
    "config-unknown-experiment": json.dumps({**_WALK_CONFIG, "experiment": "bogus"}),
    "config-unknown-format": json.dumps({**_WALK_CONFIG, "format": "xml"}),
}


@pytest.mark.parametrize("args", [
    f"{FLAGS} walk --n -3",
    f"{FLAGS} walk --trials 0",
    f"{FLAGS} rate --n -2",
    f"{FLAGS} fcs-position --n -1",
    f"{FLAGS} fcs-energy --n -1",
    f"{FLAGS} channel-evolve --n -1",
    f"{FLAGS} channel-evolve --n 3 --window 30",
    f"{FLAGS} single-atom --n 2 --window 30",
    f"{FLAGS} fcs-energy --n 2 --window 20",
    # m only has to be >= n
    f"{FLAGS} fcs-energy --n 3 --m 2",
    # omega0 tau / 2 = 7.1e19 is past 2^52: the jump probability would carry no digit
    "--E 2 --F 1 --lambda 0.5 --tau 1e20 --beta 1 walk --n 3",
    "--E nan --F 1 --lambda 0.5 --tau 1 --beta 1 walk",
    # 2/F^2 overflows to inf: refused, not a row of inf
    "--E 2 --F 1e-310 --lambda 0.5 --tau 1 --beta 1 channel-evolve --n 2",
    "--E 2 --F 1e-155 --lambda 0.5 --tau 1 --beta 1 channel-evolve --n 2",
    "--E 2 --F 1e-310 --lambda 0.5 --tau 1 --beta 1 fcs-position --n 2",
    # the Bloch reach 4/F is inf: the closed form, the oracle and the bound would be NaN or inf
    "--E 2 --F 1e-310 --lambda 0.5 --tau 1 --beta 1 single-atom --n 1",
    # n tau = 1e309 overflows before the time grid is built
    "--E 2 --F 1 --lambda 0.5 --tau 1e308 --beta 1 single-atom --n 10",
    # the output path is a directory
    f"{FLAGS} rate --n 2 --out {{tmp}}",
    *BAD_CONFIGS,
])
def test_bad_input_exits_2_with_error_line(args, tmp_path, capsys):
    if args in BAD_CONFIGS:
        path = tmp_path / "run.json"
        if BAD_CONFIGS[args] is not None:
            path.write_text(BAD_CONFIGS[args])
        argv = ["--config", str(path)]
    else:
        argv = args.format(tmp=tmp_path).split()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and len(err.splitlines()) == 1


def test_walk_refuses_past_its_sample_budget(capsys):
    # the trial count is refused before any walk is drawn
    assert cli.main(f"{FLAGS} walk --trials {MAX_TRIALS + 1}".split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and f"budget of {MAX_TRIALS} trials" in err


@pytest.mark.parametrize("experiment", ["walk", "fcs-energy", "fcs-position"])
def test_law_experiments_refuse_past_the_law_budget(experiment, capsys):
    # at n = 10^9 the dense law of S_n would need 14.9 GiB: refused before it is built
    assert cli.main(f"{FLAGS} {experiment} --n 1000000000".split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"past the budget of {MAX_LAW_SITES} sites" in err


# each table under the one row budget: the experiment, its row count at its first run
# key (linear in it), and the first function that its grid is passed to (None: the
# table is built whole)
GRID_BUDGETS = [
    ("channel-evolve", lambda n: n + 1, None),
    ("rate", lambda n: n + 1, "rate_function_numeric"),
    ("single-atom", lambda n: 20 * n + 1, "position_expectation"),
    ("spectrum", lambda window: window - 1, None),
]


def _sized_key(experiment: str) -> str:
    """The run key that sizes the experiment's table: n, or spectrum's window, its first
    integer run key."""
    return next(key for key in cli.EXPERIMENTS[experiment][1] if key not in PHYSICS)


def _largest_accepted(size) -> int:
    n_max = (cli.MAX_TABLE_ROWS - size(0)) // (size(1) - size(0))
    assert size(n_max) <= cli.MAX_TABLE_ROWS < size(n_max + 1)
    return n_max


@pytest.mark.parametrize("experiment, size, first", GRID_BUDGETS)
def test_grid_refused_past_its_budget(experiment, size, first, capsys):
    # refused before the grid is formed: one past the budget, and far past it, where the
    # grid itself would not fit in memory
    key = _sized_key(experiment)
    for n in (_largest_accepted(size) + 1, 10**12, 10**13):
        assert cli.main(f"{FLAGS} {experiment} --{key} {n}".split()) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"{experiment} at {key} = {n} makes {size(n)} rows" in err
        assert (f"budget of {cli.MAX_TABLE_ROWS} rows ({key} <= {_largest_accepted(size)})"
                in err)


@pytest.mark.parametrize("experiment, size, first", GRID_BUDGETS)
def test_grid_accepted_at_its_budget(experiment, size, first, monkeypatch):
    # the largest accepted n forms its whole grid; the run is stopped at the grid's first use
    class Reached(Exception):
        pass

    grids = []

    def stop(grid, *args):
        grids.append(grid)
        raise Reached

    n_max = _largest_accepted(size)
    cfg = parse_config(f"{FLAGS} {experiment} --{_sized_key(experiment)} {n_max}".split())
    if first is None:
        rows = run_experiment(cfg).rows
        assert len(rows) == size(n_max) and all(map(math.isfinite, rows[-1]))
        return
    monkeypatch.setattr(cli, first, stop)
    with pytest.raises(Reached):
        run_experiment(cfg)
    assert len(grids) == 1 and grids[0].size == size(n_max)


@pytest.mark.parametrize("args", [
    # beta E at the top of the double range
    "--E 1e308 --F 1 --lambda 0.5 --tau 1 --beta 1 fcs-position --n 3",
    # t E overflows in the phases
    "--E 2 --F 1 --lambda 0.5 --tau 1e308 --beta 1 single-atom --n 1",
    "--E 2 --F 1 --lambda 0.5 --tau 1e308 --beta 1 channel-evolve --n 2",
    "--E 2 --F 1 --lambda 0.5 --tau 1e308 --beta 1 fcs-position --n 2",
    # the Bloch reach 4/F = 4e9 is finite, and single-atom reads no Bessel function
    "--E 2 --F 1e-9 --lambda 0.5 --tau 1 --beta 1 single-atom --n 1",
    # 2/F^2 = 2e18 is finite, and channel-evolve reads no Bessel function
    "--E 2 --F 1e-9 --lambda 0.5 --tau 1 --beta 1 channel-evolve --n 2",
    # the Bessel argument 2 / F is 2e-300
    "--E 2 --F 1e300 --lambda 0.5 --tau 1 --beta 1 spectrum",
    # beta E overflows a double: the ds columns would be inf * 0
    "--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1e308 fcs-energy --n 2 --m 2",
    # the free kernel's argument (4/F)|sin(F t / 2)| is 4e6, past the Bessel order budget
    "--E 2 --F 1e-6 --lambda 0.5 --tau 1e6 --beta 1 fcs-position --n 3",
    # F k overflows on the window; at F = 6e306 only a sector's two energies summed would
    "--E 2 --F 1.8e307 --lambda 0.5 --tau 1 --beta 1 spectrum",
    "--E 2 --F 6e306 --lambda 0.5 --tau 1 --beta 1 fcs-energy --n 2 --m 2",
    # n beta E leaves the double range in the walk law's log ratios
    "--E 2 --F 1 --lambda 0.5 --tau 1 --beta 5e307 walk --n 5",
    "--E 2 --F 1e-6 --lambda 0.5 --tau 1e6 --beta 1 fcs-position --n 3",
])
def test_extreme_input_gives_finite_rows_or_refuses(args, capsys):
    rc = cli.main(args.split() + ["--out", "-"])
    out, err = capsys.readouterr()
    if rc == 2:
        assert err.startswith("error: ") and "Traceback" not in err
        return
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)


def test_rate_far_from_equilibrium(capsys):
    # beta E = 1500: p_- underflows and cosh(beta E / 2) overflows a double
    argv = "--E 1500 --F 1 --lambda 1 --tau 2 --beta 1 rate --n 20".split()
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "x,rate_closed,rate_numeric,abs_diff"
    abs_diff = [float(line.split(",")[3]) for line in lines[2:]]
    assert len(abs_diff) == 21 and max(abs_diff) <= TOL.rate_match


def test_spectrum_refuses_an_overflowing_rabi_frequency(capsys):
    # 2 lam overflows a double: one error line, no rows of inf
    rc = cli.main("--E 2 --F 1 --lambda 1e308 --tau 1 --beta 1 spectrum --window 3 --out -".split())
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert rc == 2 and out == "" and len(lines) == 1 and lines[0].startswith("error: ")


def test_spectrum_reads_no_time(capsys):
    # no column of the ladder spectrum depends on tau: at omega0 tau / 2 past 2^52,
    # where ModelParams.p refuses, the rows are those of tau = 1
    physics = "--E 1.697 --F 0.986 --lambda 0.1325 --beta 2"
    bodies = []
    for tau in ("1.26e24", "1"):
        assert cli.main(f"{physics} --tau {tau} spectrum --out -".split()) == 0
        bodies.append(capsys.readouterr().out.splitlines()[1:])
    assert bodies[0] == bodies[1] and len(bodies[0]) == 21


def _refuse_bessel(*args, **kwargs):
    raise AssertionError("a Bessel function was evaluated")


@pytest.mark.parametrize("F", ["1", "1e-7", "1e-310"])
@pytest.mark.parametrize("run", ["spectrum", "spectrum --window 12", "single-atom --n 3",
                                 "fcs-energy --n 2 --m 2", "channel-evolve --n 3"])
def test_k_range_experiments_do_no_bessel_work(run, F, monkeypatch, capsys):
    # spectrum and single-atom read the eigenbasis index k alone, fcs-energy the walk law
    # and channel-evolve the drift and diffusion, so no Bessel function is evaluated, also
    # at tilts where 2/F is past the Bessel order budget or is inf
    monkeypatch.setattr(starkwalk.bessel, "_profile", _refuse_bessel)
    rc = cli.main(f"--E 2 --F {F} --lambda 0.5 --tau 1 --beta 1 {run} --out -".split())
    out, err = capsys.readouterr()
    if run.startswith(("single-atom", "channel-evolve")) and F == "1e-310":
        # 4/F and 2/F^2 overflow: refused with one line
        assert rc == 2 and err.startswith("error: ") and len(err.splitlines()) == 1
        return
    assert rc == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)


# the run keys of each experiment in the contract sweep: small sizes, so a draw costs ms
CONTRACT_RUNS = {
    "spectrum": "",
    "single-atom": "--n 3",
    "channel-evolve": "--n 3",
    "walk": "--n 5",
    "rate": "--n 6",
    "fcs-energy": "--n 2 --m 2",
    "fcs-position": "--n 3",
}
# the decimal exponent box of (E, F, lam, tau, beta); E, lam and beta may also be 0,
# and tilts reach the subnormal range, where 2/F and 4/F overflow to inf
_EXPONENTS = ((-300.0, 308.0), (-323.0, 308.0), (-300.0, 308.0), (-300.0, 308.0),
              (-300.0, 308.0))
_MAY_BE_ZERO = (True, False, True, False, True)
_CONTRACT_DRAWS = 300
# inputs of earlier defects of the contract, run on every pass
_PINNED = [
    ("fcs-energy", 2.0, 1.0, 0.5, 1.0, 1e308),
    ("spectrum", 2.0, 1e-310, 0.5, 1.0, 1.0),
    ("single-atom", 2.0, 1e-310, 0.5, 1.0, 1.0),
    ("spectrum", 1.697, 0.986, 0.1325, 1.26e24, 2.0),
    ("fcs-position", 2.0, 1e-6, 0.5, 1e6, 1.0),
    ("fcs-position", 2.0, 1e-9, 0.5, 1e9, 1.0),
]
# runs past the sweep's small sizes, and inputs where a route once failed
_SIZED = [
    ("single-atom --n 5", 2.0, 1.0, 0.5, 1.0, 1.0),
    ("single-atom --n 20", 2.0, 1.0, 0.5, 1.0, 1.0),
    # the closed route reads omega0 and the mixing angle, never the jump probability,
    # whose phase omega0 tau / 2 is past 2^52
    ("single-atom --n 0", 2.0, 1.0, 0.5, 1e16, 1.0),
    # the largest n of the row budget, at a tilt past the Bessel order budget
    (f"channel-evolve --n {cli.MAX_TABLE_ROWS - 1}", 2.0, 1e-7, 0.5, 1.0, 1.0),
    # z = 2/F = 40 and up to 4/F = 80: the squared Bessel kernel runs over hundreds of orders
    ("channel-evolve --n 20", 2.0, 0.05, 0.5, 1.0, 1.0),
    ("fcs-position --n 20", 2.0, 0.05, 0.5, 1.0, 1.0),
    ("walk --n 50", 2.0, 1.0, 0.5, 1.0, 1.0),
    # the laws on their live span from a restarted recurrence, and near p = 1 from j = 0
    ("walk --n 1000000 --trials 100", 2.0, 1.0, 0.5, 1.0, 1.0),
    ("fcs-position --n 1000000", 2.0, 1.0, 0.5, 1.0, 1.0),
    ("walk --n 20000", 1.0, 1.0, 1.5706963267948966, 1.0, 0.3),
    # the energy law is the walk law reversed, so it has no atom budget
    ("fcs-energy --n 100000", 2.0, 1.0, 0.5, 1.0, 1.0),
]
# spectrum and single-atom read the eigenbasis index k alone, fcs-energy the walk law
# and channel-evolve the drift and diffusion: none of them evaluates a Bessel function
_NO_BESSEL = ("spectrum", "single-atom", "fcs-energy", "channel-evolve")


def _contract_cases() -> list[tuple]:
    """(run, E, F, lam, tau, beta): _CONTRACT_DRAWS draws from a seeded generator,
    each coordinate 10^u for u uniform on its exponent range and, where it may be, 0
    with probability 1/4, the experiment uniform; then the pinned cases; then, for
    every experiment, one draw with each coordinate at each of its bounds (0, 10^lo,
    10^hi); each of these runs with its `CONTRACT_RUNS` keys.  Last, the sized runs."""
    rng = np.random.default_rng(20261020)
    experiments = sorted(CONTRACT_RUNS)
    bounds = [(j, value) for j, ((lo, hi), zero) in enumerate(zip(_EXPONENTS, _MAY_BE_ZERO))
              for value in [0.0] * zero + [10.0 ** lo, 10.0 ** hi]]
    count = _CONTRACT_DRAWS + len(experiments) * len(bounds)
    lows, highs = np.array(_EXPONENTS).T
    values = 10.0 ** rng.uniform(lows, highs, size=(count, len(_EXPONENTS)))
    values[(rng.random(size=values.shape) < 0.25) & np.array(_MAY_BE_ZERO)] = 0.0
    picks = rng.integers(len(experiments), size=count)
    row = _CONTRACT_DRAWS
    for e in range(len(experiments)):
        for j, value in bounds:
            picks[row], values[row, j] = e, value
            row += 1
    cases = [(experiments[e], *v) for e, v in zip(picks.tolist(), values.tolist())]
    swept = cases[:_CONTRACT_DRAWS] + _PINNED + cases[_CONTRACT_DRAWS:]
    return [(f"{e} {CONTRACT_RUNS[e]}", *v) for e, *v in swept] + _SIZED


@pytest.mark.parametrize("case", _contract_cases())
def test_every_experiment_gives_valid_rows_or_one_error_line(case, monkeypatch):
    # every input in the box either exits 2 with one error line, or exits 0 with
    # finite cells that pass the experiment's own invariants
    run, E, F, lam, tau, beta = case
    experiment = run.split()[0]
    if experiment in _NO_BESSEL:
        monkeypatch.setattr(starkwalk.bessel, "_profile", _refuse_bessel)
    argv = [f"--E={E!r}", f"--F={F!r}", f"--lambda={lam!r}", f"--tau={tau!r}",
            f"--beta={beta!r}", *run.split(), "--out", "-"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return
    assert rc == 0 and err.getvalue() == ""
    lines = out.getvalue().splitlines()
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[2:]])
    assert rows.size and np.all(np.isfinite(rows))
    col = dict(zip(lines[1].split(","), rows.T))
    sizes = {name: size for name, size, _ in GRID_BUDGETS if _sized_key(name) == "n"}
    if experiment in sizes:
        assert len(rows) == sizes[experiment](parse_config(argv).n)
    if experiment == "single-atom":
        # within its oracle and within the motion bound of the first row, t = 0, where
        # both routes read <X> of the starting state
        closed, oracle, bound = col["x_closed"], col["x_oracle"], col["bound"]
        assert np.all(np.abs(closed - oracle) <= TOL.position_oracle)
        assert np.all(np.abs(closed - closed[0]) <= bound) and closed[0] == oracle[0]
    if experiment == "channel-evolve":
        assert np.all(col["trace"] == 1.0)
    if experiment == "rate":
        closed, numeric = col["rate_closed"], col["rate_numeric"]
        assert np.all(np.abs(closed - numeric) <= TOL.rate_match * np.maximum(1.0, np.abs(closed)))
        assert np.array_equal(col["abs_diff"], np.abs(closed - numeric))
    if experiment == "fcs-energy":
        assert np.array_equal(col["ds_particle"], col["ds_env"])
    if experiment in ("fcs-energy", "fcs-position"):
        assert abs(col["prob"].sum() - 1.0) <= TOL.trace


# the run keys each experiment reads, written out here so that the CLI's table is checked:
# the five physics keys (global flags, before the subcommand) and the integer run keys
READS = {
    "spectrum": (*PHYSICS, "window"),
    "single-atom": (*PHYSICS, "n"),
    "channel-evolve": (*PHYSICS, "n"),
    "walk": (*PHYSICS, "n", "trials", "seed"),
    "rate": (*PHYSICS, "n"),
    "fcs-energy": (*PHYSICS, "n", "m"),
    "fcs-position": (*PHYSICS, "n"),
    "verify-all": (),
}
RUN_KEYS = (*PHYSICS, "n", "trials", "seed", "window", "m")
# the ModelParams field of each physics key
_FIELDS = {"E": "E", "F": "F", "lambda": "lam", "tau": "tau", "beta": "beta"}


@pytest.mark.parametrize("experiment", sorted(READS))
def test_each_experiment_takes_only_the_run_keys_it_reads(experiment, tmp_path, capsys):
    # a key the experiment does not read is refused, as a flag and in a config file,
    # with one error line; each key it reads is taken, a physics key it reads is
    # required, and --help lists only its integer run keys
    base = {key: PHYSICS[key] for key in READS[experiment] if key in PHYSICS}
    flags = [arg for key, value in base.items() for arg in (f"--{key}", str(value))]
    path = tmp_path / "run.json"

    def refused(argv, key):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: ")
        assert key in lines[0]

    for key in RUN_KEYS:
        path.write_text(json.dumps({**base, "experiment": experiment, key: 3}))
        flag = [f"--{key}", "3"]
        for argv in ([*flags, *flag, experiment, "--out", "-"] if key in PHYSICS
                     else [*flags, experiment, *flag, "--out", "-"],
                     ["--config", str(path)]):
            if key not in READS[experiment]:
                refused(argv, key)
            elif key in PHYSICS:
                assert getattr(parse_config(argv).params, _FIELDS[key]) == 3.0
            else:
                assert getattr(parse_config(argv), key) == 3
    for key in base:
        kept = {k: v for k, v in base.items() if k != key}
        path.write_text(json.dumps({**kept, "experiment": experiment}))
        refused(["--config", str(path)], key)
    with pytest.raises(SystemExit) as done:
        parse_config([*flags, experiment, "--help"])
    assert done.value.code == 0
    listed = re.findall(r"^  (--[a-z]+)", capsys.readouterr().out, re.M)
    counts = [f"--{key}" for key in READS[experiment] if key not in PHYSICS]
    assert listed == counts + ["--format", "--out"]


def test_readme_lists_the_run_keys_of_each_experiment():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.M))
    assert {e: tuple(re.findall(r"`--([A-Za-z]+)`", rows.get(e, ""))) for e in READS} == READS
    assert {name: keys for name, (_, keys) in cli.EXPERIMENTS.items()} == READS


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # the README's "Command line" examples as written there, so the docs cannot drift
    # from the flags; each exits 0 in a scratch working directory
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = [line for line in section.splitlines() if line.startswith("starkwalk ")]
    assert len(examples) >= 4
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STARKWALK_OUTDIR", raising=False)
    for line in examples:
        assert cli.main(shlex.split(line, comments=True)[1:]) == 0, line
        assert capsys.readouterr().err == "", line


@pytest.mark.parametrize("args", [
    f"{FLAGS} walk --n x",
    f"{FLAGS} walk --format xml",
    f"{FLAGS} bogus",
    f"{FLAGS} --format xml rate",
])
def test_argparse_errors_are_one_error_line(args, capsys):
    # argparse's own refusals return 2 in-process, with no usage text
    assert cli.main(args.split()) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1 and lines[0].startswith("error: ")


def test_top_level_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0 and "--config" in capsys.readouterr().out


def test_config_run_takes_output_flags_without_the_subcommand(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"E": 2, "F": 1, "lambda": 0.5, "tau": 1, "beta": 1,
                                "experiment": "rate", "n": 4}))
    assert cli.main(["--config", str(path), "rate", "--out", "-"]) == 0
    named = capsys.readouterr().out
    assert cli.main(["--config", str(path), "--out", "-"]) == 0
    assert capsys.readouterr().out == named
    assert cli.main(["--config", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["columns"][0] == "x"
    # the subcommand's own flag wins; unset, it leaves the top-level one alone
    assert cli.main(["--config", str(path), "--format", "json", "rate", "--format", "csv"]) == 0
    assert capsys.readouterr().out == named
    out_file = tmp_path / "rate.csv"
    assert cli.main(["--config", str(path), "--out", str(out_file), "rate", "--n", "4"]) == 0
    assert out_file.read_text() == named


def test_one_parser_serves_every_call_and_keeps_nothing(tmp_path):
    # the parser is built once, on first use; no flag of one call leaks into the next
    parse_config(f"{FLAGS} walk".split())
    before = cli._build_parser.cache_info()
    cfg = parse_config(f"{FLAGS} walk --n 5 --seed 3".split())
    assert (cfg.n, cfg.seed) == (5, 3)
    cfg = parse_config(f"{FLAGS} walk --n 5".split())
    assert (cfg.n, cfg.trials, cfg.seed) == (5, 10_000, 0)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"E": 3, "F": 1, "lambda": 0.5, "tau": 1, "beta": 1,
                                "experiment": "walk", "n": 40, "trials": 300, "seed": 4}))
    assert parse_config(["--config", str(path), "--format", "json"]).seed == 4
    cfg = parse_config(f"{FLAGS} walk".split())
    assert (cfg.params.E, cfg.n, cfg.trials, cfg.seed, cfg.fmt) == (2.0, 100, 10_000, 0, "csv")
    with pytest.raises(ConfigError, match="rate does not read --trials"):
        parse_config(f"{FLAGS} rate --trials 3".split())
    after = cli._build_parser.cache_info()
    assert after.misses == before.misses == 1 and after.hits == before.hits + 5


def test_importing_the_cli_builds_no_parser():
    code = ("import starkwalk.cli as cli; "
            "assert cli._build_parser.cache_info().currsize == 0")
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
