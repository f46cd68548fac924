import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # the rows read the walk law; the brute-force reservoir of M = m atoms is their oracle
    window = LatticeWindow(-16, 15, -16, 15)
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    for m in range(1, 5):
        for n in range(m + 1):
            cfg = parse_config(f"{physics} fcs-energy --n {n} --m {m}".split())
            rows = run_experiment(cfg).rows
            reservoir = ReservoirConfig(params=cfg.params, M=m, n=n, window=window)
            # reversed, the oracle's S_n = n..-n is in the rows' ascending ds = -beta E S_n
            oracle = run_energy_fcs(reservoir, rho).walk_law().pmf[::-1]
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
        assert abs(mean - want_mean) <= TOL.master_vs_channel * max(1.0, abs(want_mean))
        assert abs(var - want_var) <= TOL.master_vs_channel * max(1.0, abs(want_var))
        dm = apply_channel(dm, 0.0, cfg.params)


FLAGS = "--E 2 --F 1 --lambda 0.5 --tau 1 --beta 1"
_WALK_CONFIG = {"E": 2, "F": 1, "lambda": 0.5, "tau": 1, "beta": 1, "experiment": "walk"}
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
    # a tilt this small asks the Bessel recurrence for 2e9 orders
    "--E 2 --F 1e-9 --lambda 0.5 --tau 1 --beta 1 channel-evolve --n 2",
    # 2/F and 4/F overflow to inf: refused by the Bessel-square budget, not a traceback
    "--E 2 --F 1e-310 --lambda 0.5 --tau 1 --beta 1 channel-evolve --n 2",
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


def test_channel_evolve_refuses_past_its_step_budget(capsys):
    # the O(n^2) convolution is refused before any step is taken
    assert cli.main(f"{FLAGS} channel-evolve --n {cli.MAX_EVOLVE_STEPS + 1}".split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and f"n <= {cli.MAX_EVOLVE_STEPS}" in err and "O(n)" in err


@pytest.mark.parametrize("args", [
    # beta E at the top of the double range
    "--E 1e308 --F 1 --lambda 0.5 --tau 1 --beta 1 fcs-position --n 3",
    # t E overflows in the phases
    "--E 2 --F 1 --lambda 0.5 --tau 1e308 --beta 1 single-atom --n 1",
    "--E 2 --F 1 --lambda 0.5 --tau 1e308 --beta 1 channel-evolve --n 2",
    "--E 2 --F 1 --lambda 0.5 --tau 1e308 --beta 1 fcs-position --n 2",
    # the Bloch reach 4/F = 4e9 is finite, and single-atom reads no Bessel function
    "--E 2 --F 1e-9 --lambda 0.5 --tau 1 --beta 1 single-atom --n 1",
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


@pytest.mark.parametrize("F", ["1", "1e-7", "1e-310"])
@pytest.mark.parametrize("run", ["spectrum", "spectrum --window 12", "single-atom --n 3",
                                 "fcs-energy --n 2 --m 2"])
def test_k_range_experiments_do_no_bessel_work(run, F, monkeypatch, capsys):
    # spectrum and single-atom read the eigenbasis index k alone and fcs-energy the walk
    # law, so no Bessel function is evaluated, also at tilts where 2/F is past the Bessel
    # order budget or is inf
    def refuse(*args, **kwargs):
        raise AssertionError("a Bessel function was evaluated")

    monkeypatch.setattr(starkwalk.bessel, "_profile", refuse)
    rc = cli.main(f"--E 2 --F {F} --lambda 0.5 --tau 1 --beta 1 {run} --out -".split())
    out, err = capsys.readouterr()
    if run.startswith("single-atom") and F == "1e-310":
        # 4/F overflows: refused with one line
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
_log_uniform = st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e)
_log_uniform_or_0 = st.one_of(st.just(0.0), _log_uniform)
# tilts down to the subnormal range, where 2/F and 4/F overflow to inf
_tilt = st.floats(-323.0, 308.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None, derandomize=True)
@example(experiment="fcs-energy", E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1e308)
@example(experiment="spectrum", E=2.0, F=1e-310, lam=0.5, tau=1.0, beta=1.0)
@example(experiment="single-atom", E=2.0, F=1e-310, lam=0.5, tau=1.0, beta=1.0)
@example(experiment="spectrum", E=1.697, F=0.986, lam=0.1325, tau=1.26e24, beta=2.0)
@example(experiment="fcs-position", E=2.0, F=1e-6, lam=0.5, tau=1e6, beta=1.0)
@example(experiment="fcs-position", E=2.0, F=1e-9, lam=0.5, tau=1e9, beta=1.0)
@given(experiment=st.sampled_from(sorted(CONTRACT_RUNS)), E=_log_uniform_or_0, F=_tilt,
       lam=_log_uniform_or_0, tau=_log_uniform, beta=_log_uniform_or_0)
def test_every_experiment_gives_valid_rows_or_one_error_line(experiment, E, F, lam, tau, beta):
    # every input in the box either exits 2 with one error line, or exits 0 with
    # finite cells that pass the experiment's own invariants
    argv = [f"--E={E!r}", f"--F={F!r}", f"--lambda={lam!r}", f"--tau={tau!r}",
            f"--beta={beta!r}", experiment, *CONTRACT_RUNS[experiment].split(), "--out", "-"]
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
    if experiment == "channel-evolve":
        assert np.all(np.abs(col["trace"] - 1.0) <= TOL.trace)
    if experiment == "rate":
        closed, numeric = col["rate_closed"], col["rate_numeric"]
        assert np.all(np.abs(closed - numeric) <= TOL.rate_match * np.maximum(1.0, np.abs(closed)))
    if experiment in ("fcs-energy", "fcs-position"):
        assert abs(col["prob"].sum() - 1.0) <= TOL.trace


# the run keys each experiment reads, written out here so that the CLI's table is checked
READS = {
    "spectrum": ("window",),
    "single-atom": ("n",),
    "channel-evolve": ("n",),
    "walk": ("n", "trials", "seed"),
    "rate": ("n",),
    "fcs-energy": ("n", "m"),
    "fcs-position": ("n",),
    "verify-all": (),
}
RUN_KEYS = ("n", "trials", "seed", "window", "m")


@pytest.mark.parametrize("experiment", sorted(READS))
def test_each_experiment_takes_only_the_run_keys_it_reads(experiment, tmp_path, capsys):
    # a key the experiment does not read is refused, as a flag and in a config file,
    # with one error line; each key it reads is taken, and --help lists only those
    physics = {"E": 2, "F": 1, "lambda": 0.5, "tau": 1, "beta": 1, "experiment": experiment}
    path = tmp_path / "run.json"
    for key in RUN_KEYS:
        path.write_text(json.dumps({**physics, key: 3}))
        for argv in (f"{FLAGS} {experiment} --{key} 3 --out -".split(),
                     ["--config", str(path)]):
            if key in READS[experiment]:
                assert getattr(parse_config(argv), key) == 3
                continue
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            lines = err.splitlines()
            assert out == "" and len(lines) == 1 and lines[0].startswith("error: ")
            assert key in lines[0]
    with pytest.raises(SystemExit) as done:
        parse_config(f"{FLAGS} {experiment} --help".split())
    assert done.value.code == 0
    listed = re.findall(r"^  (--[a-z]+)", capsys.readouterr().out, re.M)
    assert listed == [f"--{key}" for key in READS[experiment]] + ["--format", "--out"]


def test_readme_lists_the_run_keys_of_each_experiment():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.M))
    assert {e: tuple(re.findall(r"`--([a-z]+)`", rows.get(e, ""))) for e in READS} == READS
    assert {name: keys for name, (_, keys) in cli.EXPERIMENTS.items()} == READS


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
