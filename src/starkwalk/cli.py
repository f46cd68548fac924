"""Batch command-line front end.

Runs one named experiment per invocation and emits a machine-readable
table (CSV with '#'-prefixed metadata comments, or a single JSON object).
Outputs embed the parameters, seed, window and tolerances needed to
reproduce the run exactly; identical configurations produce byte-identical
files.  The default output directory can be set with STARKWALK_OUTDIR.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import fcs as fcs_mod
from .bessel import bessel_table
from .channel import apply_channel
from .config import TOL
from .errors import ConfigError, StarkwalkError
from .params import ModelParams, derive_params
from .singleatom import (
    AtomGibbs,
    JointDensityMatrix,
    hamiltonian_blocks,
    oracle_unitary,
    position_expectation,
    position_motion_bound,
)
from .state import LatticeWindow, ParticleDensityMatrix, position_distribution, position_operator, required_order
from .verify import run_all
from .walk import (
    rate_function,
    rate_function_numeric,
    sample_walk,
    transport_coefficients,
    walk_pmf_exact,
)

EXPERIMENTS = ("spectrum", "single-atom", "channel-evolve", "walk", "rate",
               "fcs-energy", "fcs-position", "verify-all")

_PARAM_KEYS = ("E", "F", "lambda", "tau", "beta")
_RUN_KEYS = ("experiment", "n", "trials", "seed", "window", "m", "format", "out")
# smallest accepted value of each integer run key (window: k_min < k_max)
_INT_MIN = {"n": 0, "trials": 1, "seed": 0, "window": 2, "m": 1}


@dataclass
class RunConfig:
    params: ModelParams
    experiment: str
    n: int = 100
    trials: int = 10_000
    seed: int = 0
    window: int | None = None
    m: int | None = None
    fmt: str = "csv"
    out: str | None = None


@dataclass
class ResultTable:
    columns: list
    rows: list
    metadata: dict = field(default_factory=dict)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starkwalk",
        description="Tilted-band repeated-interaction simulator (batch mode).")
    ap.add_argument("--config", help="JSON file with the same keys as the flags")
    ap.add_argument("--E", type=float, help="atomic Bohr frequency (>= 0)")
    ap.add_argument("--F", type=float, help="static tilt force (> 0)")
    ap.add_argument("--lambda", dest="lam", type=float, help="coupling constant")
    ap.add_argument("--tau", type=float, help="interaction duration (> 0)")
    ap.add_argument("--beta", type=float, help="inverse temperature (>= 0)")
    sub = ap.add_subparsers(dest="experiment")
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--n", type=int, default=None, help="number of interactions / steps")
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--window", type=int, default=None, help="override window size")
        sp.add_argument("--m", type=int, default=None, help="reservoir atoms (fcs-energy)")
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
        sp.add_argument("--out", default=None, help="output path; '-' for stdout")
    return ap


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags (and an optional JSON config file) into a validated RunConfig."""
    ns = _build_parser().parse_args(argv)
    merged: dict = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                filecfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {ns.config}: {exc}") from exc
        unknown = set(filecfg) - set(_PARAM_KEYS) - set(_RUN_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(filecfg)

    flag_params = {"E": ns.E, "F": ns.F, "lambda": ns.lam, "tau": ns.tau, "beta": ns.beta}
    for key, value in flag_params.items():
        if value is not None:
            merged[key] = value
    if getattr(ns, "experiment", None):
        merged["experiment"] = ns.experiment
        for key in ("n", "trials", "seed", "window", "m", "fmt", "out"):
            value = getattr(ns, key, None)
            if value is not None:
                merged["format" if key == "fmt" else key] = value

    missing = [k for k in _PARAM_KEYS if k not in merged]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")
    if "experiment" not in merged:
        raise ConfigError(f"missing experiment; choose one of {', '.join(EXPERIMENTS)}")
    if merged["experiment"] not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {merged['experiment']!r}")
    try:
        params = ModelParams(E=float(merged["E"]), F=float(merged["F"]),
                             lam=float(merged["lambda"]), tau=float(merged["tau"]),
                             beta=float(merged["beta"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    cfg = RunConfig(params=params, experiment=merged["experiment"])
    for key, attr in (("n", "n"), ("trials", "trials"), ("seed", "seed"),
                      ("window", "window"), ("m", "m"), ("format", "fmt"), ("out", "out")):
        if key in merged:
            value = merged[key]
            if key in _INT_MIN and (not isinstance(value, int) or isinstance(value, bool)
                                    or value < _INT_MIN[key]):
                raise ConfigError(f"{key} must be an integer >= {_INT_MIN[key]}, got {value!r}")
            setattr(cfg, attr, value)
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ConfigError(f"out must be a path string, got {cfg.out!r}")
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {cfg.fmt!r}")
    return cfg


def _metadata(cfg: RunConfig) -> dict:
    return {
        "version": __version__,
        "params": {"E": cfg.params.E, "F": cfg.params.F, "lambda": cfg.params.lam,
                   "tau": cfg.params.tau, "beta": cfg.params.beta},
        "experiment": cfg.experiment,
        "n": cfg.n,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "window": cfg.window,
        "tolerances": asdict(TOL),
    }


def _default_window(cfg: RunConfig, steps: int) -> LatticeWindow:
    if cfg.window is not None:
        half = cfg.window // 2
        return LatticeWindow(-half, cfg.window - half - 1,
                             -half - 16, cfg.window - half + 15)
    return LatticeWindow.for_dynamics(0, 0, steps=steps, F=cfg.params.F)


def _exp_spectrum(cfg: RunConfig) -> ResultTable:
    window = _default_window(cfg, steps=2)
    d = derive_params(cfg.params)
    rows = []
    for blk in hamiltonian_blocks(cfg.params, window):
        if blk.edge:
            continue
        k = window.k_values[blk.labels[0][1]]
        lo, hi = np.linalg.eigvalsh(blk.h)
        base = 2.0 - cfg.params.F * k + 0.5 * (cfg.params.E - cfg.params.F)
        rows.append([int(k), float(lo), float(hi),
                     base - 0.5 * d.omega0, base + 0.5 * d.omega0])
    return ResultTable(["k", "eig_minus", "eig_plus", "predicted_minus", "predicted_plus"], rows)


def _exp_single_atom(cfg: RunConfig) -> ResultTable:
    params = cfg.params
    window = _default_window(cfg, steps=4)
    rho_p = ParticleDensityMatrix.eigenstate(window, 0)
    state = JointDensityMatrix.product(rho_p, AtomGibbs.from_params(params).density())
    xop = np.kron(np.eye(2), position_operator(window, params.F))
    bound = position_motion_bound(params)
    rows = []
    for t in np.linspace(0.0, cfg.n * params.tau, 20 * cfg.n + 1):
        xt = position_expectation(float(t), state, params)
        W = oracle_unitary(float(t), params, window)
        oracle = float(np.trace(xop @ (W @ state.coeffs @ W.conj().T)).real)
        rows.append([float(t), xt, oracle, bound])
    return ResultTable(["t", "x_closed", "x_oracle", "bound"], rows)


def _exp_channel_evolve(cfg: RunConfig) -> ResultTable:
    params = cfg.params
    window = _default_window(cfg, steps=cfg.n)
    table = bessel_table(params.F, required_order(window))
    dm = ParticleDensityMatrix.eigenstate(window, 0)
    rows = []
    for step in range(cfg.n + 1):
        xs, pmf = position_distribution(dm, table)
        mean = float(np.dot(xs, pmf))
        var = float(np.dot((xs - mean) ** 2, pmf))
        rows.append([step, dm.trace(), mean, var])
        if step < cfg.n:
            dm = apply_channel(dm, 0.0, params)
    return ResultTable(["step", "trace", "mean_x", "var_x"], rows)


def _exp_walk(cfg: RunConfig) -> ResultTable:
    law = walk_pmf_exact(cfg.n, cfg.params)
    sample = sample_walk(cfg.n, cfg.trials, cfg.seed, cfg.params)
    counts = dict(zip(sample.values.tolist(), sample.counts.tolist()))
    rows = []
    for s, p in zip(law.support.tolist(), law.pmf.tolist()):
        c = counts.get(s, 0)
        if p < 1e-12 and c == 0:
            continue
        rows.append([s, p, c, c / cfg.trials])
    return ResultTable(["displacement", "exact_prob", "count", "empirical_prob"], rows)


def _exp_rate(cfg: RunConfig) -> ResultTable:
    rows = []
    for x in np.linspace(-0.999, 0.999, cfg.n + 1):
        closed = rate_function(float(x), cfg.params)
        numeric = rate_function_numeric(float(x), cfg.params)
        rows.append([float(x), closed, numeric, abs(closed - numeric)])
    return ResultTable(["x", "rate_closed", "rate_numeric", "abs_diff"], rows)


def _exp_fcs_energy(cfg: RunConfig) -> ResultTable:
    m_atoms = cfg.m if cfg.m is not None else cfg.n
    window = (LatticeWindow(-16, 15, -16, 15) if cfg.window is None
              else _default_window(cfg, steps=cfg.n))
    rcfg = fcs_mod.ReservoirConfig(params=cfg.params, M=m_atoms, n=cfg.n, window=window)
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    result = fcs_mod.run_energy_fcs(rcfg, rho)
    joint: dict = {}
    for rec in result.records(prune=1e-15):
        key = (float(rec.ds_particle) + 0.0, float(rec.ds_env) + 0.0)
        joint[key] = joint.get(key, 0.0) + float(rec.weight)
    rows = [[dp, de, w] for (dp, de), w in sorted(joint.items())]
    return ResultTable(["ds_particle", "ds_env", "prob"], rows)


def _exp_fcs_position(cfg: RunConfig) -> ResultTable:
    window = LatticeWindow(-8, 7, -8, 7)
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    dist = fcs_mod.run_position_fcs(cfg.n, rho, cfg.params)
    rows = [[int(d), float(p)] for d, p in zip(dist.dx, dist.probs) if p > 1e-15]
    return ResultTable(["dx", "prob"], rows)


def _exp_verify_all(cfg: RunConfig) -> ResultTable:
    rows = []
    for result in run_all():
        rows.append([result.name, "pass" if result.passed else "FAIL",
                     result.measured, result.tolerance,
                     result.detail.replace(",", ";")])
    return ResultTable(["check", "status", "measured", "tolerance", "detail"], rows)


_RUNNERS = {
    "spectrum": _exp_spectrum,
    "single-atom": _exp_single_atom,
    "channel-evolve": _exp_channel_evolve,
    "walk": _exp_walk,
    "rate": _exp_rate,
    "fcs-energy": _exp_fcs_energy,
    "fcs-position": _exp_fcs_position,
    "verify-all": _exp_verify_all,
}


def run_experiment(cfg: RunConfig) -> ResultTable:
    """Dispatch to the named experiment; deterministic for a fixed config."""
    table = _RUNNERS[cfg.experiment](cfg)
    table.metadata = _metadata(cfg)
    return table


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def render(table: ResultTable, fmt: str) -> str:
    if fmt == "json":
        payload = {"metadata": table.metadata, "columns": table.columns,
                   "rows": table.rows}
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"
    lines = [f"# metadata: {json.dumps(table.metadata, sort_keys=True)}"]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_output(table: ResultTable, fmt: str, path: str | None) -> None:
    """Write the rendered table to `path` ('-' or None for stdout)."""
    text = render(table, fmt)
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    outdir = os.environ.get("STARKWALK_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise StarkwalkError(f"cannot write {path}: {exc}") from exc


def read_table(path: str) -> ResultTable:
    """Parse a table previously written by write_output (either format)."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return ResultTable(payload["columns"], payload["rows"], payload["metadata"])
    meta: dict = {}
    lines = [ln for ln in text.splitlines() if ln]
    body = []
    for ln in lines:
        if ln.startswith("# metadata: "):
            meta = json.loads(ln[len("# metadata: "):])
        elif not ln.startswith("#"):
            body.append(ln)
    columns = body[0].split(",")
    rows = []
    for ln in body[1:]:
        row = []
        for cell in ln.split(","):
            try:
                row.append(int(cell))
            except ValueError:
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
        rows.append(row)
    return ResultTable(columns, rows, meta)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
        table = run_experiment(cfg)
        write_output(table, cfg.fmt, cfg.out)
    except StarkwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.experiment == "verify-all":
        failed = [row for row in table.rows if row[1] != "pass"]
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
