"""Batch command-line front end.

Runs one named experiment per invocation and emits a machine-readable
table (CSV with '#'-prefixed metadata comments, or a single JSON object).
Outputs embed the parameters, the run keys the experiment reads and the
tolerances needed to reproduce the run exactly; identical configurations
produce byte-identical files.  The default output directory can be set
with STARKWALK_OUTDIR.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .config import TOL
from .errors import BudgetError, ConfigError, NumericsError, StarkwalkError
from .fcs import run_position_fcs
from .params import ModelParams, _beta_E, _require_atoms, _require_count, _require_real
from .singleatom import (
    AtomGibbs,
    JointDensityMatrix,
    hamiltonian_blocks,
    position_expectation,
    position_motion_bound,
    position_oracle,
)
from .state import LatticeWindow, ParticleDensityMatrix
from .verify import CHECK_PARAMS, run_all
from .walk import (
    rate_function,
    rate_function_numeric,
    sample_walk,
    transport_coefficients,
    walk_pmf_exact,
)

# every physics run key, a global flag (before the subcommand): its `ModelParams` field
# and its help; an experiment reads all five, or none and runs at `verify.CHECK_PARAMS`
_PHYSICS = {"E": ("E", "atomic Bohr frequency (>= 0)"), "F": ("F", "static tilt force (> 0)"),
            "lambda": ("lam", "coupling constant"), "tau": ("tau", "interaction duration (> 0)"),
            "beta": ("beta", "inverse temperature (>= 0)")}
# every integer run key: its smallest accepted value (window: k_min < k_max), its
# default and its help; `EXPERIMENTS` names the ones each experiment reads
_COUNTS = {
    "n": (0, 100, "number of interactions / steps"),
    "trials": (1, 10_000, "number of sampled walks"),
    "seed": (0, 0, "seed of the sampled walks"),
    "window": (2, None, "k sites around 0 (default 21: k = -10..10)"),
    "m": (1, None, "reservoir atoms (default n)"),
}
# the keys every experiment accepts besides its own
_OUTPUT_KEYS = ("format", "out")
# the rows of one table (n + 1 for channel-evolve and rate, 20 n + 1 for single-atom,
# window - 1 for spectrum); at this many, rate takes about 1.1 s and 85 MiB, single-atom
# about 1.3 s and 80 MiB, spectrum about 0.6 s and 89 MiB
MAX_TABLE_ROWS = 100_000


@dataclass
class RunConfig:
    """One run; `parse_config` fills the run keys from `_COUNTS`."""

    params: ModelParams
    experiment: str
    n: int
    trials: int
    seed: int
    window: int | None
    m: int | None
    fmt: str = "csv"
    out: str | None = None


@dataclass
class ResultTable:
    columns: list
    rows: list
    metadata: dict = field(default_factory=dict)


class _Parser(argparse.ArgumentParser):
    """argparse whose own errors (a bad value, an unknown experiment) are ConfigErrors.

    So they take the one `error:` line and exit code 2 of every other
    refusal; the subcommands' parsers are of this class too.
    """

    def error(self, message: str):
        raise ConfigError(message)


def _output_flags(ap: argparse.ArgumentParser, **default) -> None:
    ap.add_argument("--format", choices=("csv", "json"), **default)
    ap.add_argument("--out", help="output path; '-' for stdout", **default)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parsing keeps no state."""
    ap = _Parser(
        prog="starkwalk",
        description="Tilted-band repeated-interaction simulator (batch mode).")
    ap.add_argument("--config", help="JSON file with the same keys as the flags")
    for key, (name, text) in _PHYSICS.items():
        ap.add_argument(f"--{key}", metavar=name.upper(), type=float, help=text)
    # also before the subcommand, so a config-file run can set them without naming it
    _output_flags(ap)
    sub = ap.add_subparsers(dest="experiment")
    for name, (_, keys) in EXPERIMENTS.items():
        sp = sub.add_parser(name)
        for key in keys:
            if key in _COUNTS:
                sp.add_argument(f"--{key}", type=int, help=_COUNTS[key][2])
        # unset, a subcommand's flag must not overwrite the top-level one with None
        _output_flags(sp, default=argparse.SUPPRESS)
    return ap


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags (and an optional JSON config file) into a validated RunConfig."""
    # flags the subcommand does not define come back in `extra`, refused below
    ns, extra = _build_parser().parse_known_args(argv)
    flags = vars(ns)
    path = flags.pop("config")
    merged: dict = {}
    if path:
        try:
            with open(path) as fh:
                filecfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(filecfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        merged.update(filecfg)
    # every flag given overrides the file; the subcommand defines only the keys it reads
    merged.update((key, value) for key, value in flags.items() if value is not None)

    if "experiment" not in merged:
        raise ConfigError(f"missing experiment; choose one of {', '.join(EXPERIMENTS)}")
    experiment = merged["experiment"]
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    reads = EXPERIMENTS[experiment][1]
    physics = [key for key in reads if key in _PHYSICS]
    unread = sorted(set(merged) - {"experiment", *reads, *_OUTPUT_KEYS}) + extra
    if unread:
        # a physics flag given after the subcommand comes back in `extra`: say where it goes
        late = any(arg.lstrip("-").partition("=")[0] in physics for arg in extra)
        where = "; physics flags go before the subcommand" if late else ""
        raise ConfigError(f"{experiment} does not read {' '.join(unread)}; "
                          f"it reads {', '.join(reads + _OUTPUT_KEYS)}{where}")
    missing = [key for key in physics if key not in merged]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")
    params = ModelParams(**{_PHYSICS[key][0]: _require_real(merged[key], key)
                            for key in physics}) if physics else CHECK_PARAMS

    cfg = RunConfig(params=params, experiment=experiment,
                    fmt=merged.get("format", "csv"), out=merged.get("out"),
                    **{key: _require_count(merged[key], key, low) if key in merged else default
                       for key, (low, default, _) in _COUNTS.items()})
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ConfigError(f"out must be a path string, got {cfg.out!r}")
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {cfg.fmt!r}")
    return cfg


def _metadata(cfg: RunConfig) -> dict:
    # the physics the run read (verify-all's: the set it checks) and the integer run keys
    # the experiment reads, and no others: what reproduces the run
    return {
        "version": __version__,
        "params": {key: getattr(cfg.params, name) for key, (name, _) in _PHYSICS.items()},
        "experiment": cfg.experiment,
        **{key: getattr(cfg, key) for key in EXPERIMENTS[cfg.experiment][1] if key in _COUNTS},
        "tolerances": asdict(TOL),
    }


# spectrum and single-atom read the eigenbasis index k alone, so each of their windows
# is a k-range, with an x-range (which neither of them reads) set equal to it
def _exp_spectrum(cfg: RunConfig) -> ResultTable:
    if cfg.window is not None:
        _require_rows(cfg, 1, "window", -1)
    k_lo = -10 if cfg.window is None else -(cfg.window // 2)
    k_hi = 10 if cfg.window is None else k_lo + cfg.window - 1
    window = LatticeWindow(k_lo, k_hi, k_lo, k_hi)
    omega0 = cfg.params.omega0
    blocks, _ = hamiltonian_blocks(cfg.params, window)
    eig = np.linalg.eigvalsh(blocks)
    rows = []
    for k, (lo, hi) in zip(window.k_values[:-1].tolist(), eig.tolist()):
        base = 2.0 - cfg.params.F * k + 0.5 * (cfg.params.E - cfg.params.F)
        rows.append([k, lo, hi, base - 0.5 * omega0, base + 0.5 * omega0])
    return ResultTable(["k", "eig_minus", "eig_plus", "predicted_minus", "predicted_plus"], rows)


def _require_rows(cfg: RunConfig, per_step: int, key: str = "n", extra: int = 1) -> int:
    """The table's per_step * (run key) + extra rows (per_step n + 1, or spectrum's window - 1);
    BudgetError past `MAX_TABLE_ROWS`, before any grid."""
    value = getattr(cfg, key)
    rows = per_step * value + extra
    if rows > MAX_TABLE_ROWS:
        raise BudgetError(f"{cfg.experiment} at {key} = {value} makes {rows} rows, past the "
                          f"budget of {MAX_TABLE_ROWS} rows "
                          f"({key} <= {(MAX_TABLE_ROWS - extra) // per_step})")
    return rows


def _exp_single_atom(cfg: RunConfig) -> ResultTable:
    times = _require_rows(cfg, 20)
    params = cfg.params
    window = LatticeWindow(-12, 12, -12, 12)
    rho_p = ParticleDensityMatrix.eigenstate(window, 0)
    state = JointDensityMatrix.product(rho_p, AtomGibbs.from_params(params).density())
    bound = position_motion_bound(params)
    if not np.isfinite(cfg.n * params.tau):
        raise NumericsError(f"the time n tau = {cfg.n} * {params.tau!r} overflows a double")
    ts = np.linspace(0.0, cfg.n * params.tau, times)
    xt = position_expectation(ts, state, params).tolist()
    oracle = position_oracle(ts, state, params).tolist()
    rows = [[t, x, o, bound] for t, x, o in zip(ts.tolist(), xt, oracle)]
    return ResultTable(["t", "x_closed", "x_oracle", "bound"], rows)


def _exp_channel_evolve(cfg: RunConfig) -> ResultTable:
    # kicks shift both eigenbasis indices and free evolution keeps the diagonal, so from
    # psi_0 the position law after s steps is J_x(2/F)^2 convolved s times with the Kraus
    # weights: its cumulants add, trace 1, mean s v_d tau, variance 2/F^2 + 2 s D tau.
    # |v_d tau| and D tau are at most 1, so only the variance can leave the double range
    _require_rows(cfg, 1)
    params, transport = cfg.params, transport_coefficients(cfg.params)
    drift, spread = transport.v_d * params.tau, 2.0 * transport.D * params.tau
    bloch = 2.0 / params.F / params.F
    if not np.isfinite(bloch + cfg.n * spread):
        raise NumericsError(f"the variance 2/F^2 + 2 n D tau at F = {params.F!r} is past a double")
    rows = [[s, 1.0, s * drift, bloch + s * spread] for s in range(cfg.n + 1)]
    return ResultTable(["step", "trace", "mean_x", "var_x"], rows)


def _exp_walk(cfg: RunConfig) -> ResultTable:
    law = walk_pmf_exact(cfg.n, cfg.params)
    sample = sample_walk(cfg.n, cfg.trials, cfg.seed, cfg.params)
    # a row for each site of probability >= 1e-12 and each sampled value, whatever its law
    kept = np.flatnonzero(law.pmf >= 1e-12) + law.first
    sites, row = np.unique(np.concatenate((sample.values, kept)), return_inverse=True)
    counts = np.zeros(sites.size, dtype=sample.counts.dtype)
    counts[row[:sample.values.size]] = sample.counts
    rows = [[s, p, c, c / cfg.trials] for s, p, c in
            zip(sites.tolist(), law.pmf[sites - law.first].tolist(), counts.tolist())]
    return ResultTable(["displacement", "exact_prob", "count", "empirical_prob"], rows)


def _exp_rate(cfg: RunConfig) -> ResultTable:
    xs = np.linspace(-0.999, 0.999, _require_rows(cfg, 1))
    closed = rate_function(xs, cfg.params).tolist()
    numeric = rate_function_numeric(xs, cfg.params).tolist()
    rows = [[x, c, m, abs(c - m)] for x, c, m in zip(xs.tolist(), closed, numeric)]
    return ResultTable(["x", "rate_closed", "rate_numeric", "abs_diff"], rows)


def _exp_fcs_energy(cfg: RunConfig) -> ResultTable:
    # the law is the same for every reservoir of M >= n atoms, so m is only held against
    # n; it stays a run key because the benchmark's reservoir workload passes --m
    _require_atoms(cfg.n, cfg.n if cfg.m is None else cfg.m)
    be = _beta_E(cfg.params, cfg.n)
    law = walk_pmf_exact(cfg.n, cfg.params)
    # dS_p = dS_env = -beta E S_n: the law's sites above 1e-15, reversed, so ds is ascending;
    # both columns are the same double, and at beta E = 0 every outcome is one 0.0 row
    live = np.flatnonzero(law.pmf > 1e-15)[::-1]
    ds, inverse = np.unique(be * -(live + law.first) + 0.0, return_inverse=True)
    probs = np.bincount(inverse.reshape(-1), weights=law.pmf[live])
    rows = [[d, d, p] for d, p in zip(ds.tolist(), probs.tolist())]
    return ResultTable(["ds_particle", "ds_env", "prob"], rows)


def _exp_fcs_position(cfg: RunConfig) -> ResultTable:
    window = LatticeWindow(-8, 7, -8, 7)
    rho = ParticleDensityMatrix.eigenstate(window, 0)
    dist = run_position_fcs(cfg.n, rho, cfg.params)
    live = dist.pmf > 1e-15
    rows = [[d, p] for d, p in zip(dist.dx[live].tolist(), dist.pmf[live].tolist())]
    return ResultTable(["dx", "prob"], rows)


def _exp_verify_all(cfg: RunConfig) -> ResultTable:
    rows = [[result.name, "pass" if result.passed else "FAIL", result.measured,
             result.tolerance, result.detail.replace(",", ";")] for result in run_all()]
    return ResultTable(["check", "status", "measured", "tolerance", "detail"], rows)


# each experiment: its runner and the run keys it reads, physics and integer.  This one
# table drives the subcommands and their flags, the config-file key check, the fill-in
# of RunConfig and the dispatch; a key an experiment does not read is refused.
EXPERIMENTS = {
    "spectrum": (_exp_spectrum, (*_PHYSICS, "window")),
    "single-atom": (_exp_single_atom, (*_PHYSICS, "n")),
    "channel-evolve": (_exp_channel_evolve, (*_PHYSICS, "n")),
    "walk": (_exp_walk, (*_PHYSICS, "n", "trials", "seed")),
    "rate": (_exp_rate, (*_PHYSICS, "n")),
    "fcs-energy": (_exp_fcs_energy, (*_PHYSICS, "n", "m")),
    "fcs-position": (_exp_fcs_position, (*_PHYSICS, "n")),
    "verify-all": (_exp_verify_all, ()),
}


def run_experiment(cfg: RunConfig) -> ResultTable:
    """Dispatch to the named experiment; deterministic for a fixed config."""
    table = EXPERIMENTS[cfg.experiment][0](cfg)
    table.metadata = _metadata(cfg)
    return table


def render(table: ResultTable, fmt: str) -> str:
    if fmt == "json":
        payload = {"metadata": table.metadata, "columns": table.columns,
                   "rows": table.rows}
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"
    lines = [f"# metadata: {json.dumps(table.metadata, sort_keys=True)}"]
    lines.append(",".join(table.columns))
    for row in table.rows:
        # np.float64 is a float; str gives np.integer, bool and str their plain text
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
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


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
        table = run_experiment(cfg)
        write_output(table, cfg.fmt, cfg.out)
    except StarkwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # verify-all exits 1 when a check fails
    return int(cfg.experiment == "verify-all" and any(row[1] != "pass" for row in table.rows))


if __name__ == "__main__":
    sys.exit(main())
