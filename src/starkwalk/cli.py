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
from .bessel import bessel_squares
from .channel import kraus_weights
from .config import TOL
from .errors import BudgetError, ConfigError, NumericsError, StarkwalkError
from .fcs import run_position_fcs
from .params import ModelParams, _beta_E, _require_atoms, _require_count
from .singleatom import (
    AtomGibbs,
    JointDensityMatrix,
    hamiltonian_blocks,
    position_expectation,
    position_motion_bound,
    position_oracle,
)
from .state import LatticeWindow, ParticleDensityMatrix
from .verify import run_all
from .walk import (
    rate_function,
    rate_function_numeric,
    sample_walk,
    walk_pmf_exact,
)

_PARAM_KEYS = ("E", "F", "lambda", "tau", "beta")
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
# channel-evolve's convolution is O(n^2): about 1.2 s at this many steps
MAX_EVOLVE_STEPS = 10_000


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
    ap.add_argument("--E", type=float, help="atomic Bohr frequency (>= 0)")
    ap.add_argument("--F", type=float, help="static tilt force (> 0)")
    ap.add_argument("--lambda", dest="lambda", metavar="LAM", type=float,
                    help="coupling constant")
    ap.add_argument("--tau", type=float, help="interaction duration (> 0)")
    ap.add_argument("--beta", type=float, help="inverse temperature (>= 0)")
    # also before the subcommand, so a config-file run can set them without naming it
    _output_flags(ap)
    sub = ap.add_subparsers(dest="experiment")
    for name, (_, keys) in EXPERIMENTS.items():
        sp = sub.add_parser(name)
        for key in keys:
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

    missing = [k for k in _PARAM_KEYS if k not in merged]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")
    if "experiment" not in merged:
        raise ConfigError(f"missing experiment; choose one of {', '.join(EXPERIMENTS)}")
    experiment = merged["experiment"]
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    reads = EXPERIMENTS[experiment][1]
    unread = sorted(set(merged) - {*_PARAM_KEYS, "experiment", *reads, *_OUTPUT_KEYS}) + extra
    if unread:
        raise ConfigError(f"{experiment} does not read {' '.join(unread)}; "
                          f"it reads {', '.join(reads + _OUTPUT_KEYS)}")
    try:
        params = ModelParams(E=float(merged["E"]), F=float(merged["F"]),
                             lam=float(merged["lambda"]), tau=float(merged["tau"]),
                             beta=float(merged["beta"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

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
    # the run keys the experiment reads, and no others: what reproduces the run
    return {
        "version": __version__,
        "params": {"E": cfg.params.E, "F": cfg.params.F, "lambda": cfg.params.lam,
                   "tau": cfg.params.tau, "beta": cfg.params.beta},
        "experiment": cfg.experiment,
        **{key: getattr(cfg, key) for key in EXPERIMENTS[cfg.experiment][1]},
        "tolerances": asdict(TOL),
    }


# spectrum and single-atom read the eigenbasis index k alone, so each of their windows
# is a k-range, with an x-range (which neither of them reads) set equal to it
def _exp_spectrum(cfg: RunConfig) -> ResultTable:
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


def _exp_single_atom(cfg: RunConfig) -> ResultTable:
    params = cfg.params
    window = LatticeWindow(-12, 12, -12, 12)
    rho_p = ParticleDensityMatrix.eigenstate(window, 0)
    state = JointDensityMatrix.product(rho_p, AtomGibbs.from_params(params).density())
    bound = position_motion_bound(params)
    if not np.isfinite(cfg.n * params.tau):
        raise NumericsError(f"the time n tau = {cfg.n} * {params.tau!r} overflows a double")
    ts = np.linspace(0.0, cfg.n * params.tau, 20 * cfg.n + 1)
    xt = position_expectation(ts, state, params).tolist()
    oracle = position_oracle(ts, state, params).tolist()
    rows = [[t, x, o, bound] for t, x, o in zip(ts.tolist(), xt, oracle)]
    return ResultTable(["t", "x_closed", "x_oracle", "bound"], rows)


def _exp_channel_evolve(cfg: RunConfig) -> ResultTable:
    if cfg.n > MAX_EVOLVE_STEPS:
        raise BudgetError(f"channel-evolve convolves a law that grows by two sites a step, "
                          f"O(n^2), within a budget of n <= {MAX_EVOLVE_STEPS} steps (got "
                          f"{cfg.n}); summing the per-step cumulants, O(n), would lift it "
                          "(ROADMAP item 2)")
    # kicks shift both eigenbasis indices and free evolution keeps the diagonal, so from
    # psi_0 each step convolves the position law, first J_x(2/F)^2, with the Kraus weights
    weights = kraus_weights(cfg.params).as_array()
    xs, law = bessel_squares(2.0 / cfg.params.F,
                             "the position law of psi_0 needs J_x(z) at z = 2/F")
    rows = []
    for step in range(cfg.n + 1):
        mean = float(np.dot(xs, law))
        rows.append([step, float(law.sum()), mean, float(np.dot((xs - mean) ** 2, law))])
        law, xs = np.convolve(law, weights), np.arange(xs[0] - 1, xs[-1] + 2)
    return ResultTable(["step", "trace", "mean_x", "var_x"], rows)


def _exp_walk(cfg: RunConfig) -> ResultTable:
    law = walk_pmf_exact(cfg.n, cfg.params)
    sample = sample_walk(cfg.n, cfg.trials, cfg.seed, cfg.params)
    # sample counts aligned to the law's sites
    counts = np.zeros(law.pmf.size, dtype=sample.counts.dtype)
    counts[sample.values - law.first] = sample.counts
    keep = ~((law.pmf < 1e-12) & (counts == 0))
    rows = [[s, p, c, c / cfg.trials] for s, p, c in
            zip(law.dx[keep].tolist(), law.pmf[keep].tolist(), counts[keep].tolist())]
    return ResultTable(["displacement", "exact_prob", "count", "empirical_prob"], rows)


def _exp_rate(cfg: RunConfig) -> ResultTable:
    xs = np.linspace(-0.999, 0.999, cfg.n + 1)
    numeric = rate_function_numeric(xs, cfg.params).tolist()
    rows = []
    for x, m in zip(xs.tolist(), numeric):
        closed = rate_function(x, cfg.params)
        rows.append([x, closed, m, abs(closed - m)])
    return ResultTable(["x", "rate_closed", "rate_numeric", "abs_diff"], rows)


def _exp_fcs_energy(cfg: RunConfig) -> ResultTable:
    # the law is the same for every reservoir of M >= n atoms, so m is only held against
    # n; it stays a run key because the benchmark's reservoir workload passes --m
    _require_atoms(cfg.n, cfg.n if cfg.m is None else cfg.m)
    be = _beta_E(cfg.params, cfg.n)
    law = walk_pmf_exact(cfg.n, cfg.params)
    # dS_p = dS_env = beta E (k - k') = -beta E S_n: the walk law reversed, so entry j
    # holds P[S_n = s_j] and ds = beta E (-s_j), in ascending order; both columns are
    # the same double, and at beta E = 0 every outcome is one 0.0 row
    pmf, sites = law.pmf[::-1], law.dx[::-1]
    live = pmf > 1e-15
    ds, inverse = np.unique(be * -sites[live] + 0.0, return_inverse=True)
    probs = np.bincount(inverse.reshape(-1), weights=pmf[live])
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
    rows = []
    for result in run_all():
        rows.append([result.name, "pass" if result.passed else "FAIL",
                     result.measured, result.tolerance,
                     result.detail.replace(",", ";")])
    return ResultTable(["check", "status", "measured", "tolerance", "detail"], rows)


# each experiment: its runner and the run keys it reads.  This one table drives
# the subcommands and their flags, the config-file key check, the fill-in of
# RunConfig and the dispatch; a key an experiment does not read is refused.
EXPERIMENTS = {
    "spectrum": (_exp_spectrum, ("window",)),
    "single-atom": (_exp_single_atom, ("n",)),
    "channel-evolve": (_exp_channel_evolve, ("n",)),
    "walk": (_exp_walk, ("n", "trials", "seed")),
    "rate": (_exp_rate, ("n",)),
    "fcs-energy": (_exp_fcs_energy, ("n", "m")),
    "fcs-position": (_exp_fcs_position, ("n",)),
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
    if cfg.experiment == "verify-all":
        failed = [row for row in table.rows if row[1] != "pass"]
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
