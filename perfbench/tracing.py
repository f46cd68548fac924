"""Spans around the calls into each starkwalk module's public functions.

The spans are recorded from the benchmark's side: for one traced pass,
every module attribute bound to a traced function is replaced by a
wrapper, so calls made through `from .state import position_distribution`
are caught as well, and the originals are put back when the pass ends.
Spans stay in memory until the run writes them out.  A span's self time
is its duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import operator
import statistics
import sys
import time
from collections import defaultdict

# module -> public functions whose calls are timed
TRACED = {
    "cli": ("run_experiment", "render"),
    "verify": ("check_channel_oracle", "check_propagator", "check_theta_identities",
               "check_transport", "check_clt", "check_ldp", "check_fluctuation",
               "check_energy_fcs", "check_position_fcs", "check_einstein",
               "check_energy_bookkeeping", "check_boundedness"),
    "fcs": ("position_cgf", "free_dressing_weights", "run_position_fcs", "free_kernel",
            "run_energy_fcs", "repeated_interaction_propagator"),
    "walk": ("walk_pmf_exact", "walk_log_pmf", "sample_walk", "rate_function",
             "rate_function_numeric"),
    "channel": ("apply_channel", "channel_oracle"),
    "state": ("position_distribution", "transform_matrix", "free_evolve"),
    "singleatom": ("oracle_unitary", "position_expectation", "propagate_closed",
                   "propagate_oracle"),
    "bessel": ("bessel_table", "bessel_j_array"),
}
# spans whose total time (children included) is reported as well
TOTALS = tuple(f"verify.{fn}" for fn in TRACED["verify"]) + ("cli.run_experiment",)


def _conv_terms(n, *args, **kwargs) -> int:
    # n steps of a 3-term convolution over supports 1, 3, ..., 2n - 1
    return 3 * n * n


# work counts computed from argument sizes at the call boundary:
# span -> (metric, count from the call's arguments, how counts combine)
COUNTS = {
    "state.position_distribution": (
        "state.position_distribution.madds",
        lambda dm, *a, **k: dm.window.n_x * dm.window.n_k**2, operator.add),
    "fcs.free_dressing_weights": (
        "fcs.free_dressing_weights.madds",
        lambda n, params, window, *a, **k: 2 * window.n_x**2 * window.n_k, operator.add),
    "walk.walk_pmf_exact": ("walk.conv_terms", _conv_terms, operator.add),
    "walk.walk_log_pmf": ("walk.conv_terms", _conv_terms, operator.add),
    # the largest joint dimension n_k 2^M of a brute-force reservoir run
    "fcs.run_energy_fcs": ("fcs.reservoir_dim", lambda cfg, *a, **k: cfg.dim, max),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            names += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.self_s", "s")]
            if f"{module}.{fn}" in TOTALS:
                names.append((f"{module}.{fn}.total_s", "s"))
    names += [(f"{module}.self_s", "s") for module in TRACED]
    names += [("trace.overhead_s", "s"),
              ("state.position_distribution.madds", "madd_computed"),
              ("fcs.free_dressing_weights.madds", "madd_computed"),
              ("walk.conv_terms", "term_computed"),
              ("fcs.reservoir_dim", "dim_computed")]
    return names


class Tracer:
    """Records spans (name, start, end, parent, op id) during traced passes."""

    def __init__(self):
        self.spans: list = []        # spans of every traced pass, in call order
        self.per_pass: list = []     # per-layer metrics of each traced pass
        self.op_id = -1
        self._stack: list = []
        self._pass_spans: list = []
        self._counts: dict = {}

    def _wrap(self, name: str, fn):
        counter = COUNTS.get(name)
        spans, stack = self._pass_spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                metric, count, combine = counter
                self._counts[metric] = combine(self._counts[metric], count(*args, **kwargs))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            return result

        return traced

    def _install(self) -> list:
        """Bind wrappers in every starkwalk module; return what to restore."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "starkwalk" or key.startswith("starkwalk."))]
        restore = []
        for module, functions in TRACED.items():
            owner = sys.modules[f"starkwalk.{module}"]
            for fn in functions:
                original = getattr(owner, fn)
                wrapper = self._wrap(f"{module}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            restore.append((m, attr, original))
                            setattr(m, attr, wrapper)
        checks = sys.modules["starkwalk.verify"].ALL_CHECKS
        for i, (label, fn) in enumerate(checks):
            restore.append((checks, i, (label, fn)))
            checks[i] = (label, getattr(sys.modules["starkwalk.verify"], fn.__name__))
        return restore

    @staticmethod
    def _uninstall(restore: list) -> None:
        for target, key, original in reversed(restore):
            if isinstance(target, list):
                target[key] = original
            else:
                setattr(target, key, original)

    def run_pass(self, body):
        """Run `body()` with every traced function wrapped; return its result."""
        self._pass_spans.clear()
        self._counts = defaultdict(int)
        restore = self._install()
        try:
            return body()
        finally:
            self._uninstall(restore)
            self._close_pass()

    def _close_pass(self) -> None:
        spans = self._pass_spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        metrics: dict = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += end - start - child[i]
            metrics[name.split(".")[0] + ".self_s"] += end - start - child[i]
            if name in TOTALS:
                metrics[f"{name}.total_s"] += end - start
        metrics.update(self._counts)
        self.per_pass.append(metrics)
        pass_id = len(self.per_pass) - 1
        origin = spans[0][1] if spans else 0.0
        self.spans += [(pass_id, op, name, start - origin, end - origin, parent)
                       for name, start, end, parent, op in spans]

    def metrics(self, overhead_s: float) -> dict:
        """Median over traced passes of every per-layer metric."""
        out = {}
        for name, unit in metric_names():
            if name == "trace.overhead_s":
                value = overhead_s
            else:
                value = statistics.median(p.get(name, 0) for p in self.per_pass)
            out[name] = {"value": value, "unit": unit}
        return out
