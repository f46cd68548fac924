"""The public surface: routes that only the tests call live in `conftest.py`, no
module of the package imports a name it never uses, the runtime loads no test
oracle, `Tolerances` holds only what the package or the benchmark reads, and every
name the benchmark binds still resolves."""
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import starkwalk
from starkwalk.config import Tolerances
from starkwalk.fcs import ReservoirConfig, run_energy_fcs
from starkwalk.params import ModelParams
from starkwalk.singleatom import AtomGibbs, JointDensityMatrix
from starkwalk.state import LatticeWindow, ParticleDensityMatrix
from starkwalk.walk import sample_walk, walk_pmf_exact

# routes moved to tests/conftest.py: no caller in the package, its CLI or its benchmark
TEST_ONLY_ROUTES = ("adjoint_apply", "apply_deformed", "rate_function_entropy",
                    "environment_reduced_map", "closed_unitary", "from_diagonal",
                    "check_density", "hermiticity_defect", "min_eigenvalue", "line")

SOURCES = sorted(Path(starkwalk.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).parents[1] / "perfbench"


def package_modules() -> list:
    """starkwalk and each starkwalk.* module but `__main__`, which runs the CLI."""
    names = [info.name for info in pkgutil.iter_modules(starkwalk.__path__)]
    return [starkwalk] + [importlib.import_module(f"starkwalk.{name}")
                          for name in names if name != "__main__"]


P = ModelParams(E=2.0, F=1.0, lam=0.5, tau=1.0, beta=1.0)
RHO = ParticleDensityMatrix.eigenstate(LatticeWindow(-3, 3, -3, 3), 0)
# each record that holds an array, built twice from the same inputs
ARRAY_RECORDS = {
    "LatticeLaw": lambda: walk_pmf_exact(5, P),
    "ParticleDensityMatrix": lambda: ParticleDensityMatrix.eigenstate(RHO.window, 0),
    "JointDensityMatrix": lambda: JointDensityMatrix.product(
        RHO, AtomGibbs.from_params(P).density()),
    "WalkSample": lambda: sample_walk(5, 10, 0, P),
    "EnergyFcsResult": lambda: run_energy_fcs(ReservoirConfig(P, 2)),
}


@pytest.mark.parametrize("build", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS)
def test_array_records_compare_and_hash_by_identity(build):
    # a field-wise == would ask an array for its truth value, and a field-wise hash
    # would hash an array; each record is equal to itself alone
    a, b = build(), build()
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert len({a, b, a}) == 2


def test_test_only_routes_are_not_in_the_package():
    # neither a module attribute nor an attribute of a class the package defines
    for module in package_modules():
        classes = [obj for _, obj in inspect.getmembers(module, inspect.isclass)
                   if obj.__module__.startswith("starkwalk")]
        for owner in (module, *classes):
            present = [name for name in TEST_ONLY_ROUTES if hasattr(owner, name)]
            assert not present, (owner.__name__, present)


def test_every_tolerance_is_read_by_the_package_or_the_benchmark():
    # every CLI output embeds the whole record, so a field that neither reads belongs to
    # the tests' own bounds (conftest.SuiteTolerances); a read of a field the record
    # lacks would fail when it runs
    read = {name for path in SOURCES + sorted(PERFBENCH.glob("*.py"))
            for name in re.findall(r"\bTOL\.(\w+)", path.read_text())}
    assert read == {field.name for field in dataclasses.fields(Tolerances)}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The name each import binds, mapped to the line of its import (`__future__` aside)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_runtime_imports_no_scipy_or_mpmath():
    # the package and its CLI need numpy alone: a fresh interpreter that imports both
    # loads no module of the tests' oracles
    code = ("import sys, starkwalk, starkwalk.cli; "
            "loaded = [m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')]; "
            "assert not loaded, loaded")
    env = {**os.environ, "PYTHONPATH": str(Path(starkwalk.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def _perfbench_module(name: str, monkeypatch):
    """perfbench/<name>.py, imported from its file as `perfbench_<name>`."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["verify", "walk", "evolve", "reservoir"])
def test_enforced_workload_passes_a_traced_pass(workload, monkeypatch):
    # a traced pass binds every traced name by getattr and calls each work counter on
    # its call's arguments, so a renamed route or a counter that reads a gone attribute
    # fails here; then every gate of the workload's ops must pass
    workloads = _perfbench_module("workloads", monkeypatch)
    tracing = _perfbench_module("tracing", monkeypatch)
    inputs = (workloads.reference_inputs(workload)
              or workloads.make_inputs(workload, workloads.REFERENCE_SEED))
    ops = workloads.build_ops(workload, inputs)
    outputs = tracing.Tracer().run_pass(lambda: [op.run() for op in ops])
    failed = [(op.name, gate) for op, out in zip(ops, outputs)
              for gate in op.gates(out) if not gate.ok]
    assert not failed


def _is_argument(node, names: set) -> bool:
    """Whether node is one of `names` as given, or as a `_require_*` helper or float()
    returns it."""
    if isinstance(node, ast.Name):
        return node.id in names
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args
            and (node.func.id == "float" or node.func.id.startswith("_require_"))
            and _is_argument(node.args[0], names))


def argument_tests(tree: ast.Module) -> list[tuple[str, int]]:
    """(function, line) of each call in a function of `tree` that asks one of its own
    arguments whether it is NaN (`math.isnan`, `np.isnan`) or a bool (`isinstance`).

    An argument is a parameter, a name bound to one (`xs = _require_reals(x, "x")`) and
    the first name of a loop over (parameter, ...) tuples; a value the function computed
    from its arguments is none.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        signature = node.args
        names = {arg.arg for arg in (*signature.posonlyargs, *signature.args,
                                     *signature.kwonlyargs)}
        for bind in ast.walk(node):
            if isinstance(bind, ast.Assign) and _is_argument(bind.value, names):
                names |= {target.id for target in bind.targets if isinstance(target, ast.Name)}
            elif (isinstance(bind, ast.For) and isinstance(bind.target, ast.Tuple)
                  and isinstance(bind.iter, (ast.Tuple, ast.List))
                  and isinstance(bind.target.elts[0], ast.Name)
                  and any(isinstance(item, ast.Tuple) and _is_argument(item.elts[0], names)
                          for item in bind.iter.elts)):
                names.add(bind.target.elts[0].id)
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call) and call.args
                    and _is_argument(call.args[0], names)):
                continue
            func = call.func
            nan_test = (isinstance(func, ast.Attribute) and func.attr == "isnan"
                        and isinstance(func.value, ast.Name)
                        and func.value.id in ("math", "np", "numpy"))
            bool_test = (isinstance(func, ast.Name) and func.id == "isinstance"
                         and len(call.args) == 2 and "bool" in ast.unparse(call.args[1]))
            if nan_test or bool_test:
                found.append((getattr(node, "name", "<lambda>"), call.lineno))
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "params.py"],
                         ids=lambda p: p.name)
def test_only_params_tests_an_argument_for_nan_or_bool(path):
    # NaN and bool are refused by `params._require_real` under the argument's own name;
    # a NaN check of a value the function computed, such as log_theta's result, is its own
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not argument_tests(tree), f"{path.name}: {argument_tests(tree)}"
