"""Guards on the package's public surface and its internal layering."""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stiefelprox
from stiefelprox import (
    CompositeProblem,
    SolverConfig,
    StiefelPoint,
    line_search,
    make_cm,
    make_problem,
    make_spca,
    project_tangent,
    random_point,
    retract,
    solve,
    ssn_solve,
)
from stiefelprox.bench import ExperimentSpec

PACKAGE = Path(stiefelprox.__file__).resolve().parent


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks `from stiefelprox import *`
    missing = [name for name in stiefelprox.__all__ if not hasattr(stiefelprox, name)]
    assert missing == []
    assert len(stiefelprox.__all__) == len(set(stiefelprox.__all__))


def test_every_public_import_is_exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert imported == set(stiefelprox.__all__)


def test_solver_imports_no_private_name_from_a_sibling():
    # the solver reaches the manifold only through the stiefel module's public
    # API, which owns the feasibility and tangency invariants
    tree = ast.parse((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_only_the_checks_module_imports_numbers():
    # every scalar type test goes through stiefelprox._checks, so that each
    # boundary accepts and rejects the same values with the same message
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "_checks.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(alias.name == "numbers" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "numbers"
    )
    assert importers == []


def test_only_the_tooling_module_sets_up_the_process():
    # the suite and the tool scripts share one BLAS thread rule and one src/
    # path rule, in tests/tooling.py, so they cannot drift apart again
    setters = {"os.environ.setdefault", "os.environ.update", "os.putenv", "sys.path.insert"}
    found = sorted(
        f"{path.name}: {ast.unparse(node)}"
        for path in Path(__file__).resolve().parent.glob("*.py")
        if path.name != "tooling.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func) in setters
        or isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
        and ast.unparse(node.value) == "os.environ"
    )
    assert found == []


def test_bench_module_runs_without_a_runtime_warning():
    # importing stiefelprox.bench from the package put it in sys.modules before
    # `python -m` executed it, which runpy reports as a RuntimeWarning
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "stiefelprox.bench", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--problem" in proc.stdout


@pytest.mark.parametrize(
    "script, args, code, stderr",
    [
        ("paired_timing.py", ["--help"], 0, ""),
        ("ssn_search.py", ["--help"], 0, ""),
        ("roundoff_floor.py", ["--help"], 0, ""),
        ("basins.py", ["--help"], 0, ""),
        ("paired_timing.py", ["src", "src", "--rounds", "0"], 2, "argument --rounds: must be at least 1, got 0"),
        ("paired_timing.py", ["src", "src", "--seeds", "3-1"], 2, "argument --seeds: empty seed range '3-1'"),
        ("ssn_search.py", ["--seeds", "0"], 2, "argument --seeds: must be at least 1, got 0"),
        ("ssn_search.py", ["--seeds", "-3"], 2, "argument --seeds: must be at least 1, got -3"),
        ("basins.py", ["--seeds", "3"], 2, "unrecognized arguments: --seeds 3"),
    ],
    ids=["paired-help", "ssn-help", "roundoff-help", "basins-help", "paired-no-rounds", "paired-no-seeds",
         "ssn-no-seeds", "ssn-negative-seeds", "basins-no-options"],
)
def test_tool_scripts_parse_their_arguments(script, args, code, stderr):
    # pytest collects none of the scripts, so a broken import or parser would
    # go unnoticed; a subprocess keeps their BLAS settings out of this process.
    # Parsing alone must not rewrite the committed roundoff-floor fixture.
    tool = Path(__file__).resolve().parent / script
    fixture = tool.with_name("roundoff_floor.npz")
    written = fixture.stat().st_mtime_ns
    proc = subprocess.run([sys.executable, str(tool), *args], capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert stderr in proc.stderr
    if code == 0:
        assert "usage:" in proc.stdout
    assert fixture.stat().st_mtime_ns == written


def test_solve_calls_no_numpy_python_wrappers(monkeypatch):
    # on 64 x 4 arrays the Python layer of np.sum and friends cost a measurable
    # share of each outer iteration; the array methods and BLAS dot do the same
    # arithmetic without it
    problems = [(make_cm(16, 2, 0.1), 16, 2), (make_spca(20, 3, 0.5, 0), 20, 3)]
    calls = []
    for module, name in [(np, "sum"), (np, "all"), (np, "zeros_like"), (np.linalg, "norm")]:
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    for prob, n, r in problems:
        assert solve(prob, random_point(n, r, 0)).trace
    assert calls == []


def test_solving_leaves_scipy_unimported():
    # the package and its bench need only numpy; importing scipy.sparse
    # raised every benchmark workload's peak RSS by about 13 MB
    code = (
        "import sys\n"
        "import stiefelprox, stiefelprox.bench\n"
        "from stiefelprox import make_cm, make_spca, random_point, solve\n"
        "solve(make_cm(16, 2, 0.1), random_point(16, 2, 0))\n"
        "solve(make_spca(40, 4, 0.5, 0), random_point(40, 4, 0))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


X16 = random_point(16, 2, 0)
RAW_ARGUMENTS = {
    "retract-array": (lambda: retract(X16.data), "xi must be a TangentVector, got ndarray"),
    "retract-point": (lambda: retract(X16), "xi must be a TangentVector, got StiefelPoint"),
    "line_search-array": (
        lambda: line_search(make_cm(16, 2, 0.1), X16.data, np.ones(16), 0.0, SolverConfig()),
        "v must be a TangentVector, got ndarray",
    ),
    "ssn_solve-array": (
        lambda: ssn_solve(X16.data, np.zeros((16, 2)), np.ones(16), 0.1),
        "X must be a StiefelPoint, got ndarray",
    ),
    "project_tangent-array": (
        lambda: project_tangent(X16.data, np.zeros((16, 2))),
        "X must be a StiefelPoint, got ndarray",
    ),
}


@pytest.mark.parametrize("case", RAW_ARGUMENTS)
def test_manifold_entry_points_reject_raw_arguments(case):
    # each used to fail deep inside, on a missing attribute of the array's
    # memoryview or of the point, or on a memoryview product
    call, message = RAW_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


SIZE_CHECKS = {
    "make_problem": lambda n, r: make_problem("cm", n, r, 0.1),
    "random_point": lambda n, r: random_point(n, r, 0),
    "StiefelPoint": lambda n, r: StiefelPoint(np.zeros((n, r))),
    "ExperimentSpec": lambda n, r: ExperimentSpec("cm", n_values=(n,), r_values=(r,), mu_values=(0.1,)),
    "CompositeProblem": lambda n, r: CompositeProblem(lambda X: 0.0, np.zeros_like, 0.1, 1.0, (n, r)),
}


@pytest.mark.parametrize("entry", SIZE_CHECKS)
@pytest.mark.parametrize("n, r", [(8, 9), (8, 0)], ids=["wide", "no-columns"])
def test_every_entry_point_states_one_size_rule(entry, n, r):
    # the rule "integers with 1 <= r <= n" is written once, in _checks.py
    with pytest.raises(ValueError) as info:
        SIZE_CHECKS[entry](n, r)
    assert str(info.value) == f"need 1 <= r <= n, got n={n}, r={r}"


REAL_CHECKS = {
    "SolverConfig.sigma0": lambda value: SolverConfig(sigma0=value),
    "CompositeProblem.mu": lambda value: CompositeProblem(lambda X: 0.0, np.zeros_like, value, 1.0, (16, 2)),
    "CompositeProblem.lipschitz_estimate": (
        lambda value: CompositeProblem(lambda X: 0.0, np.zeros_like, 0.1, value, (16, 2))
    ),
    "ssn_solve.mu": lambda value: ssn_solve(X16, np.zeros((16, 2)), np.ones(16), value),
}


@pytest.mark.parametrize("entry", REAL_CHECKS)
@pytest.mark.parametrize("value", [np.float32("inf"), np.float32("nan")], ids=["inf", "nan"])
def test_every_real_check_rejects_non_finite_float32(entry, value):
    # float32 inf used to pass: the bound sys.float_info.max was cast to
    # float32, where it overflows to inf with a RuntimeWarning
    name = entry.split(".")[1]
    with pytest.raises(ValueError) as info:
        REAL_CHECKS[entry](value)
    message = str(info.value)
    assert message.startswith(f"{name} must be a finite number") and message.endswith(f"0, got {value!r}")


@pytest.mark.parametrize("entry", REAL_CHECKS)
def test_every_real_check_accepts_finite_float32_without_a_warning(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        REAL_CHECKS[entry](np.float32(0.5))
