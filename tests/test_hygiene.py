"""Import hygiene: every name a module imports is read in that module, and
numpy is a test-only dependency.  Reachability: every function and every
``raise`` in ``src/`` runs in some command, or is listed with its reason.

No linter runs over this repository, so an import left behind by a change
would otherwise go unnoticed.  ``pyproject.toml`` declares no runtime
dependency, and the only numpy import in ``src/`` is inside
``Operator.matrix``, which the tests' oracle reads: every command, help,
usage and config error runs without numpy, and no default run loads
``numpy.random``, ``dataclasses`` or ``inspect``.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def numpy_imports_at_import_time(source: str) -> list[int]:
    """Lines that import numpy when the module is imported: any statement
    outside a function body, class bodies included, but not under
    ``if TYPE_CHECKING:``, which never runs."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child)
            return
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        if any(n == "numpy" or n.startswith("numpy.") for n in names):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "wignerlab").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_numpy_at_import_time(path):
    assert numpy_imports_at_import_time(path.read_text(encoding="utf-8")) == []


def numpy_imports_outside_operator_matrix(source: str) -> list[int]:
    """Lines that import numpy anywhere but in ``Operator.matrix`` or under
    ``if TYPE_CHECKING:``."""
    found = []

    def visit(node, inside_matrix):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child, inside_matrix)
            return
        if isinstance(node, ast.ClassDef) and node.name == "Operator":
            for child in node.body:
                visit(child, isinstance(child, ast.FunctionDef) and child.name == "matrix")
            return
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        if any(n == "numpy" or n.startswith("numpy.") for n in names) and not inside_matrix:
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside_matrix)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "wignerlab").glob("*.py")),
                         ids=lambda p: p.name)
def test_numpy_is_imported_only_by_operator_matrix(path):
    assert numpy_imports_outside_operator_matrix(path.read_text(encoding="utf-8")) == []


def test_the_matrix_import_check_finds_other_imports():
    source = textwrap.dedent("""\
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            import numpy as np
        class Operator:
            def matrix(self):
                import numpy as np
            def other(self):
                import numpy as np
        def f():
            from numpy import linalg
        """)
    assert numpy_imports_outside_operator_matrix(source) == [8, 10]


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == []
    assert any(d.startswith("numpy") for d in project["optional-dependencies"]["test"])


def test_the_numpy_import_check_finds_module_level_imports():
    source = ("import numpy as np\n"
              "from numpy.linalg import norm\n"
              "from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n    import numpy\n"
              "class C:\n    import numpy\n"
              "def f():\n    import numpy as np\n")
    assert numpy_imports_at_import_time(source) == [1, 2, 7]


# A fresh interpreter per case: import the CLI, run ``main`` on the
# arguments if there are any, and print its exit status, then whether each
# of numpy, numpy.random, dataclasses and inspect was loaded.
PROBE = """
import contextlib, io, sys
import wignerlab.cli
args = sys.argv[1:]
status = None
if args:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = wignerlab.cli.main(args)
def loaded(module):
    return any(name == module or name.startswith(module + ".") for name in sys.modules)
print(status, *(loaded(m) for m in ("numpy", "numpy.random", "dataclasses", "inspect")))
"""


def run_probe(tmp_path, args) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("WIGNERLAB_OUT", None)
    argv = [a.format(out=tmp_path) for a in args]
    result = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=60, check=True)
    return result.stdout.split()


@pytest.mark.parametrize("args,expected", [
    pytest.param([], "None False", id="import"),
    pytest.param(["frames", "--out", "{out}"], "0 False", id="frames"),
    pytest.param(["--help"], "0 False", id="help"),
    pytest.param(["--version"], "0 False", id="version"),
    pytest.param(["nope"], "2 False", id="unknown-command"),
    pytest.param(["paradox", "--lab-width", "0"], "2 False", id="config-error"),
    # psi is built exactly, and each context samples its own SHA-256 stream.
    pytest.param(["ghz-check", "--out", "{out}"], "0 False", id="ghz-check"),
    pytest.param(["paradox", "--out", "{out}"], "0 False", id="paradox"),
    pytest.param(["paradox", "--lab-width", "57", "--out", "{out}"], "0 False",
                 id="paradox-w57"),
    # commutes sweeps the phases of each overlapping pair, and the reference
    # channel iterates an entries form over supp(psi) x supp(psi).
    pytest.param(["contexts", "--out", "{out}"], "0 False", id="contexts"),
    pytest.param(["contexts", "--lab-width", "57", "--out", "{out}"], "0 False",
                 id="contexts-w57"),
    pytest.param(["decohere", "--out", "{out}"], "0 False", id="decohere"),
    pytest.param(["decohere", "--lab-width", "57", "--out", "{out}"], "0 False",
                 id="decohere-w57"),
])
def test_numpy_is_loaded_only_by_dense_work(tmp_path, args, expected):
    assert " ".join(run_probe(tmp_path, args)[:2]) == expected


COMMANDS = ("ghz-check", "paradox", "contexts", "frames", "decohere")


@pytest.mark.parametrize("command", COMMANDS)
def test_no_default_run_loads_numpy_random(tmp_path, command):
    assert run_probe(tmp_path, [command, "--out", "{out}"])[2] == "False"


# Records are frozen value classes built by ``wignerlab._record.record``,
# which generates no source: neither importing the CLI nor running a command
# loads ``dataclasses`` or the ``inspect`` module it imports.
@pytest.mark.parametrize("args", [[]] + [[command, "--out", "{out}"] for command in COMMANDS],
                         ids=["import", *COMMANDS])
def test_no_command_loads_dataclasses_or_inspect(tmp_path, args):
    assert run_probe(tmp_path, args)[3:] == ["False", "False"]


# numpy made unimportable: a ``sys.meta_path`` finder raises for every numpy
# module, then ``main`` runs each argument list given as JSON and the exit
# statuses are printed.
NO_NUMPY = """
import contextlib, io, json, sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is unimportable here")

sys.meta_path.insert(0, NoNumpy())
import wignerlab.cli
statuses = []
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        statuses.append(wignerlab.cli.main(args))
print(statuses)
"""


def test_benchmark_invocations_run_where_numpy_cannot_be_imported(tmp_path):
    # Every command on its defaults, the wide runs of both benchmark
    # passes (paradox and contexts at width 4, decohere's width-2 config),
    # and contexts and decohere at the widest lab.
    config = tmp_path / "decohere-w2.json"
    config.write_text(json.dumps({"lab_width": 2, "seed": 1, "dephasing": {
        "target": "L1", "strength": 0.5, "steps": 5}}), encoding="utf-8")
    runs = [[command] for command in ("ghz-check", "frames", "paradox", "contexts",
                                      "decohere")]
    runs += [["paradox", "--lab-width", "4", "--seed", "7"], ["contexts", "--lab-width", "4"],
             ["contexts", "--lab-width", "57"], ["decohere", "--lab-width", "57"],
             ["decohere", "--config", str(config)]]
    runs = [args + ["--out", str(tmp_path / "out")] for args in runs]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", NO_NUMPY, json.dumps(runs)], env=env,
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str([0] * len(runs))


# numpy made unimportable, then one commuting overlapping pair decided at
# lab width 11, where the pointer register has dimension 2048.
NO_NUMPY_COMMUTES = NO_NUMPY.split("import wignerlab.cli")[0] + """
from wignerlab import qcore
from wignerlab.scenario import ScenarioModel
model = ScenarioModel(11)
print(qcore.commutes(model.record_observable("Alice"), model.record_observable("Alice")))
"""


def test_commuting_overlapping_pair_is_decided_where_numpy_cannot_be_imported(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", NO_NUMPY_COMMUTES], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"


# Every function compiled from ``src/wignerlab`` runs in some command.  A
# fresh interpreter sets ``sys.settrace`` before importing the CLI, runs
# ``main`` on each argument list given as JSON, and prints the (file, first
# line, name) of every package code object that was called, and the (file,
# line) of every package line that ran.  Code objects are matched on those
# three, not on ``co_qualname``, which Python 3.10 lacks.
REACHED = """
import contextlib, importlib.util, io, json, os, sys

package = os.path.dirname(importlib.util.find_spec("wignerlab").origin)
called, lines = set(), set()

def trace(frame, event, arg):
    called.add(frame.f_code)
    if os.path.dirname(frame.f_code.co_filename) == package:
        return trace_lines

def trace_lines(frame, event, arg):
    if event == "line":
        lines.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
    return trace_lines

sys.settrace(trace)
import wignerlab.cli
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        wignerlab.cli.main(args)
sys.settrace(None)
print(json.dumps({"called": sorted((os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
                                   for c in called if os.path.dirname(c.co_filename) == package),
                  "lines": sorted(lines)}))
"""

# Functions no command calls, each kept for a reader outside the commands.
UNREACHED = {
    "matrix": "Operator.matrix: the dense array read by the tests' oracle and "
              "the benchmark's tracer",
    "__repr__": "a record's or state's repr, read when debugging",
    "_frozen": "_record: raises on assignment to a record, which no command makes",
    "entry": "cli.entry: the console script, which calls main and exits",
}

# Raises no command reaches, keyed by (file, enclosing function, exception
# class), each kept for the reason given.  Every other raise runs in a
# command: an argument that every caller builds from constants or from the
# validated config is not checked again.
_INVARIANT = "a constructor invariant that later arithmetic relies on"
_LAYOUTS = "layout agreement: with a wrong layout, _lift's shifts give wrong numbers silently"
_VERDICT = "a computed result that a report verdict rests on"
KEPT_RAISES = {
    ("qcore.py", "RegisterLayout.__post_init__", "LabelClashError"): _INVARIANT,
    ("qcore.py", "RegisterLayout.__post_init__", "ValueError"): _INVARIANT,
    ("qcore.py", "SparseState.__init__", "LayoutMismatchError"): _INVARIANT,
    ("qcore.py", "SparseState.__init__", "ValueError"): _INVARIANT,
    ("qcore.py", "Operator.from_pauli_mask", "ValueError"): _INVARIANT,
    ("stabilizer.py", "PauliString.__post_init__", "ValueError"): _INVARIANT,
    ("_record.py", "_frozen", "AttributeError"): "a record is immutable; no command assigns",
    ("_record.py", "record.__init__", "TypeError"): "a record's arity; no command misbuilds one",
    ("qcore.py", "RegisterLayout.axis", "UnknownLabelError"): _LAYOUTS,
    ("qcore.py", "RegisterLayout.subset", "UnknownLabelError"): _LAYOUTS,
    ("qcore.py", "_check_sublayout", "LayoutMismatchError"): _LAYOUTS,
    ("qcore.py", "_union_layout", "LayoutMismatchError"): _LAYOUTS,
    ("qcore.py", "BornTable.__post_init__", "ValueError"): _VERDICT,
    ("qcore.py", "_joint_observables", "ContextIncompatibleError"): _VERDICT,
    ("paradox.py", "_check_shared_marginals", "MarginalMismatchError"): _VERDICT,
}


def named_code_objects(path: pathlib.Path) -> set[tuple[str, int, str]]:
    """(file, first line, name) of each function and class body in ``path``;
    comprehensions, lambdas and the module body are not named."""
    found = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
        if not code.co_name.startswith("<"):
            found.add((path.name, code.co_firstlineno, code.co_name))
    return found


def raise_statements(source: str) -> list[tuple[int, int, str, str]]:
    """(first line, last line, enclosing function's qualified name, exception
    class) of each ``raise`` in ``source``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((child.lineno, child.end_lineno, ".".join(scope), ast.unparse(exc)))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_raise_statements_are_keyed_by_scope_and_class():
    source = textwrap.dedent("""\
        class C:
            def f(self):
                def g():
                    raise KeyError(
                        "k")
                raise ValueError from None
        def h():
            raise E
        """)
    assert raise_statements(source) == [(4, 5, "C.f.g", "KeyError"), (6, 6, "C.f", "ValueError"),
                                      (8, 8, "h", "E")]


# A default-shaped geometry scaled by 1e200: its Gram entries are no floats.
FAR_GEOMETRY = {"events": {
    label: [t * 1e200, x * 1e200, y * 1e200, 0.0]
    for label, (t, x, y) in zip("ABCUVW", ((1, 0, 0), (1, 5, 0), (1, 0, 5),
                                           (2, 0, 0), (2, 5, 0), (2, 0, 5)))}}


def test_every_src_function_runs_in_a_command(tmp_path):
    # Each invalid config reaches one raise of the config checks or of the
    # generators' own checks.
    configs = {
        "collinear": ("contexts", {"geometry": "collinear"}),
        "custom": ("frames", {"geometry": {"events": {
            "A": [0, 0, 0, 0], "B": [0.1, 1, 0, 0], "C": [0.3, 3, 0, 0],
            "U": [0.5, -0.4, 0, 0], "V": [0.6, 1.4, 0, 0], "W": [0.8, 3.4, 0, 0]}}}),
        "dependent": ("ghz-check", {"generators": ["+XZZ", "+XZZ", "+ZZX"]}),
        "anticommuting": ("ghz-check", {"generators": ["+XZZ", "+ZZZ", "+ZZX"]}),
        "not-a-list": ("ghz-check", {"generators": "+XZZ"}),
        "bad-letter": ("ghz-check", {"generators": ["+XQZ", "+ZXZ", "+ZZX"]}),
        "two-letters": ("ghz-check", {"generators": ["+XZ", "+ZXZ", "+ZZX"]}),
        "invalid": ("paradox", {"nope": 1}),
        "unread": ("frames", {"robust_tol": 0.1}),
        "out-of-range": ("paradox", {"lab_width": 0}),
        "no-geometry": ("frames", {"geometry": "spherical"}),
        "few-events": ("frames", {"geometry": {"events": {"A": [0, 0, 0, 0]}}}),
        "short-event": ("frames", {"geometry": {"events": dict.fromkeys("ABCUVW", [0])}}),
        "far": ("frames", {"geometry": FAR_GEOMETRY}),
        "no-object": ("decohere", {"dephasing": 1}),
        "unknown-field": ("decohere", {"dephasing": {"rate": 2}}),
    }
    runs = []
    out = str(tmp_path / "out")
    for name, (command, config) in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
        runs.append([command, "--config", str(tmp_path / f"{name}.json"), "--out", out])
    (tmp_path / "afile").touch()
    (tmp_path / "broken.json").write_text("{", encoding="utf-8")
    (tmp_path / "array.json").write_text("[]", encoding="utf-8")
    runs += [[command, "--out", out] for command in COMMANDS]
    runs += [["frames", "--config", str(tmp_path / name)]
             for name in ("missing.json", "broken.json", "array.json")]
    runs += [["paradox", "--format", "json", "--out", out], ["--help"], ["--version"],
             ["nope"], ["frames", "--out", str(tmp_path / "afile")]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("WIGNERLAB_OUT", None)
    result = subprocess.run([sys.executable, "-c", REACHED, json.dumps(runs)], env=env,
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    reached = json.loads(result.stdout)
    called = {tuple(entry) for entry in reached["called"]}
    sources = sorted((ROOT / "src" / "wignerlab").glob("*.py"))
    compiled = set().union(*map(named_code_objects, sources))
    never = sorted(f"{file}:{line} {name}" for file, line, name in compiled - called
                   if name not in UNREACHED)
    assert not never, "no command runs " + ", ".join(never)
    stale = set(UNREACHED) - {name for _, _, name in compiled - called}
    assert not stale, f"a command runs {sorted(stale)}; drop them from UNREACHED"

    ran = {tuple(entry) for entry in reached["lines"]}
    unreached = [(path.name, first, scope, exc) for path in sources
                 for first, last, scope, exc in raise_statements(path.read_text("utf-8"))
                 if not any((path.name, line) in ran for line in range(first, last + 1))]
    never = sorted(f"{file}:{line} {scope} raises {exc}" for file, line, scope, exc in unreached
                   if (file, scope, exc) not in KEPT_RAISES)
    assert not never, "no command runs " + ", ".join(never)
    stale = set(KEPT_RAISES) - {(file, scope, exc) for file, _, scope, exc in unreached}
    assert not stale, f"a command runs {sorted(stale)}; drop them from KEPT_RAISES"
