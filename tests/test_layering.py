"""Import-layering guards.

``repro.telemetry`` is the leaf every layer reports metrics through, so it
must stay importable on its own: standard library only, no other ``repro``
module.  ``repro.tensor.kernels`` holds the one forward spelling of every
replayable op: it imports only numpy and the standard library, and no other
module defines a ``_k_*`` kernel.  ``repro.inference`` sits below
``repro.serving`` and must not
import it at module level (that is the cycle the leaf exists to break).
The HTTP gateway never runs a model: every inference it serves, stream ticks
included, goes through ``ImputationService``, which admits a request and
runs a batch's retries at one call site each for inline and pooled batches.  ``inference/backend.py`` is the
one module that knows window geometry and drives the engine; the engine only
samples plans.  Only ``repro.io`` spells the artifact's file names or
defines its on-disk signature, the one staleness rule of every artifact
cache.  And no module keeps an import it does not use, ends a line
in whitespace, ends without exactly one newline or compiles with a warning
(stdlib checks, so they run without a linter).  The benchmark's tracer
(``perfbench/tracing.py``) finds every serving name it wraps and puts each
original back on uninstall.
"""

import ast
import json
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Imports one leaf module (``argv[2]``) in a fresh interpreter.  Package
# ``__init__`` files re-export their subpackages (``repro/__init__.py`` the
# whole library), so every package above the leaf is replaced by a bare
# package object over the same directory: the import statement, the finder
# and the module file are the real ones, and any ``repro.*`` module or
# third-party package the leaf pulls in shows up in ``sys.modules``.
_PROBE = """
import importlib, json, sys, types
baseline = set(sys.modules)
parts = sys.argv[2].split(".")
packages = [".".join(parts[:depth]) for depth in range(1, len(parts))]
for name in packages:
    package = types.ModuleType(name)
    package.__path__ = [sys.argv[1] + "/" + name.replace(".", "/")]
    sys.modules[name] = package
importlib.import_module(sys.argv[2])
loaded = sorted(set(sys.modules) - baseline - set(packages))
print(json.dumps(loaded))
"""


def _leaf_imports(module):
    """Every module a fresh interpreter loads to import ``module`` alone."""
    result = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), module],
                            capture_output=True, text=True, check=True,
                            timeout=60)
    return json.loads(result.stdout)


def test_telemetry_imports_only_the_stdlib():
    loaded = _leaf_imports("repro.telemetry")
    assert "repro.telemetry" in loaded
    internal = [name for name in loaded
                if name.startswith("repro.") and name != "repro.telemetry"]
    assert internal == []
    third_party = [name for name in loaded if not name.startswith("repro.")
                   and name.split(".")[0] not in sys.stdlib_module_names]
    assert third_party == []


def test_kernels_import_only_numpy_and_the_stdlib():
    loaded = _leaf_imports("repro.tensor.kernels")
    assert "repro.tensor.kernels" in loaded and "numpy" in loaded
    internal = [name for name in loaded
                if name.startswith("repro.") and name != "repro.tensor.kernels"]
    assert internal == []
    third_party = {name.split(".")[0] for name in loaded
                   if not name.startswith("repro.")} - set(sys.stdlib_module_names)
    assert third_party == {"numpy"}


def _kernel_definitions(tree):
    """``(line, name)`` of every function (at any depth) or module-level
    assignment in ``tree`` that binds a ``_k_*`` name."""
    hits = [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_k_")]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            hits.extend((node.lineno, target.id) for target in node.targets
                        if isinstance(target, ast.Name)
                        and target.id.startswith("_k_"))
    return sorted(hits)


def test_only_the_kernel_module_defines_kernels():
    definers = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        hits = _kernel_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            definers[path.relative_to(SRC / "repro").as_posix()] = len(hits)
    assert list(definers) == ["tensor/kernels.py"]
    assert definers["tensor/kernels.py"] > 30


def test_kernel_definition_check_sees_functions_and_aliases():
    tree = ast.parse("from .kernels import _k_softmax\n"
                     "def _k_gelu(out, p, a):\n"
                     "    return a\n"
                     "class Planner:\n"
                     "    def _k_silu(self, out, p, a):\n"
                     "        return a\n"
                     "_k_sigmoid = _k_softmax\n"
                     "softmax = _k_softmax\n")
    assert _kernel_definitions(tree) == [(2, "_k_gelu"), (5, "_k_silu"),
                                         (7, "_k_sigmoid")]


_ARTIFACT_FILE_NAMES = ("manifest.json", "arrays.npz")
_SIGNATURE_NAMES = ("_artifact_signature", "_ARTIFACT_FILES")


def _artifact_layout(tree):
    """``(line, what)`` of every place ``tree`` spells the artifact layout
    itself: a string literal naming an artifact file (docstrings aside) or
    a definition of the artifact signature (importing it is a use)."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            hits.extend((node.lineno, name) for name in _ARTIFACT_FILE_NAMES
                        if name in node.value)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name in _SIGNATURE_NAMES):
            hits.append((node.lineno, node.name))
        elif isinstance(node, ast.Assign):
            hits.extend((node.lineno, target.id) for target in node.targets
                        if isinstance(target, ast.Name)
                        and target.id in _SIGNATURE_NAMES)
    return sorted(hits)


def test_only_repro_io_spells_the_artifact_layout():
    """The artifact's file names and its on-disk signature — the one
    staleness rule every artifact cache checks — live in ``repro.io``."""
    spellers = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        hits = _artifact_layout(ast.parse(path.read_text(encoding="utf-8")))
        if hits:
            spellers[path.relative_to(SRC / "repro").as_posix()] = hits
    assert "io/artifacts.py" in spellers
    assert [path for path in spellers if not path.startswith("io/")] == []


def test_artifact_layout_check_sees_literals_and_definitions():
    tree = ast.parse('"""Layout: manifest.json + arrays.npz."""\n'
                     "import os\n"
                     'MANIFEST = "manifest.json"\n'
                     "def _artifact_signature(path):\n"
                     '    """Stats arrays.npz."""\n'
                     '    return os.stat(f"{path}/arrays.npz")\n'
                     "_ARTIFACT_FILES = (MANIFEST,)\n"
                     "from .io.artifacts import _artifact_signature as probe\n")
    assert _artifact_layout(tree) == [(3, "manifest.json"),
                                      (4, "_artifact_signature"),
                                      (6, "arrays.npz"),
                                      (7, "_ARTIFACT_FILES")]


def _module_level_imports(tree, package):
    """Absolute names of the modules imported by ``tree``'s module-level
    statements (function and class bodies are skipped)."""
    names = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.split(".")[:len(package.split(".")) - node.level + 1]
                base = ".".join(parent + ([base] if base else []))
            names.append(base)
            names.extend(f"{base}.{alias.name}" for alias in node.names)
        else:
            pending.extend(child for child in ast.iter_child_nodes(node)
                           if isinstance(child, ast.stmt))
    return names


def test_inference_does_not_import_serving_at_module_level():
    files = sorted((SRC / "repro" / "inference").glob("*.py"))
    assert files
    offenders = {}
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hits = [name for name in _module_level_imports(tree, "repro.inference")
                if name == "repro.serving" or name.startswith("repro.serving.")]
        if hits:
            offenders[path.name] = hits
    assert offenders == {}


def test_relative_imports_resolve_against_the_package():
    tree = ast.parse("from ..serving import faults\n"
                     "from . import engine\n"
                     "def hook():\n"
                     "    from ..serving import pool\n")
    names = _module_level_imports(tree, "repro.inference")
    assert "repro.serving" in names and "repro.serving.faults" in names
    assert "repro.inference.engine" in names
    assert "repro.serving.pool" not in names


_MODEL_CALLS = {"backend", "load", "impute_arrays"}


def _calls(tree, names):
    """``(line, name)`` of every call in ``tree`` to a function or method
    named in ``names`` (``np.load``, which decodes an NPZ request body, is
    not a model load)."""
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "np":
                continue
            name = func.attr
        else:
            name = func.id if isinstance(func, ast.Name) else None
        if name in names:
            hits.append((node.lineno, name))
    return hits


def test_gateway_never_loads_or_runs_a_model():
    path = SRC / "repro" / "serving" / "gateway.py"
    assert _calls(ast.parse(path.read_text(encoding="utf-8")),
                  _MODEL_CALLS) == []


def test_model_call_check_sees_method_and_function_calls():
    tree = ast.parse("registry.backend(spec)\n"
                     "self.service.registry.load(spec)\n"
                     "impute_arrays(values)\n"
                     "np.load(body)\n"
                     "def impute_arrays(self):\n"
                     "    return service.submit(request)\n")
    assert _calls(tree, _MODEL_CALLS) == [(1, "backend"), (2, "load"),
                                          (3, "impute_arrays")]


#: The steps of a served batch's life that ``serving/service.py`` writes once
#: for inline and pooled batches alike.
_LIFECYCLE_CALLS = ("_check_request", "_admission_error", "execute_batch",
                    "should_retry", "_backoff_sleep")


def test_service_has_one_batch_lifecycle():
    """Admission, execution and the retry decision each have one call site
    in the service: ``submit`` and ``serve`` share one admission step, and
    inline and pooled batches one runner."""
    path = SRC / "repro" / "serving" / "service.py"
    sites = _calls(ast.parse(path.read_text(encoding="utf-8")),
                   _LIFECYCLE_CALLS)
    assert sorted(name for _, name in sites) == sorted(_LIFECYCLE_CALLS)


def test_lifecycle_call_check_counts_every_site():
    tree = ast.parse("execute_batch(backend, payloads)\n"
                     "if self.retry_policy.should_retry(error, 1):\n"
                     "    self._backoff_sleep(1)\n"
                     "while policy.should_retry(error, attempts):\n"
                     "    pass\n"
                     "def _check_request(self, request):\n"
                     "    return self._admission_error\n")
    assert _calls(tree, _LIFECYCLE_CALLS) == [
        (1, "execute_batch"), (2, "should_retry"), (4, "should_retry"),
        (3, "_backoff_sleep")]


def _imported_names(tree):
    """``{bound name: line}`` of ``tree``'s module-level imports (function
    and class bodies are skipped; ``__future__`` and star imports bind
    nothing to check)."""
    names = {}
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
        else:
            pending.extend(child for child in ast.iter_child_nodes(node)
                           if isinstance(child, ast.stmt))
    return names


def _unused_imports(tree):
    """Module-level imports ``tree`` never references nor lists in
    ``__all__``, as ``(line, name)`` pairs."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign)
                   else [])
        if any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in targets):
            used.update(item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant))
    return sorted((line, name) for name, line in _imported_names(tree).items()
                  if name not in used)


def test_no_unused_module_level_imports():
    files = [path for path in sorted((SRC / "repro").rglob("*.py"))
             if path.name != "__init__.py"]
    assert len(files) > 50
    offenders = {}
    for path in files:
        unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if unused:
            offenders[str(path.relative_to(SRC))] = unused
    assert offenders == {}


def test_unused_import_check_sees_every_binding_form():
    tree = ast.parse("from __future__ import annotations\n"
                     "import copy\n"
                     "import os.path\n"
                     "import numpy as np\n"
                     "from .pool import execute_batch, RequestPayload\n"
                     "from . import faults as fault_points\n"
                     "try:\n"
                     "    import json\n"
                     "except ImportError:\n"
                     "    json = None\n"
                     "__all__ = ['RequestPayload']\n"
                     "def run():\n"
                     "    import time\n"
                     "    return os.getcwd(), execute_batch\n")
    assert _unused_imports(tree) == [(2, "copy"), (4, "np"),
                                     (6, "fault_points")]


def _method_calls(tree, name):
    """Lines of every call in ``tree`` to a method called ``name``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name]


def test_only_the_backend_drives_the_engine():
    callers = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        lines = _method_calls(ast.parse(path.read_text(encoding="utf-8")),
                              "sample_plans")
        if lines:
            callers[path.relative_to(SRC / "repro").as_posix()] = lines
    assert list(callers) == ["inference/backend.py"]


_GEOMETRY_WORDS = ("window", "segment", "stride")


def _window_geometry(tree):
    """``(line, name)`` of every function, method or parameter defined in
    ``tree`` whose name speaks of windows, segments or strides."""
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        names = [node.name] + [arg.arg for arg in args.posonlyargs + args.args
                               + args.kwonlyargs]
        hits.extend((node.lineno, name) for name in names
                    if any(word in name for word in _GEOMETRY_WORDS))
    return sorted(hits)


def test_engine_defines_no_window_geometry():
    path = SRC / "repro" / "inference" / "engine.py"
    assert _window_geometry(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_window_geometry_check_sees_methods_and_parameters():
    tree = ast.parse("class Engine:\n"
                     "    def impute_segment(self, values, *, window_length,\n"
                     "                       stride=None):\n"
                     "        return values\n"
                     "    def sample_plans(self, plans, chunk_size=None):\n"
                     "        return plans\n"
                     "def window_starts(length, step):\n"
                     "    return [0]\n")
    assert _window_geometry(tree) == [(2, "impute_segment"), (2, "stride"),
                                      (2, "window_length"),
                                      (7, "window_starts")]


def _format_problems(text, name="<text>"):
    """What the blocking ``ruff format --check`` step (or a compile with
    warnings as errors) refuses in one file: ``(line, problem)`` pairs for
    trailing whitespace, a final newline missing or doubled, and source that
    compiles with a warning (an invalid escape sequence, say)."""
    problems = [(number, "trailing whitespace")
                for number, line in enumerate(text.split("\n"), 1)
                if line != line.rstrip()]
    if text and (not text.endswith("\n") or text.endswith("\n\n")):
        problems.append((text.count("\n") + 1, "not one newline at end of file"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            compile(text, name, "exec", dont_inherit=True)
        except SyntaxError as error:
            problems.append((error.lineno, error.msg))
    return problems


def test_python_files_are_format_clean():
    files = [path for folder in ("src", "tests", "benchmarks", "examples")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(files) > 100
    offenders = {}
    for path in files:
        problems = _format_problems(path.read_text(encoding="utf-8"), str(path))
        if problems:
            offenders[str(path.relative_to(ROOT))] = problems
    assert offenders == {}


def test_format_check_sees_each_form():
    assert _format_problems("x = 1\n") == []
    assert _format_problems("") == []
    assert _format_problems("x = 1 \ny = 2\t\n") == [
        (1, "trailing whitespace"), (2, "trailing whitespace")]
    assert _format_problems("x = 1") == [(1, "not one newline at end of file")]
    assert _format_problems("x = 1\n\n") == [
        (3, "not one newline at end of file")]
    assert _format_problems('x = 1\npattern = "\\d+"\n') == [
        (2, "invalid escape sequence '\\d'")]


def test_perfbench_tracer_installs_and_uninstalls_cleanly(monkeypatch):
    """The benchmark's tracer wraps serving names by lookup
    (``ShmArena.stage``, ``StagedBatch.read_responses``, ``_process_batch``,
    ...): installing it fails on a renamed one, and uninstalling it puts
    every original object back."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    tracer = tracing.install()
    patches = list(tracer._patches)
    tracer.uninstall()
    assert tracer._patches == []
    wrapped = {(owner.__name__, attr) for owner, attr, _ in patches}
    assert {("ShmArena", "stage"), ("StagedBatch", "read_responses"),
            ("ImputationService", "_process_batch"),
            ("_WorkerProcess", "run")} <= wrapped
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
