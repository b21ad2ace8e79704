"""Import-layering guards.

``repro.telemetry`` is the leaf every layer reports metrics through, so it
must stay importable on its own: standard library only, no other ``repro``
module.  ``repro.inference`` sits below ``repro.serving`` and must not
import it at module level (that is the cycle the leaf exists to break).
The HTTP gateway never runs a model: every inference it serves, stream ticks
included, goes through ``ImputationService``.  And no module keeps an import
it does not use (a stdlib ``ast`` check, so it runs without a linter).
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports ``repro.telemetry`` in a fresh interpreter.  The package root
# ``repro/__init__.py`` re-exports the whole library, so it is replaced by a
# bare package object over the same directory: the import statement, the
# finder and the module file are the real ones, and any ``repro.*`` module or
# third-party package the leaf pulls in shows up in ``sys.modules``.
_PROBE = """
import json, sys, types
baseline = set(sys.modules)
package = types.ModuleType("repro")
package.__path__ = [sys.argv[1] + "/repro"]
sys.modules["repro"] = package
import repro.telemetry
loaded = sorted(set(sys.modules) - baseline - {"repro"})
print(json.dumps(loaded))
"""


def test_telemetry_imports_only_the_stdlib():
    result = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)],
                            capture_output=True, text=True, check=True,
                            timeout=60)
    loaded = json.loads(result.stdout)
    assert "repro.telemetry" in loaded
    internal = [name for name in loaded
                if name.startswith("repro.") and name != "repro.telemetry"]
    assert internal == []
    third_party = [name for name in loaded if not name.startswith("repro.")
                   and name.split(".")[0] not in sys.stdlib_module_names]
    assert third_party == []


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


def _model_calls(tree):
    """``(line, name)`` of every call in ``tree`` to a function or method
    named in :data:`_MODEL_CALLS` (``np.load``, which decodes an NPZ
    request body, is not a model load)."""
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
        if name in _MODEL_CALLS:
            hits.append((node.lineno, name))
    return hits


def test_gateway_never_loads_or_runs_a_model():
    path = SRC / "repro" / "serving" / "gateway.py"
    assert _model_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_model_call_check_sees_method_and_function_calls():
    tree = ast.parse("registry.backend(spec)\n"
                     "self.service.registry.load(spec)\n"
                     "impute_arrays(values)\n"
                     "np.load(body)\n"
                     "def impute_arrays(self):\n"
                     "    return service.submit(request)\n")
    assert _model_calls(tree) == [(1, "backend"), (2, "load"),
                                  (3, "impute_arrays")]


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
