"""Import-layering guards.

``repro.telemetry`` is the leaf every layer reports metrics through, so it
must stay importable on its own: standard library only, no other ``repro``
module.  ``repro.inference`` sits below ``repro.serving`` and must not
import it at module level (that is the cycle the leaf exists to break).
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
