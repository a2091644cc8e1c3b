import ast
import importlib
import pkgutil
import types
from pathlib import Path

import epinfer

MODULES = [importlib.import_module(f"epinfer.{info.name}")
           for info in pkgutil.iter_modules(epinfer.__path__)]


def test_every_module_export_exists():
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_every_root_name_is_a_module_export():
    exported = set().union(*(module.__all__ for module in MODULES))
    root = [name for name, value in vars(epinfer).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert root
    assert sorted(set(root) - exported) == []


def test_every_import_is_used():
    # an import that a deletion leaves behind shows up here
    for module in MODULES:
        tree = ast.parse(Path(module.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used - set(module.__all__))
        assert not unused, f"{module.__name__} imports {unused} but never uses them"


def test_one_matrix_exponential():
    # dense_propagator is the one exact oracle; solvers that need entries of
    # exp(A*dt) for a few sources propagate those columns instead
    calls = []
    for module in MODULES:
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "expm":
                    calls.append(module.__name__)
    assert calls == ["epinfer.likelihood"]
