import importlib
import pkgutil
import types

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
