import importlib
import pkgutil
from types import ModuleType

import permdl

# Every module but the CLI is a layer whose __all__ the package re-exports.
LAYERS = [
    importlib.import_module(f"permdl.{m.name}") for m in pkgutil.iter_modules(permdl.__path__) if m.name != "cli"
]


def test_public_names_are_the_layers_all_lists():
    public = {
        name for name, value in vars(permdl).items() if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    declared = [(name, module) for module in LAYERS for name in module.__all__]
    # No name is declared twice, so no star import shadows another.
    assert len({name for name, _ in declared}) == len(declared)
    assert public == {name for name, _ in declared}
    for name, module in declared:
        assert getattr(permdl, name) is getattr(module, name), name
