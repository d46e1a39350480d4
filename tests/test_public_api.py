"""The package's public names are exactly those its modules declare."""

import importlib
import pkgutil
import types

import flatdiff as fd

# the command line is no library API, and importing __main__ runs it
NOT_LIBRARY = {"cli", "__main__"}


def library_modules():
    for info in pkgutil.iter_modules(fd.__path__):
        if info.name not in NOT_LIBRARY:
            yield importlib.import_module(f"flatdiff.{info.name}")


def test_package_exports_what_its_modules_declare():
    declared = set()
    for module in library_modules():
        assert hasattr(module, "__all__"), f"{module.__name__} declares no __all__"
        for name in module.__all__:
            declared.add(name)
            assert getattr(fd, name) is getattr(module, name)
    assert set(fd.__all__) - {"__version__"} == declared
    assert len(fd.__all__) == len(set(fd.__all__))
    # a name imported into the package without being declared is not API
    public = {
        name for name, value in vars(fd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(fd.__all__)
