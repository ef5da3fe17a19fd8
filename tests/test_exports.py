import importlib
import pkgutil

import expidae


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.iter_modules(expidae.__path__):
        module = importlib.import_module(f"expidae.{info.name}")
        exported = getattr(module, "__all__", [])
        assert len(set(exported)) == len(exported), info.name
        missing += [f"{info.name}.{attr}" for attr in exported if not hasattr(module, attr)]
    assert missing == []
