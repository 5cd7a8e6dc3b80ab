import importlib
import pkgutil

import trivector


def test_every_exported_name_resolves():
    modules = [trivector] + [
        importlib.import_module("trivector." + info.name)
        for info in pkgutil.iter_modules(trivector.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), "%s.%s" % (module.__name__, name)
