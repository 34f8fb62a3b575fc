"""Every name in a `src/cjde` module's `__all__` is an attribute of that module."""

import importlib
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "cjde")


def test_every_public_name_resolves():
    missing, count = [], 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            module = importlib.import_module(f"cjde.{os.path.splitext(name)[0]}")
            for public in getattr(module, "__all__", ()):
                count += 1
                if not hasattr(module, public):
                    missing.append(f"{name}: {public}")
    assert count > 0
    assert missing == []
