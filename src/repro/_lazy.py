"""How every ``repro`` package exposes its names: one table, read on use.

A package ``__init__`` hands :func:`export` a table of submodule → the
names it defines, and imports nothing else. Reading a name (PEP 562)
imports the one submodule that defines it, so ``from repro.fusion
import AccuVote`` loads ``repro.fusion.accu`` and what it imports, not
the other fusers; the value is then stored on the package, so later
reads are plain attribute lookups. ``__all__`` is the table's names, so
``dir()``, ``from package import *`` and the table cannot disagree.
"""

from __future__ import annotations

import importlib


def export(namespace: dict, table: dict[str, str]) -> None:
    """Give the package whose globals are ``namespace`` its lazy names.

    ``table`` maps a submodule, relative to the package (``"accu"``,
    ``"blocking.base"``; a leading dot climbs one package, as in a
    relative import), to the space-separated names it exports. A
    name outside the table that is a submodule (``repro.synth``) is
    imported as one; any other raises :class:`AttributeError`.
    """
    package = namespace["__name__"]
    owner = {
        name: module for module, names in table.items() for name in names.split()
    }

    def __getattr__(name: str):
        module = owner.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f".{module}", package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    namespace.update(
        __getattr__=__getattr__, __dir__=__dir__, __all__=sorted(owner)
    )
