"""Lazy package re-exports (PEP 562).

A package ``__init__`` declares which names it re-exports from which
submodule; a submodule is imported the first time one of its names is
read, so ``import repro`` (and the CLI's parser) loads no model code
and no numpy.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a package re-exporting ``exports``.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    relative submodule (``".costs"``) to the names it supplies, and
    ``"."`` to submodules re-exported as themselves (``from . import
    name``).  A resolved name is stored in ``namespace``, so each is
    looked up once.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if module == ".":
            value = importlib.import_module(f".{name}", package)
        else:
            value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
