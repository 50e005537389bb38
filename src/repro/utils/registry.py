"""One generic name → entry table for every kind of pluggable engine.

Variants, execution/merge backends, update strategies, block storages,
samplers, transports, drift policies, stream sources, result stores and
job queues are each a :class:`Registry` living in the module that
defines the kind. Plugins and tests add entries with ``register``; the
CLI, ``SBPConfig`` validation and ``run_sbp`` read them back with
``get``/``names``/``items``, so a new entry is picked up everywhere.
"""

from __future__ import annotations

import importlib
from typing import Generic, TypeVar

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Named entries of one engine kind.

    Parameters
    ----------
    kind:
        Label used in messages: ``unknown <kind> 'x'; available: [...]``
        and ``<kind> 'x' already registered``.
    error:
        Exception class both messages are raised as.
    builtins:
        Modules whose import registers the built-in entries. They are
        imported once, on the first ``get``/``names``/``items`` call,
        which keeps the defining module free of import cycles with its
        own engines.
    """

    def __init__(
        self,
        kind: str,
        error: type[Exception],
        builtins: tuple[str, ...] = (),
    ) -> None:
        self.kind = kind
        self.error = error
        self.builtins = builtins
        self._pending = builtins
        self._entries: dict[str, T] = {}

    def _load_builtins(self) -> None:
        # Cleared only after every import returns: a concurrent first
        # access re-imports, which blocks on the import lock until the
        # module (and so its registrations) is complete.
        for module in self._pending:
            importlib.import_module(module)
        self._pending = ()

    def register(self, name: str, entry: T) -> None:
        """Add ``entry`` under ``name``; names are never overwritten."""
        if name in self._entries:
            raise self.error(f"{self.kind} {name!r} already registered")
        self._entries[name] = entry

    def get(self, name: object) -> T:
        """The entry registered as ``str(name)`` (enum members pass through)."""
        self._load_builtins()
        entry = self._entries.get(str(name))
        if entry is None:
            raise self.error(
                f"unknown {self.kind} {str(name)!r}; available: {self.names()}"
            )
        return entry

    def names(self) -> list[str]:
        """Registered names, sorted."""
        self._load_builtins()
        return sorted(self._entries)

    def items(self) -> list[tuple[str, T]]:
        """``(name, entry)`` pairs, sorted by name."""
        self._load_builtins()
        return sorted(self._entries.items())
