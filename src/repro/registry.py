"""Generic plugin registry backing every string-keyed extension point.

Routers, autoscalers, admission controllers, serving systems, and datasets
all resolve through one :class:`Registry` type so that

* every extension point resolves, lists, and errors the same way
  (``unknown <kind> 'x'; available: a, b, c``),
* third-party code can add entries with the same ``@REGISTRY.register("name")``
  decorator the built-ins use, and
* the config layer (:mod:`repro.config`) can validate names at parse time and
  surface per-entry help text in CLI listings.

A :class:`Registry` is a read-only :class:`~collections.abc.Mapping` from
canonical name to registered value (``sorted(ROUTERS)``, ``ROUTERS[name]``,
``DATASETS.items()``).  Aliases resolve on lookup but are excluded from
iteration, ``available()``, and ``len()`` -- listing "static-tp" three times
under three spellings helps nobody.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")

_MISSING = object()


@dataclass(frozen=True)
class RegistryEntry(Generic[T]):
    """One registered plugin: its canonical name, value, and help text."""

    name: str
    value: T
    help: str = ""
    aliases: Tuple[str, ...] = field(default_factory=tuple)


class Registry(Mapping, Generic[T]):
    """A named collection of plugins with uniform registration and lookup.

    Parameters
    ----------
    kind:
        Human-readable singular noun for error messages ("router",
        "autoscaler", "admission policy", "system", "dataset").

    Example
    -------
    >>> ROUTERS = Registry("router")
    >>> @ROUTERS.register("noop", help="route everything to replica 0")
    ... def make_noop(seed):
    ...     return object()
    >>> ROUTERS.available()
    ['noop']
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}
        self._aliases: Dict[str, str] = {}

    # -- registration -----------------------------------------------------------------

    def register(
        self,
        name: str,
        value: T = _MISSING,  # type: ignore[assignment]
        *,
        help: str = "",
        aliases: Tuple[str, ...] = (),
        overwrite: bool = False,
    ) -> "T | Callable[[T], T]":
        """Register ``value`` under ``name``; usable directly or as a decorator.

        Direct form: ``REG.register("name", factory, help="...")`` returns the
        value.  Decorator form: ``@REG.register("name", help="...")`` above a
        class or function.  ``aliases`` are alternate spellings that resolve
        on lookup but never appear in listings.  Re-registering an existing
        name is an error unless ``overwrite=True`` -- silent replacement is
        how two plugins fight over a name without anyone noticing.
        """
        if value is _MISSING:
            def decorator(obj: T) -> T:
                self.register(name, obj, help=help, aliases=aliases, overwrite=overwrite)
                return obj

            return decorator
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string, got {name!r}")
        taken = set(self._entries) | set(self._aliases)
        if not overwrite:
            for candidate in (name, *aliases):
                if candidate in taken:
                    raise ValueError(
                        f"{self.kind} {candidate!r} is already registered; "
                        "pass overwrite=True to replace it"
                    )
        if overwrite:
            self._forget(name)
        entry = RegistryEntry(name=name, value=value, help=help, aliases=tuple(aliases))
        self._entries[name] = entry
        for alias in entry.aliases:
            self._aliases[alias] = name
        return value

    def _forget(self, name: str) -> None:
        entry = self._entries.pop(name, None)
        if entry is not None:
            for alias in entry.aliases:
                self._aliases.pop(alias, None)

    def unregister(self, name: str) -> None:
        """Remove an entry (test/plugin teardown); unknown names are ignored."""
        self._forget(self._aliases.get(name, name))

    # -- lookup -----------------------------------------------------------------------

    def resolve(self, name: str) -> str:
        """Canonical name for ``name`` (follows aliases); actionable ValueError."""
        key = self._aliases.get(name, name)
        if key not in self._entries:
            raise ValueError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.available())}"
            )
        return key

    def entry(self, name: str) -> RegistryEntry:
        """Full :class:`RegistryEntry` for ``name`` (follows aliases)."""
        return self._entries[self.resolve(name)]

    def get(self, name: str, default: Optional[T] = None) -> Optional[T]:  # type: ignore[override]
        """Mapping-style ``get``: registered value or ``default``."""
        try:
            return self._entries[self._aliases.get(name, name)].value
        except KeyError:
            return default

    def require(self, name: str) -> T:
        """Registered value for ``name``; raises the actionable ValueError."""
        return self._entries[self.resolve(name)].value

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Call the registered factory for ``name`` with the given arguments."""
        factory = self.require(name)
        if not callable(factory):
            raise TypeError(f"{self.kind} {name!r} is not callable (got {type(factory).__name__})")
        return factory(*args, **kwargs)

    def available(self) -> List[str]:
        """Sorted canonical names (aliases excluded)."""
        return sorted(self._entries)

    def describe(self) -> Dict[str, str]:
        """``{canonical name: help text}`` for listings and ``--help`` output."""
        return {name: self._entries[name].help for name in self.available()}

    def help_text(self) -> str:
        """Multi-line human-readable listing of every entry."""
        lines = [f"available {self.kind}s:"]
        for name in self.available():
            entry = self._entries[name]
            suffix = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
            help_part = f" -- {entry.help}" if entry.help else ""
            lines.append(f"  {name}{help_part}{suffix}")
        return "\n".join(lines)

    # -- Mapping protocol (sorted(ROUTERS), set(DATASETS), ...) ----------------------

    def __getitem__(self, name: str) -> T:
        return self._entries[self._aliases.get(name, name)].value

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries or name in self._aliases

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, entries={self.available()})"
