"""Built-in function catalog: names mapped to allowed argument counts.

The catalog drives three things: FuncName classification in the lexer,
atomic pretokens in the tokenizer, and arity checking. It ships as a CSV
(one `name,min_arity,max_arity` line per function, `*` = unbounded max) so
deployments can extend it without touching code.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import Iterable, Optional


class CatalogError(ValueError):
    """Raised for malformed catalog files."""


class FunctionCatalog:
    """Immutable map of lowercase function name -> (min_arity, max_arity).

    max_arity is None for unbounded ("*" in the data file).
    """

    def __init__(self, entries: dict[str, tuple[int, Optional[int]]]):
        self._entries = dict(entries)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str) -> Optional[tuple[int, Optional[int]]]:
        return self._entries.get(name.lower())

    def names(self) -> frozenset[str]:
        return frozenset(self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FunctionCatalog) and self._entries == other._entries

    def lines(self) -> list[str]:
        """The entries as `name,min,max` lines sorted by name, as `from_lines` reads them."""
        return [f"{name},{low},{'*' if high is None else high}"
                for name, (low, high) in sorted(self._entries.items())]

    @classmethod
    def from_lines(cls, lines: Iterable[str], source: str = "<catalog>") -> "FunctionCatalog":
        entries: dict[str, tuple[int, Optional[int]]] = {}
        for lineno, raw in enumerate(lines, start=1):
            if lineno == 1 and raw.startswith("\ufeff"):
                raise CatalogError(f"{source}:1: starts with a UTF-8 BOM; save the file as "
                                   "UTF-8 without one")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise CatalogError(f"{source}:{lineno}: expected `name,min,max`, got {line!r}")
            name, min_s, max_s = parts
            if not name:
                raise CatalogError(f"{source}:{lineno}: empty function name")
            try:
                min_arity = int(min_s)
            except ValueError:
                raise CatalogError(f"{source}:{lineno}: bad min_arity {min_s!r}") from None
            if max_s == "*":
                max_arity: Optional[int] = None
            else:
                try:
                    max_arity = int(max_s)
                except ValueError:
                    raise CatalogError(f"{source}:{lineno}: bad max_arity {max_s!r}") from None
            if min_arity < 0 or (max_arity is not None and max_arity < min_arity):
                raise CatalogError(f"{source}:{lineno}: invalid arity range {min_s},{max_s}")
            entries[name.lower()] = (min_arity, max_arity)
        return cls(entries)


@functools.lru_cache(maxsize=1)
def default_catalog() -> FunctionCatalog:
    """The bundled catalog of ~140 common Excel functions."""
    text = resources.files("formulakit").joinpath("data/functions.csv").read_text("utf-8")
    return FunctionCatalog.from_lines(text.splitlines(), source="functions.csv")
