"""Group extracted items into the ordered sequence database that feeds
mining.

One record per method block (``pkg.Cls.m()``): the method's own MD item as
head, then the items of its body in line order, duplicates kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .items import ItemKind, SourceItem


@dataclass(frozen=True)
class SequenceRecord:
    sid: str
    items: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SequenceDatabase:
    records: tuple[SequenceRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.records)


def _is_method_path(path: str) -> bool:
    return path.endswith("()")


def _method_path_of_md(item: SourceItem) -> str:
    method = item.name.split("(", 1)[0]
    return f"{item.enclosing}.{method}()"


def build_sequence_db(items: list[SourceItem]) -> SequenceDatabase:
    """Line-ordered sequence per method block, duplicates preserved,
    with the MD item as head when present; records sorted by sid."""
    heads: dict[str, tuple[str, str]] = {}
    bodies: dict[str, list[tuple[str, str]]] = {}
    for item in items:
        if item.kind is ItemKind.MD:
            path = _method_path_of_md(item)
            bodies.setdefault(path, [])
            heads.setdefault(path, item.identity)
        elif _is_method_path(item.enclosing):
            bodies.setdefault(item.enclosing, []).append(item.identity)

    records = []
    for sid in sorted(bodies):
        head = (heads[sid],) if sid in heads else ()
        records.append(SequenceRecord(sid, head + tuple(bodies[sid])))
    return SequenceDatabase(tuple(records))
