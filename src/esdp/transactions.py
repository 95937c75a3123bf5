"""Group extracted items into the ordered sequence database that feeds
mining.

One record per method block (``pkg.Cls.m()``): the method's own MD item as
head, then the items of its body in line order, duplicates kept.
"""

from __future__ import annotations

from typing import NamedTuple

from .items import ItemKind, SourceItem


class SequenceRecord(NamedTuple):
    sid: str
    items: tuple[tuple[str, str], ...]


class SequenceDatabase:
    """The records in sid order; len() counts them. A class of its own, not
    a NamedTuple, whose len() would count its fields."""

    __slots__ = ("records",)

    def __init__(self, records: tuple[SequenceRecord, ...] = ()):
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other: object) -> bool:
        if type(other) is not SequenceDatabase:
            return NotImplemented
        return self.records == other.records

    def __hash__(self) -> int:
        return hash(self.records)

    def __repr__(self) -> str:
        return f"SequenceDatabase(records={self.records!r})"


def build_sequence_db(items: list[SourceItem]) -> SequenceDatabase:
    """Line-ordered sequence per method block, duplicates preserved,
    with the MD item as head when present; records sorted by sid."""
    heads: dict[str, tuple[str, str]] = {}
    bodies: dict[str, list[tuple[str, str]]] = {}
    md = ItemKind.MD
    # an item's (kind, name) is its identity, the kind read as _value_: the
    # identity property and Enum.value each cost a Python frame per item
    for kind, name, enclosing, _ in items:
        if kind is md:
            path = f"{enclosing}.{name.split('(', 1)[0]}()"
            bodies.setdefault(path, [])
            heads.setdefault(path, ("MD", name))
        elif enclosing.endswith("()"):  # a method's path
            bodies.setdefault(enclosing, []).append((kind._value_, name))

    records = []
    for sid in sorted(bodies):
        head = (heads[sid],) if sid in heads else ()
        records.append(SequenceRecord(sid, head + tuple(bodies[sid])))
    return SequenceDatabase(tuple(records))
