"""Abstracted source items: the (kind, name) units every later stage mines.

A source file is reduced to a stream of items. Each item is identified by
its kind, a code string of ITEM_KINDS such as ``"MI"``, and a normalized
name that never contains a local variable identifier, so
`Connection connection;` and `Connection conn;` abstract to the same item.
Beside the items, a control marker records where an if or a loop region
begins in a method; where it ends is not recorded.
"""

from __future__ import annotations

from typing import NamedTuple

# The 17 item kinds: each code and what it stands for
ITEM_KINDS: dict[str, str] = {
    "PD": "package declaration",
    "ID": "import declaration",
    "TD": "type declaration",
    "FD": "field declaration",
    "CI": "class instance creation",
    "MD": "method declaration",
    "MI": "method invocation",
    "II": "interface implementation",
    "VD": "local variable declaration",
    "ACD": "anonymous class declaration",
    "AA": "array access",
    "AC": "array creation",
    "CTI": "constructor invocation",
    "FA": "field access",
    "SCI": "super constructor invocation",
    "RT": "return statement",
    "SC": "super class inheritance",
}


class SourceItem(NamedTuple):
    """One abstracted code entity.

    Mining identity is the (kind, name) pair only; ``enclosing`` (block path
    such as ``com.Test`` or ``com.Test.parse()``) and ``line`` are metadata.
    """

    kind: str  # a code of ITEM_KINDS
    name: str
    enclosing: str
    line: int

    @property
    def identity(self) -> tuple[str, str]:
        return (self.kind, self.name)


class ControlMarker(NamedTuple):
    """Where an if or loop region begins inside a method block; ``label``,
    ``"IF"`` or ``"LOOP"``, is that of the graph node it becomes."""

    label: str
    enclosing: str
    line: int


def lower_camel(type_name: str) -> str:
    """Render a type name as a receiver variable: ``ASTParser`` -> ``aSTParser``."""
    if not type_name:
        return type_name
    return type_name[0].lower() + type_name[1:]


def upper_first(name: str) -> str:
    """Render a receiver variable as its type: ``aSTParser`` -> ``ASTParser``."""
    return name[:1].upper() + name[1:]


def simple_name(type_name: str) -> str:
    """Last dotted segment of a possibly qualified type name."""
    return type_name.rsplit(".", 1)[-1]
