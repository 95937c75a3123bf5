"""Abstracted source items: the (kind, name) units every later stage mines.

A source file is reduced to a stream of items. Each item is identified by
its kind tag and a normalized name that never contains a local variable
identifier, so `Connection connection;` and `Connection conn;` abstract to
the same item.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ItemKind(Enum):
    PD = "PD"    # package declaration
    ID = "ID"    # import declaration
    TD = "TD"    # type declaration
    FD = "FD"    # field declaration
    CI = "CI"    # class instance creation
    MD = "MD"    # method declaration
    MI = "MI"    # method invocation
    II = "II"    # interface implementation
    VD = "VD"    # local variable declaration
    ACD = "ACD"  # anonymous class declaration
    AA = "AA"    # array access
    AC = "AC"    # array creation
    CTI = "CTI"  # constructor invocation
    FA = "FA"    # field access
    SCI = "SCI"  # super constructor invocation
    RT = "RT"    # return statement
    SC = "SC"    # super class inheritance


class MarkerKind(Enum):
    IF_BEGIN = "IF_BEGIN"
    IF_END = "IF_END"
    LOOP_BEGIN = "LOOP_BEGIN"
    LOOP_END = "LOOP_END"


@dataclass(frozen=True)
class SourceItem:
    """One abstracted code entity.

    Mining identity is the (kind, name) pair only; ``enclosing`` (block path
    such as ``com.Test`` or ``com.Test.parse()``) and ``line`` are metadata.
    """

    kind: ItemKind
    name: str
    enclosing: str
    line: int

    @property
    def identity(self) -> tuple[str, str]:
        return (self.kind.value, self.name)


@dataclass(frozen=True)
class ControlMarker:
    """Begin/end of an if or loop region inside a method block."""

    kind: MarkerKind
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
