"""Statement queries against a mined repository: abstraction into the
corpus item space, tiered search, and code skeleton rendering.

Skeletons render the pattern elements after the matched position as
statements; placeholder arguments are chosen so that re-extracting the
skeleton (under the query's variable context) recovers exactly the same
item sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .extractor import UnparsableSource, extract_items
from .items import ItemKind, lower_camel, simple_name, upper_first
from .mining import SequentialPattern
from .repository import MinedRepository

_FIELD_MODIFIERS = ("private", "public", "protected", "static", "final")


class UnparsableQuery(Exception):
    pass


@dataclass
class QueryContext:
    variables: dict[str, str] = field(default_factory=dict)  # name -> type
    imports: list[str] = field(default_factory=list)


@dataclass
class UserQuery:
    raw_statement: str
    item: tuple[str, str]
    context: QueryContext


@dataclass
class Recommendation:
    pattern: SequentialPattern
    match_offset: int

    @property
    def score(self) -> Fraction:
        return self.pattern.ranking


def abstract_query(statement: str, context: QueryContext | None = None) -> UserQuery:
    """Abstract one typed statement with the same normalization the corpus
    extraction uses, so query and corpus share one identity space."""
    context = context or QueryContext()
    text = statement.strip()
    if not text:
        raise UnparsableQuery("empty query statement")
    if not text.endswith((";", "}")):
        text += ";"
    import_lines = "".join(f"import {imp};\n" for imp in context.imports)
    first_word = text.split(None, 1)[0] if text.split() else ""
    if first_word in _FIELD_MODIFIERS:
        # field-style statement: abstract at class level
        source = f"{import_lines}class Query {{\n{text}\n}}\n"
    else:
        source = f"{import_lines}class Query {{\nvoid query() {{\n{text}\n}}\n}}\n"
    try:
        items, _ = extract_items(source, "<query>", context_vars=context.variables)
    except UnparsableSource as exc:
        raise UnparsableQuery(str(exc)) from None
    wrapper = {ItemKind.TD, ItemKind.MD, ItemKind.ID, ItemKind.PD}
    content = [it for it in items if it.kind not in wrapper]
    if not content:
        raise UnparsableQuery(f"no abstractable construct in {statement!r}")
    return UserQuery(statement, content[0].identity, context)


def search(q: UserQuery, repo: MinedRepository, top_n: int) -> list[Recommendation]:
    """Tiered retrieval: patterns led by the query item, then patterns
    containing it anywhere, then substring matches on the name with the
    argument list stripped (so differently resolved argument types still
    meet); each tier keeps the repository's ranking order."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    _, name = q.item
    base = name.split("(", 1)[0]
    chosen: list[Recommendation] = []
    seen: set[tuple] = set()

    def take(rec: Recommendation) -> None:
        if rec.pattern.elements not in seen:
            seen.add(rec.pattern.elements)
            chosen.append(rec)

    for p in repo.patterns:
        if p.elements[0] == q.item:
            take(Recommendation(p, 0))
    if len(chosen) < top_n:
        for p in repo.patterns:
            if q.item in p.elements:
                take(Recommendation(p, p.elements.index(q.item)))
    if len(chosen) < top_n:
        for p in repo.patterns:
            for offset, (_, ename) in enumerate(p.elements):
                ebase = ename.split("(", 1)[0]
                if base in ebase or ebase in base:
                    take(Recommendation(p, offset))
                    break
    return chosen[:top_n]


# --- skeleton rendering -------------------------------------------------------------

_PLACEHOLDERS = {
    "int": "0",
    "long": "0",
    "short": "0",
    "byte": "0",
    "double": "0.0",
    "float": "0.0",
    "boolean": "true",
    "char": "'a'",
    "String": '""',
    "null": "null",
}


def _placeholder(arg_type: str) -> str:
    if arg_type in _PLACEHOLDERS:
        return _PLACEHOLDERS[arg_type]
    # reference type: cast-null keeps the type recoverable on re-extraction
    return f"({arg_type}) null"


def _split_call(name: str) -> tuple[str, list[str]]:
    """'recv.m(a,b)' -> ('recv.m', [a, b]); a name without '(' has no arguments."""
    head, _, args = name.partition("(")
    return head, [a for a in args.removesuffix(")").split(",") if a]


def _is_instance_receiver(recv: str) -> bool:
    return bool(recv) and "." not in recv and recv[0].islower() and recv != "unknown"


def derive_bindings(elements: tuple[tuple[str, str], ...]) -> dict[str, str]:
    """Default variable->type bindings implied by a pattern's elements:
    every instance receiver (of a call or a field write) binds to its
    upper-first type, every array access to a synthetic array variable."""
    bindings: dict[str, str] = {}
    for kind, name in elements:
        if kind in ("MI", "FA"):
            recv = _split_call(name)[0].rpartition(".")[0]
            if _is_instance_receiver(recv):
                bindings.setdefault(recv, upper_first(recv))
        elif kind == "AA" and name.endswith("[]") and not name.startswith("unknown"):
            var = lower_camel(simple_name(name[:-2])) + "Array"
            bindings.setdefault(var, name)
    return bindings


def _free_name(var: str, context: QueryContext) -> str:
    """var, or var with the first numeric suffix that no context variable
    holds: a skeleton variable must not take a context variable's type."""
    name, n = var, 1
    while name in context.variables:
        n += 1
        name = f"{var}{n}"
    return name


def _skeleton_bindings(elements: tuple[tuple[str, str], ...],
                       context: QueryContext) -> dict[str, str]:
    """derive_bindings under names that no context variable holds."""
    return {_free_name(var, context): vtype for var, vtype in derive_bindings(elements).items()}


def _receiver_var(recv: str, context: QueryContext) -> str:
    """Pick the context variable bound to the receiver type, else the
    receiver as the pattern names it, renamed when the context holds it."""
    if not _is_instance_receiver(recv):
        return recv  # static receiver (type path) or unknown
    want = upper_first(recv)
    for var, vtype in context.variables.items():
        if simple_name(vtype) == want:
            return var
    return _free_name(recv, context)


def render_skeleton(rec: Recommendation, q: UserQuery) -> str:
    """Statements for the pattern elements after the matched position.

    A mined method sequence holds its MD only as its head and no PD or ID,
    so only body kinds have a statement form; any other kind after the
    match renders as a '// KIND name' comment line."""
    tail = rec.pattern.elements[rec.match_offset + 1:]
    defaults = _skeleton_bindings(rec.pattern.elements, q.context)
    lines: list[str] = []
    declared: dict[str, str] = dict(q.context.variables)

    def var_of_type(type_name: str) -> str | None:
        want = simple_name(type_name)
        for var, vtype in declared.items():
            if simple_name(vtype) == want:
                return var
        return None

    for kind, name in tail:
        if kind in ("MI", "CI", "CTI", "SCI"):
            head, args = _split_call(name)
            if kind == "MI":
                recv, _, method = head.rpartition(".")
                head = f"{_receiver_var(recv, q.context)}.{method}"
            elif kind == "CI":
                head = f"new {head}"
            lines.append(f"{head}({', '.join(map(_placeholder, args))});")
        elif kind in ("FD", "VD"):
            var = lower_camel(simple_name(name.replace("[]", "")))
            lines.append(f"{name} {var};")
            declared[var] = name
        elif kind == "ACD":
            lines.append(f"new {name}() {{ }};")
        elif kind == "AC":
            lines.append(f"new {name.replace('[]', '[0]')};")
        elif kind == "AA":
            var = var_of_type(name) or next(
                (v for v, t in defaults.items() if t == name), "unknownArray")
            lines.append(f"{var}[0] = {_placeholder(name[:-2] if name.endswith('[]') else 'int')};")
        elif kind == "FA":
            recv, _, fname = name.rpartition(".")
            lines.append(f"{_receiver_var(recv, q.context)}.{fname} = 0;")
        elif kind == "RT":
            var = var_of_type(name)
            lines.append(f"return {var if var else 'null'};")
        else:
            lines.append(f"// {kind} {name}")
    return "\n".join(lines)


def extract_skeleton_items(skeleton: str, rec: Recommendation, q: UserQuery,
                           ) -> list[tuple[str, str]]:
    """Re-extract a rendered skeleton under the query's context; the result
    should equal the pattern elements after the match (the round-trip check)."""
    tail = rec.pattern.elements[rec.match_offset + 1:]
    if not skeleton.strip():
        return []
    bindings = _skeleton_bindings(rec.pattern.elements, q.context)
    bindings.update(q.context.variables)
    rtype = next((name for kind, name in tail if kind == "RT"), "void")
    source = f"class W {{\n{rtype} wrap() {{\n{skeleton}\n}}\n}}\n"
    items, _ = extract_items(source, "<skeleton>", context_vars=bindings)
    # the wrapper's own TD and MD come first
    return [it.identity for it in items[2:]]
