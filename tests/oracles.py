"""Independent oracles the implementations are checked against.

Most state a contract by brute force: exhaustive enumerations of
subsequences, node sets, bijections and occurrence subsets, against which
the PrefixSpan kernel and the miners' records (``exhaustive_patterns``) are
checked directly, and the short specs built on them and on the references
below for the update (``merge_update_spec``) and the explorer
(``patt_explorer_spec``). A few references are earlier
versions of the code, kept because no brute force states their contract:

- ``parse_reference``, the store reader: the contract is, for each refused
  document, the line, message and element path of its first fault. It
  accepts exactly one byte string per repository (fixed layout and
  attribute order, numbers without leading zeros, display values checked
  against ``two_dp``, only the escapes ``serialize`` writes), so reading
  back what ``serialize`` wrote pins the writer's bytes too.
- ``tokenize_reference`` and ``_ExtractorReference``, the lexer and the
  extractor: the contract is the abstraction of the Java subset itself,
  item by item.
- ``independent_occurrence_count_reference``, for the greedy lower bound
  beyond EXACT_OCCURRENCE_LIMIT occurrences: which disjoint occurrences
  the greedy count takes depends on their order, and the brute force only
  states the exact maximum.
- ``NAME_REFERENCE``, the item-name expression: the language it accepts is
  the contract.
- ``search_reference``: the search tiers, already a direct statement of
  their contract.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from itertools import combinations, permutations
from typing import Iterable, Sequence

from esdp.extractor import (
    _CONST_NAME_RE,
    _LITERAL_TYPES,
    _SKIP_STMT_KEYWORDS,
    KEYWORDS,
    MAX_NESTING,
    MODIFIERS,
    PRIMITIVE_TYPES,
    UnparsableSource,
)
from esdp.groum import (
    EXACT_OCCURRENCE_LIMIT,
    Groum,
    GroumPattern,
    _max_independent,
    canonical_form,
    induced_subgraph,
)
from esdp.items import (
    ControlMarker,
    SourceItem,
    lower_camel,
    simple_name,
)
from esdp.mining import (
    InvalidThreshold,
    SequentialPattern,
)
from esdp.repository import (
    _CONFIDENCE,
    _HEADER,
    _ITEM,
    _PATTERN,
    _SUPPORT,
    MinedRepository,
    _check_writable,
    _expected,
    _pattern_violation,
    _unesc,
    _violation,
    make_repository,
    serialize,
    two_dp,
)


# --- sequence mining ---------------------------------------------------------------

def all_subsequences(record) -> set[tuple]:
    """Every non-empty subsequence, via index combinations."""
    out: set[tuple] = set()
    n = len(record)
    for k in range(1, n + 1):
        for idxs in combinations(range(n), k):
            out.add(tuple(record[i] for i in idxs))
    return out


def exhaustive_mine(records, min_support: int) -> dict[tuple, int]:
    """All frequent subsequences with exact support counts."""
    candidates: set[tuple] = set()
    per_record = [all_subsequences(r) for r in records]
    for subs in per_record:
        candidates |= subs
    result = {}
    for alpha in candidates:
        count = sum(1 for subs in per_record if alpha in subs)
        if count >= min_support:
            result[alpha] = count
    return result


def exhaustive_patterns(db, min_support: int) -> list[SequentialPattern]:
    """The records mine_prefixspan should return, by brute force: each
    subsequence held by at least min_support records, its prefix count the
    support of its first k-1 elements, in the rational store order."""
    n = len(db.records)
    counts = exhaustive_mine([r.items for r in db.records], min_support)
    return sorted((SequentialPattern(e, c, n, counts[e[:-1]] if len(e) > 1 else c)
                   for e, c in counts.items()), key=pattern_sort_key)


def adaptive_mine_reference(db, max_patterns: int):
    """The linear threshold scan adaptive_mine's one capped kernel pass
    answers, over exhaustive_patterns: (min_support, patterns) at the
    smallest min_support whose result holds at most max_patterns, else the
    top max_patterns at min_support n."""
    n = len(db.records)
    for m in range(1, n + 1):
        patterns = exhaustive_patterns(db, m)
        if len(patterns) <= max_patterns:
            return m, patterns
    return n, exhaustive_patterns(db, n)[:max_patterns]


def pattern_sort_key(p):
    """The documented store order on exact rationals: ranking desc, support
    count desc, then lexicographic on names and kinds."""
    return (-p.ranking, -p.support_count, p.names(), tuple(k for k, _ in p.elements))


# --- store item names ------------------------------------------------------------------

# The item-name expression the unrolled repository._NAME replaced: one
# alternation of a plain character or an escape, tried at every character.
NAME_REFERENCE = "((?:[^&<>\\x00-\\x08\\x0a-\\x1f]|&(?:amp|lt|gt);)+)"


# --- query search --------------------------------------------------------------------

def search_reference(item: tuple[str, str], patterns, top_n: int) -> list[tuple[object, int]]:
    """(pattern, match offset) pairs of ``esdp.query.search`` as it was when
    it split every element name of every pattern it visited: tier 1 patterns
    led by the item, tier 2 patterns holding it, tier 3 the first element
    whose name before '(' is a substring of the item's or holds it."""
    base = item[1].split("(", 1)[0]
    chosen: list[tuple[object, int]] = []
    seen: set[tuple] = set()

    def take(p, offset: int) -> None:
        if p.elements not in seen:
            seen.add(p.elements)
            chosen.append((p, offset))

    for p in patterns:
        if p.elements[0] == item:
            take(p, 0)
    if len(chosen) < top_n:
        for p in patterns:
            if item in p.elements:
                take(p, p.elements.index(item))
    if len(chosen) < top_n:
        for p in patterns:
            for offset, (_, ename) in enumerate(p.elements):
                ebase = ename.split("(", 1)[0]
                if base in ebase or ebase in base:
                    take(p, offset)
                    break
    return chosen[:top_n]


# --- longest common subsequence ------------------------------------------------------

def lcs_brute(a, b) -> int:
    """Longest common subsequence by enumerating subsequences of the shorter."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    longs = all_subsequences(long_)
    best = 0
    for k in range(len(short), 0, -1):
        for idxs in combinations(range(len(short)), k):
            cand = tuple(short[i] for i in idxs)
            if cand in longs:
                return k
    return best


# --- groum mining ----------------------------------------------------------------

def connected_induced_node_sets(g) -> list[frozenset[int]]:
    """Every weakly connected node set of g, ordered by (size, sorted nodes).
    Sets of one size are grown from those one smaller by an adjacent node:
    removing a leaf of its spanning tree leaves a connected set one smaller."""
    adjacent: list[set[int]] = [set() for _ in g.labels]
    for a, b in g.edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    level = {frozenset([v]) for v in range(len(g.labels))}
    out: list[frozenset[int]] = []
    while level:
        out += sorted(level, key=sorted)
        level = {s | {y} for s in level for v in s for y in adjacent[v] - s}
    return out


def iso_brute(g1, g2) -> bool:
    """Label-isomorphism by trying every bijection."""
    if len(g1.labels) != len(g2.labels):
        return False
    ids1 = range(len(g1.labels))
    labels1, labels2 = g1.labels, g2.labels
    e1, e2 = set(g1.edges), set(g2.edges)
    if len(e1) != len(e2):
        return False
    for perm in permutations(range(len(g2.labels))):
        mapping = dict(zip(ids1, perm))
        if any(labels1[a] != labels2[mapping[a]] for a in ids1):
            continue
        if {(mapping[a], mapping[b]) for a, b in e1} == e2:
            return True
    return False


def max_independent_brute(occurrences) -> int:
    """Largest pairwise-disjoint subset, by trying every subset."""
    occs = list(occurrences)
    best = 0
    for k in range(len(occs), 0, -1):
        if k <= best:
            break
        for combo in combinations(occs, k):
            union: set[int] = set()
            total = 0
            for occ in combo:
                union |= occ
                total += len(occ)
            if len(union) == total:
                best = max(best, k)
                break
    return best


def independent_occurrence_count_reference(occurrences) -> tuple[int, bool]:
    """The count before it always split into conflict components over bit
    masks, kept verbatim as the differential reference of
    ``esdp.groum.independent_occurrence_count``: exact up to
    EXACT_OCCURRENCE_LIMIT occurrences; beyond that each conflict component
    (union-find) of at most the limit exactly, a larger one greedily in
    first-seen order, and any greedy component flags a lower bound."""
    occs = list(occurrences)
    if len(occs) <= EXACT_OCCURRENCE_LIMIT:
        return _exact_count_reference(occs), True
    total, exact = 0, True
    for component in _conflict_components_reference(occs):
        if len(component) <= EXACT_OCCURRENCE_LIMIT:
            total += _exact_count_reference(component)
            continue
        used: set[int] = set()
        for occ in component:
            if not (occ & used):
                total += 1
                used |= occ
        exact = False
    return total, exact


def _exact_count_reference(occs: list[frozenset[int]]) -> int:
    n = len(occs)
    conflict = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if occs[i] & occs[j]:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    return _max_independent((1 << n) - 1, conflict)


def _conflict_components_reference(occs: list[frozenset[int]]) -> list[list[frozenset[int]]]:
    parent = list(range(len(occs)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    owner: dict[int, int] = {}
    for i, occ in enumerate(occs):
        for v in occ:
            parent[root(owner.setdefault(v, i))] = root(i)
    components: dict[int, list[frozenset[int]]] = {}
    for i, occ in enumerate(occs):
        components.setdefault(root(i), []).append(occ)
    return list(components.values())


def exhaustive_groum_patterns(dataset, sigma: int):
    """All frequent connected-induced-subgraph classes with exact frequency.

    Returns a list of (representative Groum, frequency) with representatives
    taken from the first occurrence found.
    """
    classes: list[tuple[object, dict[int, list[frozenset[int]]]]] = []
    for gi, g in enumerate(dataset):
        for node_set in connected_induced_node_sets(g):
            sub = induced_subgraph(g, node_set)
            for rep, occs in classes:
                if iso_brute(rep, sub):
                    occs.setdefault(gi, []).append(node_set)
                    break
            else:
                classes.append((sub, {gi: [node_set]}))
    out = []
    for rep, occs in classes:
        freq = sum(max_independent_brute(v) for v in occs.values())
        if freq >= sigma:
            out.append((rep, freq))
    return out


def patt_explorer_spec(dataset: Sequence[Groum], sigma: int) -> list[GroumPattern]:
    """What ``esdp.groum.patt_explorer`` returns, stated over the connected
    induced node sets of the dataset.

    A single label is reported when at least sigma nodes carry it, so a
    node set holding any other label is in no reported class. The other
    sets are grouped into label-isomorphism classes by canonical form, each
    class's occurrences ordered by graph, then by sorted node set, the
    first of them its representative, and each class is counted with
    independent_occurrence_count_reference. Classes are decided in
    increasing size: one is reported when its count reaches sigma and,
    above size 1, removing one node leaves a reported class, so a connected
    one. Output is ordered by (size, canonical form).
    """
    if sigma < 1:
        raise InvalidThreshold(f"sigma must be >= 1, got {sigma}")
    count = Counter(label for g in dataset for label in g.labels)
    classes: dict[tuple, dict[int, list[frozenset[int]]]] = {}
    for gi, g in enumerate(dataset):
        for s in connected_induced_node_sets(g):
            if all(count[g.labels[v]] >= sigma for v in s):
                classes.setdefault(canonical_form(induced_subgraph(g, s)), {}).setdefault(
                    gi, []).append(s)
    reported: dict[tuple, GroumPattern] = {}
    for key in sorted(classes, key=lambda key: (len(key[0]), key)):
        occurrences = classes[key]
        gi = min(occurrences)
        rep = induced_subgraph(dataset[gi], occurrences[gi][0])
        size = len(rep.labels)
        if size > 1 and not any(
                canonical_form(induced_subgraph(rep, set(range(size)) - {y})) in reported
                for y in range(size)):
            continue
        counts = [independent_occurrence_count_reference(occs) for occs in occurrences.values()]
        frequency = sum(count for count, _ in counts)
        if frequency >= sigma:
            reported[key] = GroumPattern(rep, occurrences, frequency, size,
                                         all(exact for _, exact in counts))
    return list(reported.values())


# --- lexing ------------------------------------------------------------------------

_MULTI_PUNCT_REFERENCE = (
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->", "::",
)


def tokenize_reference(source: str) -> list:
    """The character-at-a-time lexer the regex scanner replaced: one branch
    per token class, tried in order at each position. Tokens are plain
    (kind, text, line, col) tuples."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(source)

    def bump(text: str) -> None:
        nonlocal line, col
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)

    while i < n:
        c = source[i]
        if c in " \t\f\r\n":
            bump(c)
            i += 1
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            j = n if j < 0 else j
            bump(source[i:j])
            i = j
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise UnparsableSource("unterminated comment", line, col)
            bump(source[i : j + 2])
            i = j + 2
            continue
        if c == '"':
            j = i + 1
            while j < n and source[j] != '"':
                j += 2 if source[j] == "\\" else 1
            if j >= n:
                raise UnparsableSource("unterminated string literal", line, col)
            text = source[i : j + 1]
            toks.append(("str", text, line, col))
            bump(text)
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and source[j] != "'":
                j += 2 if source[j] == "\\" else 1
            if j >= n:
                raise UnparsableSource("unterminated char literal", line, col)
            text = source[i : j + 1]
            toks.append(("char", text, line, col))
            bump(text)
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and (source[j].isalnum() or source[j] in "._xX"):
                # stop a trailing dot that starts a qualified name: 1..x never occurs
                if source[j] == "." and not (j + 1 < n and source[j + 1].isdigit()):
                    break
                j += 1
            text = source[i:j]
            toks.append(("num", text, line, col))
            bump(text)
            i = j
            continue
        if c.isalpha() or c in "_$":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_$"):
                j += 1
            text = source[i:j]
            toks.append(("kw" if text in KEYWORDS else "ident", text, line, col))
            bump(text)
            i = j
            continue
        for op in _MULTI_PUNCT_REFERENCE:
            if source.startswith(op, i):
                toks.append(("punct", op, line, col))
                bump(op)
                i += len(op)
                break
        else:
            if c in "{}()[];,.<>=+-*/%!&|^?:@~":
                toks.append(("punct", c, line, col))
                bump(c)
                i += 1
            else:
                raise UnparsableSource(f"illegal character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


# --- extractor -----------------------------------------------------------------------
# The extractor before its lexer and parser moved to flat token arrays, kept
# verbatim (Token objects from tokenize_reference, items sorted by line and
# column) but for the fixes it shares with esdp.extractor: an index into a
# field reached through 'this.' is read as an array access; a wildcard
# import reads its '.*'; a labeled statement is read as its statement; an
# array creation gives one '[]' per dimension, written or sized, and reads
# its initializer.

Token = namedtuple("Token", "kind text line col")


def _check_braces_reference(toks: list[Token]) -> None:
    stack: list[Token] = []
    for t in toks:
        if t.text == "{":
            stack.append(t)
        elif t.text == "}":
            if not stack:
                raise UnparsableSource("unbalanced '}'", t.line, t.col)
            stack.pop()
    if stack:
        t = stack[-1]
        raise UnparsableSource("unbalanced '{'", t.line, t.col)


# the first character of a type name: identifiers that start with a
# non-ASCII letter are not types
_TYPE_START_RE = re.compile(r"^[A-Za-z_$]")


class _ExtractorReference:
    """Recursive-descent reader with one method per construct.

    Punctuation and keywords are recognised by their text alone: an ident is
    never a keyword, and literals start with a quote or a digit. Token kinds
    are tested only to tell idents, literals and eof apart.
    """

    def __init__(self, tokens: list[Token], file_label: str,
                 context_vars: dict[str, str] | None = None):
        self.toks = tokens
        self.i = 0
        self.file_label = file_label or "<memory>"
        self.package = ""
        self.imports: dict[str, str] = {}       # simple name -> "seg.Class"
        self._import_seen: set[str] = set()     # simple names, incl. ambiguous
        self.scopes: list[dict[str, str]] = [dict(context_vars or {})]
        self.class_stack: list[str] = []
        self.class_fields: list[dict[str, str]] = []  # the field scope of each class
        self.return_types: list[str] = []
        self.out: list[tuple[int, int, SourceItem]] = []
        self.markers: list[ControlMarker] = []
        self.depth = 0  # parse methods active; see MAX_NESTING

    # --- token cursor -----------------------------------------------------

    def cur(self) -> Token:
        return self.toks[self.i]

    def la(self, k: int = 1) -> Token:
        j = min(self.i + k, len(self.toks) - 1)
        return self.toks[j]

    def at(self, text: str) -> bool:
        return self.toks[self.i].text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.i += 1
            return True
        return False

    def advance(self) -> Token:
        t = self.cur()
        if t.kind != "eof":
            self.i += 1
        return t

    def descend(self) -> None:
        """Enter one nested parse method; the caller decrements depth on
        leaving it (a raise abandons the whole parse)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            t = self.cur()
            raise UnparsableSource(f"nesting deeper than {MAX_NESTING}", t.line, t.col)

    # --- emit helpers -----------------------------------------------------

    def emit(self, kind: str, name: str, enclosing: str, line: int, col: int) -> None:
        self.out.append((line, col, SourceItem(kind, name, enclosing or self.file_label, line)))

    def mark(self, label: str, enclosing: str, line: int) -> None:
        self.markers.append(ControlMarker(label, enclosing, line))

    def emit_call(self, recv: str, method: str, start: Token, enclosing: str) -> None:
        """Read the argument list of recv.method(...) and emit the call."""
        args = self.parse_args(enclosing)
        self.emit("MI", f"{recv}.{method}({','.join(args)})", enclosing, start.line, start.col)

    def assign_field(self, recv: str, field: str, start: Token, enclosing: str) -> str:
        """Emit the write of recv.field, the cursor at its '=', and read the value."""
        self.emit("FA", f"{recv}.{field}", enclosing, start.line, start.col)
        self.advance()
        self.scan_expression(enclosing, (";", ",", ")"))
        return "unknown"

    # --- scope / resolution -----------------------------------------------

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def bind(self, name: str, type_text: str) -> None:
        self.scopes[-1][name] = type_text

    def lookup(self, name: str) -> str | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def resolve_type(self, written: str) -> str:
        """Import-table lookup for simple names; qualified names kept as written."""
        base, suffix = written, ""
        while base.endswith("[]"):
            base, suffix = base[:-2], suffix + "[]"
        if "." not in base and base in self.imports:
            return self.imports[base] + suffix
        return written

    def is_type_name(self, name: str) -> bool:
        if name in self.imports or name in self.class_stack:
            return True
        return bool(name) and name[0].isupper() and self.lookup(name) is None

    def current_class(self) -> str:
        return self.class_stack[-1] if self.class_stack else "unknown"

    # --- compilation unit ---------------------------------------------------

    def parse_unit(self) -> None:
        if self.at("package"):
            t = self.advance()
            self.package = self.parse_qualified_name()
            self.accept(";")
            self.emit("PD", self.package, self.file_label, t.line, t.col)
        while self.at("import"):
            t = self.advance()
            self.accept("static")
            qname = self.parse_qualified_name()
            wildcard = self.accept(".") and self.accept("*")
            self.accept(";")
            display = qname + (".*" if wildcard else "")
            self.emit("ID", display, self.package or self.file_label, t.line, t.col)
            if not wildcard:
                parts = qname.split(".")
                simple = parts[-1]
                if simple in self._import_seen:
                    self.imports.pop(simple, None)  # ambiguous: keep as written
                else:
                    self._import_seen.add(simple)
                    self.imports[simple] = ".".join(parts[-2:])
        while self.cur().kind != "eof":
            self.skip_modifiers()
            if self.cur().text in ("class", "interface", "enum"):
                self.parse_type_decl(self.package or self.file_label)
            else:
                self.advance()  # stray top-level token: skip

    def parse_qualified_name(self) -> str:
        parts = []
        while self.cur().kind == "ident" or self.cur().text in PRIMITIVE_TYPES:
            parts.append(self.advance().text)
            if not (self.at(".") and self.la().kind in ("ident", "kw")):
                break
            self.advance()  # '.'
        return ".".join(parts)

    def skip_modifiers(self) -> None:
        while True:
            if self.cur().text in MODIFIERS:
                self.advance()
            elif self.accept("@"):
                if self.cur().kind in ("ident", "kw"):
                    self.advance()
                    while self.accept(".") and self.cur().kind == "ident":
                        self.advance()
                self.skip_balanced("(", ")")
            else:
                return

    # --- type declarations --------------------------------------------------

    def parse_type_decl(self, outer_path: str, declared_in: str | None = None) -> None:
        is_interface = self.advance().text == "interface"  # class | interface | enum
        name_tok = self.cur()
        if name_tok.kind != "ident":
            self.skip_to_statement_end()
            return
        name = self.advance().text
        # fixed as in esdp.extractor: a local class's TD is declared_in its
        # method's class, outside the method's sequence
        self.emit("TD", name, outer_path if declared_in is None else declared_in,
                  name_tok.line, name_tok.col)
        class_path = f"{outer_path}.{name}" if outer_path else name
        self.descend()
        self.skip_generics()
        for keyword, kind in (("extends", "II" if is_interface else "SC"),
                              ("implements", "II")):
            listed = self.accept(keyword)
            while listed:
                t = self.cur()
                sup = self.parse_type_text()
                if sup:
                    self.emit(kind, self.resolve_type(sup), class_path, t.line, t.col)
                listed = self.accept(",")
        self.class_stack.append(name)
        self.push_scope()
        self.class_fields.append(self.scopes[-1])
        if self.accept("{"):
            while not self.at("}") and self.cur().kind != "eof":
                self.parse_member(class_path)
            self.accept("}")
        self.class_fields.pop()
        self.pop_scope()
        self.class_stack.pop()
        self.depth -= 1

    def parse_member(self, class_path: str) -> None:
        self.skip_modifiers()
        self.skip_generics()  # fixed as in esdp.extractor: a generic method's type parameters
        t = self.cur()
        if t.text in ("class", "interface", "enum"):
            self.parse_type_decl(class_path)
            return
        if self.at("{"):  # instance/static initializer
            self.skip_balanced("{", "}")
            return
        if self.accept(";"):
            return
        if t.text == self.current_class() and self.la().text == "(":  # constructor
            self.advance()
            self.parse_method_rest(class_path, t.text, "", t)
            return
        type_text = self.parse_type_text()
        if not type_text or self.cur().kind != "ident":
            self.skip_to_statement_end()
            return
        name_tok = self.advance()
        if self.at("("):
            self.parse_method_rest(class_path, name_tok.text, type_text, t)
            return
        # field declaration: one item per statement, all declarators registered
        rtype = self.resolve_type(type_text)
        self.emit("FD", rtype + "[]" * self.declarator_dims(0), class_path, t.line, t.col)
        self.parse_declarators(name_tok.text, rtype, class_path)

    def declarator_dims(self, k: int) -> int:
        """Fixed as in esdp.extractor: every C-style '[]' pair after a
        declarator's name, k tokens ahead, adds a dimension."""
        dims = 0
        while self.la(k).text == "[" and self.la(k + 1).text == "]":
            dims += 1
            k += 2
        return dims

    def parse_declarators(self, name: str, rtype: str, enclosing: str) -> None:
        while True:
            dims = self.declarator_dims(0)
            self.i += 2 * dims
            self.bind(name, rtype + "[]" * dims)
            if self.accept("="):
                self.scan_expression(enclosing, (",", ";"))
            if not (self.accept(",") and self.cur().kind == "ident"):
                break
            name = self.advance().text
        self.accept(";")

    def parse_method_rest(self, class_path: str, name: str, return_type: str,
                          start: Token) -> None:
        """The rest of a method after its name; a constructor has no return type."""
        method_path = f"{class_path}.{name}()"
        self.push_scope()
        param_types = self.parse_params()
        rtype = self.resolve_type(return_type) if return_type else ""
        md_name = f"{name}({','.join(param_types)})" + (f":{rtype}" if rtype else "")
        self.emit("MD", md_name, class_path, start.line, start.col)
        while self.accept("throws"):
            self.parse_qualified_name()
            while self.accept(","):
                self.parse_qualified_name()
        self.return_types.append(rtype or "void")
        if self.at("{"):
            self.parse_block(method_path)
        else:
            self.accept(";")  # abstract/interface method
        self.return_types.pop()
        self.pop_scope()

    def parse_params(self) -> list[str]:
        types: list[str] = []
        if not self.accept("("):
            return types
        while not self.at(")") and self.cur().kind != "eof":
            self.skip_modifiers()
            type_text = self.parse_type_text()
            if not type_text:
                self.advance()
                continue
            rtype = self.resolve_type(type_text)
            if self.at("."):  # varargs '...': the parameter is an array
                rtype += "[]"
                while self.accept(".") and self.at("."):
                    self.advance()
            if self.cur().kind == "ident":
                pname = self.advance().text
                while self.accept("["):
                    self.accept("]")
                    rtype += "[]"
                self.bind(pname, rtype)
            types.append(rtype)
            if not self.accept(","):
                break
        self.accept(")")
        return types

    # --- statements -----------------------------------------------------------

    def parse_block(self, enclosing: str) -> None:
        self.accept("{")
        self.push_scope()
        while not self.at("}") and self.cur().kind != "eof":
            self.parse_statement(enclosing)
        self.accept("}")
        self.pop_scope()

    def parse_statement(self, enclosing: str) -> None:
        self.descend()
        self._statement(enclosing)
        self.depth -= 1

    def _statement(self, enclosing: str) -> None:
        t = self.cur()
        if t.text == "{":
            self.parse_block(enclosing)
        elif t.text == ";":
            self.advance()
        elif t.text == "if":
            # an else-if chain is read in this loop, not by recursion.
            # Changed as in esdp.extractor: a marker records where an if or
            # a loop begins, under its node label, and no end is marked
            while True:
                self.mark("IF", enclosing, self.cur().line)
                self.advance()
                self.parse_parens(enclosing)
                self.parse_statement(enclosing)
                if not self.accept("else"):
                    break
                if not self.at("if"):
                    self.parse_statement(enclosing)
                    break
        elif t.text in ("while", "do", "for"):
            self.mark("LOOP", enclosing, t.line)
            self.advance()
            if t.text == "while":
                self.parse_parens(enclosing)
            elif t.text == "for" and self.accept("("):
                self.parse_for_control(enclosing)
            self.parse_statement(enclosing)
            if t.text == "do":
                if self.accept("while"):
                    self.parse_parens(enclosing)
                self.accept(";")
        elif t.text == "return":
            self.emit("RT", self.return_types[-1], enclosing, t.line, t.col)
            self.advance()
            if not self.at(";"):
                self.scan_expression(enclosing, (";",))
            self.accept(";")
        elif t.text in ("this", "super") and self.la().text == "(":
            self.advance()
            args = self.parse_args(enclosing)
            kind = "CTI" if t.text == "this" else "SCI"
            self.emit(kind, f"{t.text}({','.join(args)})", enclosing, t.line, t.col)
            self.accept(";")
        elif t.text in _SKIP_STMT_KEYWORDS:
            self.skip_to_statement_end()
        elif t.text in ("class", "interface", "enum"):
            self.parse_type_decl(enclosing, enclosing.rpartition(".")[0])
        elif t.text in MODIFIERS:  # e.g. "final X x = ..."
            self.skip_modifiers()
            self.parse_statement(enclosing)
        elif t.kind == "ident" and self.la().text == ":":  # a label
            self.advance()
            self.advance()
            self.parse_statement(enclosing)
        else:
            rtype = self.parse_local_type(enclosing)
            if rtype is None:
                self.scan_expression(enclosing, (";",))
                if not self.accept(";") and self.cur().kind != "eof" and not self.at("}"):
                    self.advance()  # ensure progress on malformed input
            elif self.cur().kind == "ident":
                self.parse_declarators(self.advance().text, rtype, enclosing)
            else:
                self.skip_to_statement_end()

    def parse_for_control(self, enclosing: str) -> None:
        # classic "init; cond; update" or enhanced "Type v : iterable"
        rtype = self.parse_local_type(enclosing)
        if rtype is not None and self.cur().kind == "ident":
            if self.la().text == ":":  # for-each
                self.bind(self.advance().text, rtype)
                self.advance()
                self.scan_expression(enclosing, (")",))
                self.accept(")")
                return
            self.parse_declarators(self.advance().text, rtype, enclosing)
        self.scan_expression(enclosing, (";", ")"))
        while self.accept(";"):
            self.scan_expression(enclosing, (";", ")"))
        self.accept(")")

    def parse_local_type(self, enclosing: str) -> str | None:
        """Read the type of a local declaration and emit its VD; None, the
        cursor unmoved, when the statement is not a declaration."""
        start, save = self.cur(), self.i
        if start.kind == "ident":
            type_text = self.parse_type_text()
            if not (type_text and self.cur().kind == "ident"
                    and self.la().text in (";", "=", ",", ":", "[")):
                self.i = save
                return None
        elif start.text in PRIMITIVE_TYPES and start.text != "void":
            type_text = self.parse_type_text()
        else:
            return None
        rtype = self.resolve_type(type_text)
        # fixed as in esdp.extractor: the VD names the first declarator's type
        dims = self.declarator_dims(1) if self.cur().kind == "ident" else 0
        self.emit("VD", rtype + "[]" * dims, enclosing, start.line, start.col)
        return rtype

    def parse_type_text(self) -> str:
        """Parse a type reference; returns '' (cursor restored) when absent."""
        save = self.i
        t = self.cur()
        if t.text in PRIMITIVE_TYPES:
            base = self.advance().text
        elif t.kind == "ident":
            base = self.advance().text
            while self.at(".") and self.la().kind == "ident":
                self.advance()
                base += "." + self.advance().text
        else:
            return ""
        self.skip_generics()
        while self.at("[") and self.la().text == "]":
            self.advance()
            self.advance()
            base += "[]"
        if not _TYPE_START_RE.match(base):
            self.i = save
            return ""
        return base

    def skip_generics(self) -> None:
        if not self.at("<"):
            return
        save = self.i
        depth = 0
        while self.cur().kind != "eof":
            t = self.cur()
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    self.advance()
                    return
            elif t.kind not in ("ident", "kw") and t.text not in (",", ".", "?", "[", "]"):
                self.i = save  # not a generic group ('<' as comparison)
                return
            self.advance()
        self.i = save

    # --- expressions --------------------------------------------------------

    def scan_expression(self, enclosing: str, terminators: tuple[str, ...]) -> str:
        """Emit items from an expression, consuming up to (not including) a
        terminator or closer at this nesting level. Returns the classification
        of the first primary for argument typing."""
        self.descend()
        first: str | None = None
        while True:
            t = self.cur()
            if t.kind == "eof" or t.text in terminators or t.text in (")", "]", "}"):
                break
            if t.kind == "ident":
                ty = self.parse_name_chain(enclosing)
            elif t.text in ("this", "super"):
                ty = self.parse_this_chain(enclosing)
            elif t.text == "new":
                ty = self.parse_creation(enclosing)
            elif t.text == "(":
                # a cast's operand is the next primary this loop reads
                ty = self.try_parse_cast() or self.parse_postfix(enclosing, self.parse_parens(enclosing))
            else:
                self.advance()
                if t.kind == "num":
                    ty = "double" if "." in t.text or t.text[-1] in "dDfF" else "int"
                else:
                    ty = _LITERAL_TYPES.get(t.text if t.kind == "kw" else t.kind)
                    if ty is None:
                        continue  # operator or other glue
            if first is None:
                first = ty
        self.depth -= 1
        return first or "unknown"

    def parse_parens(self, enclosing: str) -> str:
        """Read '( expr )' if the cursor is at '('; the classification of expr."""
        if not self.accept("("):
            return "unknown"
        ty = self.scan_expression(enclosing, (")",))
        self.accept(")")
        return ty

    def parse_brackets(self, enclosing: str) -> int:
        """Read any '[ expr ]' groups: array dimensions or indexes."""
        groups = 0
        while self.accept("["):
            groups += 1
            if not self.at("]"):
                self.scan_expression(enclosing, ("]",))
            self.accept("]")
        return groups

    def try_parse_cast(self) -> str | None:
        # '(' Type ')' followed by a primary start
        save = self.i
        self.advance()  # '('
        type_text = self.parse_type_text()
        if type_text and self.accept(")"):
            nxt = self.cur()
            if (nxt.kind in ("ident", "num", "str", "char")
                    or nxt.text in ("new", "this", "super", "null", "true", "false", "(")):
                return self.resolve_type(type_text)
        self.i = save
        return None

    def parse_creation(self, enclosing: str) -> str:
        start = self.advance()  # 'new'
        type_text = self.parse_type_text()
        rtype = self.resolve_type(type_text) if type_text else "unknown"
        if self.at("[") or rtype.endswith("[]"):
            base = rtype + "[]" * self.parse_brackets(enclosing)
            self.emit("AC", base, enclosing, start.line, start.col)
            if self.at("{"):
                self.scan_braced_init(enclosing)
            return base
        args = self.parse_args(enclosing)
        if self.at("{"):
            self.emit("ACD", rtype, enclosing, start.line, start.col)
            self.skip_balanced("{", "}")
            return rtype
        self.emit("CI", f"{rtype}({','.join(args)})", enclosing, start.line, start.col)
        return rtype

    def parse_this_chain(self, enclosing: str) -> str:
        """'this' or 'super' and its member chain. A member of this or super
        names the enclosing class (or super) as receiver; a member reached
        through a field of the enclosing class names the field's type, as
        the same chain written without 'this.' does. The value of 'this.f'
        is the declared type of field f; a longer chain, or an index into
        it, reads 'unknown'."""
        start = self.advance()
        is_super = start.text == "super"
        if not self.at("."):
            return "super" if is_super else self.current_class()
        recv = "super" if is_super else lower_camel(self.current_class())
        fields = self.class_fields[-1] if self.class_fields and not is_super else {}
        value, field_type = "unknown", None
        while self.accept("."):
            self.skip_generics()  # fixed as in esdp.extractor: type arguments of a call
            if self.cur().kind != "ident":
                break
            member = self.advance().text
            if self.at("("):
                self.emit_call(recv, member, start, enclosing)
                return self.parse_postfix(enclosing, "unknown")
            if self.at("="):
                return self.assign_field(recv, member, start, enclosing)
            field_type = fields.get(member)
            recv = "unknown" if field_type is None else lower_camel(simple_name(field_type))
            value = field_type or "unknown"
            fields = {}
        if self.at("["):  # fixed as in esdp.extractor: an index into the field
            self.emit("AA", field_type or "unknown[]", enclosing, start.line, start.col)
            self.parse_brackets(enclosing)
            elem = field_type[:-2] if field_type and field_type.endswith("[]") else "unknown"
            return self.parse_postfix(enclosing, elem)
        return value

    def parse_name_chain(self, enclosing: str) -> str:
        start = self.cur()
        segments = [self.advance().text]
        while self.at(".") and self.la().kind == "ident" and self.la(2).text != "(":
            self.advance()
            segments.append(self.advance().text)
        if self.at("."):  # a call segment, perhaps with explicit type arguments
            save = self.i
            self.advance()
            self.skip_generics()
            if self.cur().kind == "ident" and self.la().text == "(":
                self.emit_call(self.render_receiver(segments), self.advance().text, start,
                               enclosing)
                return self.parse_postfix(enclosing, "unknown")
            self.i = save
        if len(segments) == 1 and self.at("("):
            # unqualified call: instance method of the enclosing class
            self.emit_call(lower_camel(self.current_class()), segments[0], start, enclosing)
            return self.parse_postfix(enclosing, "unknown")
        if self.at("["):
            arr_type = self.lookup(segments[0]) if len(segments) == 1 else None
            self.emit("AA", arr_type or "unknown[]", enclosing, start.line, start.col)
            self.parse_brackets(enclosing)
            elem = arr_type[:-2] if arr_type and arr_type.endswith("[]") else "unknown"
            return self.parse_postfix(enclosing, elem)
        if len(segments) > 1 and self.at("="):
            # dotted assignment target -> field access (write)
            return self.assign_field(self.render_receiver(segments[:-1]), segments[-1],
                                     start, enclosing)
        return self.classify_name(segments)

    def parse_postfix(self, enclosing: str, current: str) -> str:
        # member accesses and calls chained on an unknown intermediate value
        while self.at("."):
            save = self.i
            dot = self.advance()
            self.skip_generics()  # fixed as in esdp.extractor: type arguments of a call
            if self.cur().kind != "ident":
                self.i = save
                break
            member = self.advance().text
            if self.at("("):
                self.emit_call("unknown", member, dot, enclosing)
            current = "unknown"
        return current

    def render_receiver(self, segments: list[str]) -> str:
        """Receiver rendering for invocations/field writes.

        A declared variable renders as its type in lower camel; a known type
        name renders as the (resolved) type for static access; anything else
        is the deterministic fallback ``unknown``.
        """
        if len(segments) == 1:
            name = segments[0]
            var_type = self.lookup(name)
            if var_type is not None:
                return lower_camel(simple_name(var_type))
            if self.is_type_name(name):
                return self.resolve_type(name)
            return "unknown"
        if self.lookup(segments[0]) is None and any(s[0].isupper() for s in segments):
            return ".".join(segments)
        return "unknown"

    def classify_name(self, segments: list[str]) -> str:
        if len(segments) == 1:
            var_type = self.lookup(segments[0])
            if var_type is not None:
                return var_type
        # CONSTANT or Type.CONSTANT convention: reads as an int-valued API constant
        return "int" if _CONST_NAME_RE.match(segments[-1]) else "unknown"

    def parse_args(self, enclosing: str) -> list[str]:
        types: list[str] = []
        if not self.accept("("):
            return types
        self.descend()
        while not self.at(")") and self.cur().kind != "eof":
            types.append(self.scan_expression(enclosing, (",", ")")))
            if not self.accept(","):
                break
        self.accept(")")
        self.depth -= 1
        return types

    def scan_braced_init(self, enclosing: str) -> None:
        self.descend()
        self.accept("{")
        while not self.at("}") and self.cur().kind != "eof":
            if self.at("{"):
                self.scan_braced_init(enclosing)
                continue
            self.scan_expression(enclosing, (",", "}"))
            if not self.accept(","):
                break
        self.accept("}")
        self.depth -= 1

    # --- recovery -----------------------------------------------------------

    def skip_balanced(self, opener: str, closer: str) -> None:
        if not self.accept(opener):
            return
        depth = 1
        while depth and self.cur().kind != "eof":
            if self.at(opener):
                depth += 1
            elif self.at(closer):
                depth -= 1
            self.advance()

    def skip_to_statement_end(self) -> None:
        """Skip an unsupported construct: up to ';' or over one balanced block."""
        while self.cur().kind != "eof":
            if self.at(";"):
                self.advance()
                return
            if self.at("{"):
                self.skip_balanced("{", "}")
                return
            if self.at("}"):
                return
            self.advance()


def extract_items_reference(source: str, file_label: str = "<memory>",
                  context_vars: dict[str, str] | None = None,
                  ) -> tuple[list[SourceItem], list[ControlMarker]]:
    """Abstract one source text into items plus control markers.

    Items come back sorted by (line, column of occurrence). ``context_vars``
    injects ambient variable->type bindings (used when abstracting a lone
    statement or a rendered skeleton outside its original file).
    """
    if not source.strip():
        return [], []
    tokens = [Token(*t) for t in tokenize_reference(source)]
    _check_braces_reference(tokens)
    ex = _ExtractorReference(tokens, file_label, context_vars)
    ex.parse_unit()
    ex.out.sort(key=lambda rec: (rec[0], rec[1]))
    return [item for _, _, item in ex.out], list(ex.markers)


# --- repository codec --------------------------------------------------------------

# The reader compares a ranking line with the one text it may hold; the
# reference matches it against this expression and then checks the value.
_RANKING = re.compile("      <ranking>([^<]*)</ranking>")


def parse_reference(data: bytes) -> MinedRepository:
    """The reader before its per-call memo of accepted lines, kept verbatim
    as the differential reference of ``esdp.repository.parse``.

    Read canonical repository bytes; SchemaViolation on any other byte.

    Whatever it accepts, ``serialize`` writes back byte for byte.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _violation(data.count(b"\n", 0, exc.start) + 1,
                         f"not UTF-8 ({exc.reason})") from None
    lines = text.split("\n")
    if lines[-1]:
        raise _violation(len(lines), "document does not end with a line feed")
    # From here the last element is "", which no line position accepts, so
    # every index below stays in range.

    m = _HEADER.fullmatch(lines[0])
    if m is None:
        raise _violation(1, _expected("the <esdp-repository> header", lines[0]))
    corpus, created, min_support = _unesc(m[1]), _unesc(m[2]), int(m[3])

    patterns: list[SequentialPattern] = []
    if lines[1] == "  <patterns/>":
        n = 2
    elif lines[1] == "  <patterns>":
        n = 2
        seen: set[tuple] = set()
        pattern_match, support_match = _PATTERN.fullmatch, _SUPPORT.fullmatch
        confidence_match, ranking_match = _CONFIDENCE.fullmatch, _RANKING.fullmatch
        item_match = _ITEM.fullmatch
        while True:
            idx = len(patterns) + 1
            m = pattern_match(lines[n])
            if m is None:
                raise _pattern_violation(
                    n + 1, _expected('<pattern kind=".." k="..">', lines[n]), idx)
            kind, k = m[1], int(m[2])

            m = support_match(lines[n + 1])
            if m is None:
                raise _pattern_violation(
                    n + 2, _expected('<support num=".." den="..">', lines[n + 1]), idx, "support")
            num, den = int(m[1]), int(m[2])
            if num > den:
                raise _pattern_violation(n + 2, "num must be within 1..den", idx, "support")
            if m[3] != two_dp(num, den):
                raise _pattern_violation(
                    n + 2, f"display value {m[3]!r} inconsistent with {num}/{den}", idx, "support")

            m = confidence_match(lines[n + 2])
            if m is None:
                raise _pattern_violation(
                    n + 3, _expected('<confidence num=".." den="..">', lines[n + 2]), idx,
                    "confidence")
            cnum, cden = int(m[1]), int(m[2])
            if cnum != num:
                raise _pattern_violation(
                    n + 3, "confidence numerator must equal the support count", idx, "confidence")
            if cnum > cden or (k == 1 and cden != cnum):
                raise _pattern_violation(
                    n + 3, f"confidence {cnum}/{cden} out of range for k={k}", idx, "confidence")
            if m[3] != two_dp(cnum, cden):
                raise _pattern_violation(
                    n + 3, f"display value {m[3]!r} inconsistent with {cnum}/{cden}", idx,
                    "confidence")

            m = ranking_match(lines[n + 3])
            if m is None or m[1] != two_dp(k * num, den):
                raise _pattern_violation(
                    n + 4, _expected(f"<ranking>{two_dp(k * num, den)}</ranking> (k * support)",
                                     lines[n + 3]), idx, "ranking")
            if lines[n + 4] != "      <sequence>":
                raise _pattern_violation(
                    n + 5, _expected("<sequence>", lines[n + 4]), idx, "sequence")

            n += 5
            elements = []
            for i in range(1, k + 1):
                m = item_match(lines[n])
                if m is None or int(m[1]) != i:
                    raise _pattern_violation(
                        n + 1, _expected(f'<s i="{i}" kind="..">name</s>', lines[n]), idx,
                        "sequence", f"s[{i}]")
                name = m[3]
                if "&" in name:
                    name = _unesc(name)
                if name.strip() != name:
                    raise _pattern_violation(
                        n + 1, f"item name {name!r} is blank or padded", idx,
                        "sequence", f"s[{i}]")
                elements.append((m[2], name))
                n += 1
            if lines[n] != "      </sequence>":
                raise _pattern_violation(
                    n + 1, _expected(f"</sequence> after k={k} items", lines[n]), idx, "sequence")
            if lines[n + 1] != "    </pattern>":
                raise _pattern_violation(n + 2, _expected("</pattern>", lines[n + 1]), idx)
            n += 2

            key = tuple(elements)
            if key[0][0] != kind:
                raise _pattern_violation(n - k - 6, "pattern kind must match its first item", idx)
            if key in seen:
                raise _pattern_violation(n - k - 6, "duplicate pattern element-list", idx)
            seen.add(key)
            patterns.append(SequentialPattern(key, num, den, cden))
            if lines[n] == "  </patterns>":
                n += 1
                break
    else:
        raise _violation(2, _expected("<patterns> or <patterns/>", lines[1]), "patterns")

    if lines[n] != "</esdp-repository>":
        raise _violation(n + 1, _expected("</esdp-repository>", lines[n]))
    if n != len(lines) - 2:
        raise _violation(n + 2, "text after </esdp-repository>")
    return MinedRepository(
        patterns=tuple(patterns),
        corpus_label=corpus,
        created_at=created,
        min_support_used=min_support,
    )


def merge_update_spec(data: bytes, fresh: Iterable[SequentialPattern], created_at: str,
                      min_support_used: int) -> bytes:
    """What ``esdp.repository.merge_update`` writes for the store data, or
    the error it raises: the reader's refusal; else a stored pattern that
    does not sort after the one above it, at the line of its block; else a
    fresh text that cannot be written. Else what ``serialize`` writes for
    the stored patterns with the fresh ones folded in: a fresh element list
    (of equal ones, the last) replaces a stored one or is added, the corpus
    label is kept, and the stamp and min-support are those given."""
    stored = parse_reference(data)
    line = 3  # the first block's head; a block is k + 7 lines
    for idx in range(1, len(stored.patterns)):
        above, p = stored.patterns[idx - 1:idx + 1]
        line += above.k + 7
        if pattern_sort_key(p) <= pattern_sort_key(above):
            raise _pattern_violation(
                line, f"pattern ranks above pattern[{idx}]: stored patterns must be in "
                "ranking order", idx + 1)
    latest = {p.elements: p for p in fresh}
    _check_writable((stored.corpus_label, created_at), latest.values())
    merged = {p.elements: p for p in stored.patterns} | latest
    return serialize(make_repository(merged.values(), stored.corpus_label, created_at,
                                     min_support_used))
