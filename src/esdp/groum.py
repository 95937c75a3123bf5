"""Graph-based object usage models and frequent induced-subgraph mining.

A groum is a labeled DAG built from one method's action items (calls,
creations, field writes) and control regions. Mining grows patterns one
node at a time by extending every stored occurrence with an adjacent node
of a frequent label, groups the candidates into isomorphism classes by one
canonical key (colour refinement, then the smallest edge list over the
orders the refinement leaves open), and keeps classes whose
independent-occurrence frequency reaches the threshold. Two exact prunes
spare work on candidates that cannot be frequent: a label group with fewer
candidates than the threshold is dropped before any key is computed, and a
class found infrequent is remembered, so its frequency is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby, permutations, product
from typing import Iterable, Iterator, Sequence

from .items import (ControlMarker, ItemKind, MarkerKind, SourceItem, lower_camel,
                    simple_name, upper_first)
from .mining import InvalidThreshold


class MalformedControlNesting(Exception):
    pass


_ACTION_KINDS = frozenset(
    {ItemKind.CI, ItemKind.MI, ItemKind.FA, ItemKind.CTI, ItemKind.SCI}
)

# exact independent-set search above this many occurrences is replaced by a
# greedy lower bound
EXACT_OCCURRENCE_LIMIT = 20


@dataclass(frozen=True)
class GroumNode:
    id: int
    label: str
    role: str  # "action" | "control"


@dataclass(frozen=True)
class Groum:
    nodes: tuple[GroumNode, ...]
    edges: frozenset[tuple[int, int]]
    origin: str = ""

    def labels(self) -> tuple[str, ...]:
        return tuple(n.label for n in self.nodes)


@dataclass
class GroumPattern:
    representative: Groum
    occurrences: dict[int, list[frozenset[int]]]  # graph index -> node sets
    frequency: int
    size: int
    frequency_is_exact: bool = True


def _action(item: SourceItem) -> tuple[str, str | None]:
    """Action node label (Type.method, Type.field or Type.<init>) and the
    object identity proxy for data-dependency edges: the lower-camel
    receiver or created type, or None when nothing is shareable."""
    kind = item.kind
    if kind is ItemKind.CTI:
        # enclosing "pkg.Cls.m()" -> its class
        return f"{item.enclosing.split('.')[-2]}.<init>", "this"
    if kind is ItemKind.SCI:
        return "super.<init>", "super"
    head = item.name.split("(", 1)[0]
    if kind is ItemKind.CI:
        return f"{simple_name(head)}.<init>", lower_camel(simple_name(head))
    receiver, dot, member = head.rpartition(".")
    if not dot:
        return head, None
    tag = None if receiver == "unknown" else lower_camel(simple_name(receiver))
    return f"{upper_first(simple_name(receiver))}.{member}", tag


def build_groum(items: Sequence[SourceItem], markers: Sequence[ControlMarker] = (),
                origin: str = "") -> Groum:
    """DAG over one method's action items and control regions.

    Edge a->b when a precedes b and either they share a receiver tag with no
    use between (data dependency) or b immediately follows a (usage order);
    transitive edges are omitted.
    """
    _check_nesting(markers)
    entries: list[tuple[tuple[int, int], str, str, str | None]] = []
    for it in items:
        if it.kind in _ACTION_KINDS:
            label, tag = _action(it)
            entries.append(((it.line, 1), label, "action", tag))
    for m in markers:
        if m.kind is MarkerKind.IF_BEGIN:
            entries.append(((m.line, 0), "IF", "control", None))
        elif m.kind is MarkerKind.LOOP_BEGIN:
            entries.append(((m.line, 0), "LOOP", "control", None))
    entries.sort(key=lambda e: e[0])

    nodes = tuple(GroumNode(i, label, role) for i, (_, label, role, _) in enumerate(entries))
    edges: set[tuple[int, int]] = set()
    for i in range(len(entries) - 1):
        edges.add((i, i + 1))
    last_use: dict[str, int] = {}
    for i, (_, _, _, tag) in enumerate(entries):
        if tag is None:
            continue
        if tag in last_use:
            edges.add((last_use[tag], i))
        last_use[tag] = i
    return Groum(nodes, frozenset(edges), origin=origin or (items[0].enclosing if items else ""))


def _check_nesting(markers: Sequence[ControlMarker]) -> None:
    stack: list[MarkerKind] = []
    pairs = {MarkerKind.IF_END: MarkerKind.IF_BEGIN, MarkerKind.LOOP_END: MarkerKind.LOOP_BEGIN}
    for m in markers:
        if m.kind in (MarkerKind.IF_BEGIN, MarkerKind.LOOP_BEGIN):
            stack.append(m.kind)
        else:
            if not stack or stack[-1] is not pairs[m.kind]:
                raise MalformedControlNesting(f"unmatched {m.kind.value} at line {m.line}")
            stack.pop()
    if stack:
        raise MalformedControlNesting(f"unclosed {stack[-1].value}")


def build_groums_for_methods(items: Sequence[SourceItem],
                             markers: Sequence[ControlMarker]) -> list[Groum]:
    """One groum per method block that holds at least one action item."""
    by_method: dict[str, list[SourceItem]] = {}
    marks: dict[str, list[ControlMarker]] = {}
    for it in items:
        if it.enclosing.endswith("()"):
            by_method.setdefault(it.enclosing, []).append(it)
    for m in markers:
        marks.setdefault(m.enclosing, []).append(m)
    groums = []
    for path in sorted(by_method):
        g = build_groum(by_method[path], marks.get(path, ()), origin=path)
        if g.nodes:
            groums.append(g)
    return groums


# --- canonical form ----------------------------------------------------------------

def induced_subgraph(g: Groum, node_ids: Iterable[int]) -> Groum:
    keep = sorted(set(node_ids))
    remap = {old: new for new, old in enumerate(keep)}
    by_id = {n.id: n for n in g.nodes}
    nodes = tuple(GroumNode(remap[i], by_id[i].label, by_id[i].role) for i in keep)
    edges = frozenset((remap[a], remap[b]) for a, b in g.edges
                      if a in remap and b in remap)
    return Groum(nodes, edges, origin=g.origin)


def canonical_form(g: Groum) -> tuple:
    """Order-independent key: equal keys iff the graphs are label-isomorphic."""
    return _canonical_key({n.id: n.label for n in g.nodes}, g.edges)


def _canonical_key(labels: dict[int, str], edges: Iterable[tuple[int, int]]) -> tuple:
    """Canonical key of the graph with these node labels and edges.

    Colour refinement: nodes start coloured by label; each round recolours a
    node by its colour and the sorted colours of its out- and in-neighbours,
    until no cell splits. Colours are ranks of sorted signatures, so they do
    not depend on node ids and their order refines the label order. Node
    orders that permute only within the remaining cells are tried; the key
    is the labels in that order and the smallest sorted edge tuple.
    """
    edges = list(edges)
    succ: dict[int, list[int]] = {v: [] for v in labels}
    pred: dict[int, list[int]] = {v: [] for v in labels}
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    colour: dict[int, object] = dict(labels)
    cells = len(set(labels.values()))
    while cells < len(labels):
        signature = {v: (c, tuple(sorted(colour[w] for w in succ[v])),
                         tuple(sorted(colour[w] for w in pred[v])))
                     for v, c in colour.items()}
        distinct = sorted(set(signature.values()))
        if len(distinct) == cells:
            break
        rank = {sig: i for i, sig in enumerate(distinct)}
        colour = {v: rank[sig] for v, sig in signature.items()}
        cells = len(distinct)
    ordered = sorted(labels, key=colour.__getitem__)
    groups = [tuple(cell) for _, cell in groupby(ordered, key=colour.__getitem__)]
    best: tuple | None = None
    for parts in product(*(permutations(cell) for cell in groups)):
        position = {v: i for i, v in enumerate(chain.from_iterable(parts))}
        key = tuple(sorted((position[a], position[b]) for a, b in edges))
        if best is None or key < best:
            best = key
    return (tuple(labels[v] for v in ordered), best)


# --- frequency: maximum independent occurrences ----------------------------------

def independent_occurrence_count(occurrences: Sequence[frozenset[int]],
                                 ) -> tuple[int, bool]:
    """Maximum number of pairwise node-disjoint occurrences.

    The occurrences are split into the connected components of their
    conflict graph (two occurrences conflict when they share a node), whose
    maximum independent sets add up: each component of at most
    EXACT_OCCURRENCE_LIMIT is counted exactly (branch and bound), a larger
    one greedily in first-seen order, and any greedy component flags the sum
    as a lower bound. Sets of occurrences are bit masks over their indexes.
    """
    occs = list(occurrences)
    holders: dict[int, int] = {}  # node -> the occurrences that hold it
    for i, occ in enumerate(occs):
        for v in occ:
            holders[v] = holders.get(v, 0) | 1 << i
    conflict = [0] * len(occs)
    for i, occ in enumerate(occs):
        for v in occ:
            conflict[i] |= holders[v]
        conflict[i] &= ~(1 << i)
    total, exact = 0, True
    left = (1 << len(occs)) - 1
    while left:
        # the component of the first occurrence left, grown ring by ring
        component = ring = left & -left
        while ring:
            reached = 0
            for i in _indexes(ring):
                reached |= conflict[i]
            ring = reached & ~component
            component |= ring
        left ^= component
        if component.bit_count() <= EXACT_OCCURRENCE_LIMIT:
            total += _max_independent(component, conflict)
            continue
        taken = 0
        for i in _indexes(component):  # greedily, in first-seen order
            if not conflict[i] & taken:
                taken |= 1 << i
        total += taken.bit_count()
        exact = False
    return total, exact


def _indexes(mask: int) -> Iterator[int]:
    """The indexes of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _max_independent(remaining: int, conflict: list[int]) -> int:
    """Largest independent set among the bits of remaining; conflict[v] holds
    the bits of the occurrences that share a node with occurrence v.
    Occurrences that conflict with none left are taken without branching;
    the search branches on the lowest one that does conflict."""
    taken = 0
    branch = -1
    bits = remaining
    while bits:
        low = bits & -bits
        bits ^= low
        v = low.bit_length() - 1
        if not conflict[v] & remaining:
            taken += 1
            remaining ^= low
        elif branch < 0:
            branch = v
    if branch < 0:
        return taken
    without = _max_independent(remaining & ~(1 << branch), conflict)
    with_v = 1 + _max_independent(remaining & ~(conflict[branch] | (1 << branch)), conflict)
    return taken + max(without, with_v)


def frequency(occurrences_per_graph: dict[int, Sequence[frozenset[int]]],
              ) -> tuple[int, bool]:
    """Dataset frequency: sum of per-graph independent occurrence counts."""
    total = 0
    exact = True
    for occs in occurrences_per_graph.values():
        f_i, is_exact = independent_occurrence_count(occs)
        total += f_i
        exact = exact and is_exact
    return total, exact


# --- pattern exploration -----------------------------------------------------------

@dataclass(frozen=True)
class _Host:
    """One dataset graph with the lookups growth needs, built once per call."""
    graph: Groum
    labels: dict[int, str]
    neighbors: dict[int, set[int]]  # both edge directions
    successors: dict[int, list[int]]

    @classmethod
    def of(cls, g: Groum) -> "_Host":
        neighbors: dict[int, set[int]] = {n.id: set() for n in g.nodes}
        successors: dict[int, list[int]] = {n.id: [] for n in g.nodes}
        for a, b in g.edges:
            neighbors[a].add(b)
            neighbors[b].add(a)
            successors[a].append(b)
        return cls(g, {n.id: n.label for n in g.nodes}, neighbors, successors)


def patt_explorer(dataset: Sequence[Groum], sigma: int) -> list[GroumPattern]:
    """All frequent induced-subgraph patterns of the dataset.

    Growth is seeded with the frequent single-label patterns; each pattern's
    full occurrence set is extended by every adjacent node carrying a
    frequent label, candidates are partitioned into isomorphism classes by
    canonical key and classes meeting the threshold recurse. Two exact
    prunes (see _explore) skip a label group with fewer than sigma
    candidates and remember, in a set local to this call, every class found
    infrequent. Output holds one pattern per canonical key, ordered by
    (size, canonical key).
    """
    if sigma < 1:
        raise InvalidThreshold(f"sigma must be >= 1, got {sigma}")
    hosts = [_Host.of(g) for g in dataset]
    if not hosts:
        return []

    # size-1 patterns: distinct single nodes are always disjoint
    unit_occs: dict[str, dict[int, list[frozenset[int]]]] = {}
    for gi, host in enumerate(hosts):
        for node in host.graph.nodes:
            unit_occs.setdefault(node.label, {}).setdefault(gi, []).append(
                frozenset([node.id]))
    explored: dict[tuple, GroumPattern] = {}
    frequent: set[str] = set()
    for label in sorted(unit_occs):
        occs = unit_occs[label]
        freq = sum(len(v) for v in occs.values())
        if freq >= sigma:
            gi = min(occs)
            rep = induced_subgraph(hosts[gi].graph, next(iter(occs[gi])))
            explored[canonical_form(rep)] = GroumPattern(rep, occs, freq, 1, True)
            frequent.add(label)
    keys: dict[tuple[int, frozenset[int]], tuple] = {}
    rejected: set[tuple] = set()
    for pattern in list(explored.values()):
        _explore(pattern, hosts, frequent, sigma, explored, rejected, keys)
    return [p for _, p in sorted(explored.items(), key=lambda kv: (kv[1].size, kv[0]))]


def _explore(pattern: GroumPattern, hosts: Sequence[_Host], frequent: set[str],
             sigma: int, explored: dict[tuple, GroumPattern], rejected: set[tuple],
             keys: dict[tuple[int, frozenset[int]], tuple]) -> None:
    """Grow pattern depth first, labels in sorted order, adding every new
    frequent class to explored and every infrequent one to rejected, under
    its canonical key. keys memoizes the canonical key of each (graph index,
    node set) seen in this call.

    Both prunes are exact. A class's frequency is a sum of maximum
    disjoint-occurrence counts, so it is at most its number of distinct
    occurrences, and each class of a label group holds a subset of the
    group's distinct node sets: a group with fewer than sigma candidates
    holds no frequent class and is skipped before any key is computed.
    A class's occurrence list does not depend on the parent that reached
    it: explored holds every occurrence of each frequent pattern, an
    occurrence of P (+) y contains an occurrence of P, and
    _isomorphism_classes orders occurrences by sorted graph index and sorted
    node set. So the exact count, the greedy lower bound and the
    representative are the same from every parent, and a key in explored or
    in rejected is already decided."""
    # P (+) U for every frequent label U at once: each occurrence X extended
    # by an adjacent node Y of that label, with all connecting edges
    # (induced extension)
    extensions: dict[str, dict[int, set[frozenset[int]]]] = {}
    for gi, occs in pattern.occurrences.items():
        host = hosts[gi]
        for occ in occs:
            adjacent: set[int] = set()
            for v in occ:
                adjacent |= host.neighbors[v]
            for y in adjacent - occ:
                label = host.labels[y]
                if label in frequent:
                    extensions.setdefault(label, {}).setdefault(gi, set()).add(occ | {y})
    for label in sorted(extensions):
        group = extensions[label]
        if sum(len(s) for s in group.values()) < sigma:
            continue
        for key, occurrences in _isomorphism_classes(hosts, group, keys):
            if key in explored or key in rejected:
                continue
            freq, exact = frequency(occurrences)
            if freq < sigma:
                rejected.add(key)
                continue
            gi = next(iter(occurrences))
            rep = induced_subgraph(hosts[gi].graph, occurrences[gi][0])
            cls = GroumPattern(rep, occurrences, freq, len(rep.nodes), exact)
            explored[key] = cls
            _explore(cls, hosts, frequent, sigma, explored, rejected, keys)


def _isomorphism_classes(hosts: Sequence[_Host],
                         candidates: dict[int, set[frozenset[int]]],
                         keys: dict[tuple[int, frozenset[int]], tuple],
                         ) -> list[tuple[tuple, dict[int, list[frozenset[int]]]]]:
    """Partition candidate subgraphs into label-isomorphism classes: each
    canonical key with its occurrences, in first-seen order over sorted
    graph indexes and sorted node sets. The first occurrence of a class is
    its representative. A key missing from keys is computed and stored."""
    classes: dict[tuple, dict[int, list[frozenset[int]]]] = {}
    for gi in sorted(candidates):
        host = hosts[gi]
        for occ in sorted(candidates[gi], key=sorted):
            key = keys.get((gi, occ))
            if key is None:
                key = keys[gi, occ] = _canonical_key(
                    {v: host.labels[v] for v in occ},
                    [(a, b) for a in occ for b in host.successors[a] if b in occ])
            classes.setdefault(key, {}).setdefault(gi, []).append(occ)
    return list(classes.items())


# --- reporting -----------------------------------------------------------------

def dump_groum(g: Groum) -> str:
    """Line-oriented text form: node/edge lines."""
    lines = [f"node {n.id} {n.label}" for n in g.nodes]
    lines += [f"edge {a} {b}" for a, b in sorted(g.edges)]
    return "\n".join(lines)
