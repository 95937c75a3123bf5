"""Graph-based object usage models and frequent induced-subgraph mining.

A groum is a labeled DAG built from one method's action items (calls,
creations, field writes) and control regions, held as its node labels and
its edges: node i is its position, labels[i] its label, in line order. A
region is one IF or LOOP node at the line where it begins, so a control
marker's label is its node's label. Mining grows patterns one node at a
time by extending every stored occurrence with an adjacent node of a
frequent label, groups the candidates into isomorphism classes by one
canonical key (colour refinement, then the smallest edge list over the
orders the refinement leaves open), and keeps classes whose
independent-occurrence frequency reaches the threshold. A label group with
fewer candidates than the threshold holds no frequent class and is dropped
before any key is computed. Each node set is partitioned at most once per
call: the first group to partition any occurrence of a class holds all of
them, so a node set partitioned before is dropped and no class is decided
twice. The canonical key is computed once per labelled shape (labels and
edges of a candidate in ascending node order), and a single node's key is
written directly; occurrences that share no node are counted without a
search; and the graph build gives each distinct action its label and tag
once per call.
"""

from __future__ import annotations

from itertools import chain, groupby, permutations, product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .items import ControlMarker, SourceItem, lower_camel, simple_name, upper_first
from .mining import InvalidThreshold

_ACTION_KINDS = frozenset({"CI", "MI", "FA", "CTI", "SCI"})

# exact independent-set search above this many occurrences is replaced by a
# greedy lower bound
EXACT_OCCURRENCE_LIMIT = 20


class Groum(NamedTuple):
    labels: tuple[str, ...]  # node i is labels[i]
    edges: frozenset[tuple[int, int]]
    origin: str = ""


class GroumPattern(NamedTuple):
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
    if kind == "CTI":
        # enclosing "pkg.Cls.m()" -> its class
        return f"{item.enclosing.split('.')[-2]}.<init>", "this"
    if kind == "SCI":
        return "super.<init>", "super"
    head = item.name.split("(", 1)[0]
    if kind == "CI":
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
    actions = [(it.line, *_action(it)) for it in items if it.kind in _ACTION_KINDS]
    return _groum(actions, markers, origin or (items[0].enclosing if items else ""))


def _groum(actions: Sequence[tuple[int, str, str | None]],
           markers: Sequence[ControlMarker], origin: str) -> Groum:
    """build_groum's graph from each action's (line, label, tag)."""
    entries = [((line, 1), label, tag) for line, label, tag in actions]
    entries += [((m.line, 0), m.label, None) for m in markers]
    entries.sort(key=lambda e: e[0])

    labels = tuple(label for _, label, _ in entries)
    edges: set[tuple[int, int]] = set()
    for i in range(len(entries) - 1):
        edges.add((i, i + 1))
    last_use: dict[str, int] = {}
    for i, (_, _, tag) in enumerate(entries):
        if tag is None:
            continue
        if tag in last_use:
            edges.add((last_use[tag], i))
        last_use[tag] = i
    return Groum(labels, frozenset(edges), origin=origin)


def build_groums_for_methods(items: Sequence[SourceItem],
                             markers: Sequence[ControlMarker]) -> list[Groum]:
    """One groum per method block that holds at least one action item or
    control region, in method path order, each as build_groum gives it.

    An action's label and tag depend only on its kind and name, or, for a
    this(...) call, on its class, so _action runs once per distinct one in
    a dict local to this call; one kept by the module would be shared by
    every call in a process and grow with each corpus."""
    labelled: dict[tuple[str, str], tuple[str, str | None]] = {}
    actions: dict[str, list[tuple[int, str, str | None]]] = {}
    marks: dict[str, list[ControlMarker]] = {}
    for it in items:
        kind, enclosing = it.kind, it.enclosing
        if kind in _ACTION_KINDS and enclosing.endswith("()"):
            key = (kind, enclosing.rpartition(".")[0] if kind == "CTI" else it.name)
            action = labelled.get(key)
            if action is None:
                action = labelled[key] = _action(it)
            actions.setdefault(enclosing, []).append((it.line, *action))
    for m in markers:
        marks.setdefault(m.enclosing, []).append(m)
    return [_groum(actions.get(path, ()), marks.get(path, ()), path)
            for path in sorted(actions.keys() | marks.keys())]


# --- canonical form ----------------------------------------------------------------

def induced_subgraph(g: Groum, node_ids: Iterable[int]) -> Groum:
    """The subgraph on node_ids, its nodes renumbered in ascending order."""
    keep = sorted(set(node_ids))
    remap = {old: new for new, old in enumerate(keep)}
    edges = frozenset((remap[a], remap[b]) for a, b in g.edges
                      if a in remap and b in remap)
    return Groum(tuple(g.labels[i] for i in keep), edges, origin=g.origin)


def canonical_form(g: Groum) -> tuple:
    """Order-independent key: equal keys iff the graphs are label-isomorphic."""
    return _canonical_key(g.labels, g.edges)


def _canonical_key(labels: Sequence[str], edges: Iterable[tuple[int, int]]) -> tuple:
    """Canonical key of the graph whose node i is labelled labels[i], with
    these edges.

    Colour refinement: nodes start coloured by label; each round recolours a
    node by its colour and the sorted colours of its out- and in-neighbours,
    until no cell splits. Colours are ranks of sorted signatures, so they do
    not depend on node ids and their order refines the label order. Node
    orders that permute only within the remaining cells are tried; the key
    is the labels in that order and the smallest sorted edge tuple.
    """
    edges = list(edges)
    nodes = range(len(labels))
    succ: list[list[int]] = [[] for _ in nodes]
    pred: list[list[int]] = [[] for _ in nodes]
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    colour: list = list(labels)
    cells = len(set(labels))
    while cells < len(labels):
        signature = [(c, tuple(sorted(colour[w] for w in succ[v])),
                      tuple(sorted(colour[w] for w in pred[v])))
                     for v, c in enumerate(colour)]
        distinct = sorted(set(signature))
        if len(distinct) == cells:
            break
        rank = {sig: i for i, sig in enumerate(distinct)}
        colour = [rank[sig] for sig in signature]
        cells = len(distinct)
    ordered = sorted(nodes, key=colour.__getitem__)
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
    as a lower bound. Pairwise disjoint occurrences, whose union is as large
    as their sizes added up, are all counted at once. Sets of occurrences
    are bit masks over their indexes.
    """
    occs = list(occurrences)
    if len(frozenset().union(*occs)) == sum(map(len, occs)):  # pairwise disjoint
        return len(occs), True
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

class _Host(NamedTuple):
    """One dataset graph with the lookups growth needs, built once per call;
    each list is indexed by node."""
    graph: Groum
    neighbors: list[set[int]]  # both edge directions
    successors: list[list[int]]  # ascending: equal shapes list their edges alike

    @classmethod
    def of(cls, g: Groum) -> "_Host":
        neighbors: list[set[int]] = [set() for _ in g.labels]
        successors: list[list[int]] = [[] for _ in g.labels]
        for a, b in sorted(g.edges):
            neighbors[a].add(b)
            neighbors[b].add(a)
            successors[a].append(b)
        return cls(g, neighbors, successors)


def patt_explorer(dataset: Sequence[Groum], sigma: int) -> list[GroumPattern]:
    """All frequent induced-subgraph patterns of the dataset.

    Growth is seeded with the frequent single-label patterns; each pattern's
    full occurrence set is extended by every adjacent node carrying a
    frequent label, candidates are partitioned into isomorphism classes by
    canonical key and classes meeting the threshold recurse. A label group
    with fewer than sigma candidates is skipped, and each node set is
    partitioned at most once per call (see _explore), recorded in a set
    local to this call. Output holds one pattern per canonical key, ordered
    by (size, canonical key).
    """
    if sigma < 1:
        raise InvalidThreshold(f"sigma must be >= 1, got {sigma}")
    hosts = [_Host.of(g) for g in dataset]
    if not hosts:
        return []

    # size-1 patterns: distinct single nodes are always disjoint
    unit_occs: dict[str, dict[int, list[frozenset[int]]]] = {}
    for gi, host in enumerate(hosts):
        for v, label in enumerate(host.graph.labels):
            unit_occs.setdefault(label, {}).setdefault(gi, []).append(frozenset([v]))
    explored: dict[tuple, GroumPattern] = {}
    frequent: set[str] = set()
    for label in sorted(unit_occs):
        occs = unit_occs[label]
        freq = sum(len(v) for v in occs.values())
        if freq >= sigma:
            # a single node's canonical key and induced subgraph
            rep = Groum((label,), frozenset(), hosts[min(occs)].graph.origin)
            explored[(label,), ()] = GroumPattern(rep, occs, freq, 1, True)
            frequent.add(label)
    partitioned: set[tuple[int, frozenset[int]]] = set()
    for pattern in list(explored.values()):
        _explore(pattern, hosts, frequent, sigma, explored, partitioned)
    return [p for _, p in sorted(explored.items(), key=lambda kv: (kv[1].size, kv[0]))]


def _explore(pattern: GroumPattern, hosts: Sequence[_Host], frequent: set[str],
             sigma: int, explored: dict[tuple, GroumPattern],
             partitioned: set[tuple[int, frozenset[int]]]) -> None:
    """Grow pattern depth first, labels in sorted order, adding every new
    frequent class to explored under its canonical key. partitioned holds
    every (graph index, node set) handed to _isomorphism_classes in this
    call.

    The prune is exact. A class's frequency is a sum of maximum
    disjoint-occurrence counts, so it is at most its number of distinct
    occurrences, and each class of a label group holds a subset of the
    group's distinct node sets: a group with fewer than sigma candidates
    holds no frequent class and is skipped before any key is computed, and
    one reached fewer than sigma times before its node sets are built.

    Each node set is partitioned at most once per call, which is exact too.
    An occurrence of a class K = P (+) y is an occurrence of P with one
    adjacent node labelled y added, and explored holds every occurrence of
    P, so the first group that partitions any of K's node sets holds all of
    them, and _isomorphism_classes orders them by sorted graph index and
    sorted node set: K's count, lower-bound flag and representative are
    those of any parent. A node set partitioned before is dropped before
    its label group is counted; every class of the group is then new, and
    recursion only partitions larger node sets. A class's representative is
    built from the labelled shape of its first occurrence, which is that
    occurrence's induced subgraph."""
    # P (+) U for every frequent label U: each occurrence X extended by an
    # adjacent node Y of that label, with all connecting edges (induced
    # extension); first the (graph, X, Y) that reach each label
    reached: dict[str, list[tuple[int, frozenset[int], int]]] = {}
    for gi, occs in pattern.occurrences.items():
        neighbors, labels = hosts[gi].neighbors, hosts[gi].graph.labels
        for occ in occs:
            for y in set().union(*map(neighbors.__getitem__, occ)) - occ:
                label = labels[y]
                if label in frequent:
                    reached.setdefault(label, []).append((gi, occ, y))
    for label in sorted(reached):
        if len(reached[label]) < sigma:  # at least as many as distinct node sets
            continue
        group: dict[int, set[frozenset[int]]] = {}
        for gi, occ, y in reached[label]:
            grown = occ | {y}
            if (gi, grown) not in partitioned:
                group.setdefault(gi, set()).add(grown)
        if sum(len(s) for s in group.values()) < sigma:
            continue
        partitioned.update((gi, occ) for gi, occs in group.items() for occ in occs)
        for key, (labels, edges), occurrences in _isomorphism_classes(hosts, group):
            freq, exact = frequency(occurrences)
            if freq < sigma:
                continue
            rep = Groum(labels, frozenset(edges), hosts[next(iter(occurrences))].graph.origin)
            cls = GroumPattern(rep, occurrences, freq, len(labels), exact)
            explored[key] = cls
            _explore(cls, hosts, frequent, sigma, explored, partitioned)


def _isomorphism_classes(hosts: Sequence[_Host],
                         candidates: dict[int, set[frozenset[int]]],
                         ) -> list[tuple[tuple, tuple, dict[int, list[frozenset[int]]]]]:
    """Partition candidate subgraphs into label-isomorphism classes: each
    canonical key with the labelled shape of its first occurrence and its
    occurrences, in first-seen order over sorted graph indexes and sorted
    node sets. The first occurrence of a class is its representative.
    patt_explorer hands each node set here at most once per call (see
    _explore), so nothing is memoized per node set.

    A candidate's labelled shape is its labels in ascending node-id order
    and its edges as (position, position) pairs: its induced subgraph. Its
    key is computed by _canonical_key once per shape in a memo local to the
    call; one shared by calls would never hit, since a shape's occurrences
    are one class's and all of them are partitioned in one call. The memo
    is exact: two candidates with equal shapes are mapped onto each other
    by the position bijection, which keeps labels and edges, and the
    canonical key depends only on the labelled graph up to isomorphism, so
    the key of the shape is the key of every occurrence that has it."""
    shapes: dict[tuple, tuple] = {}
    firsts: dict[tuple, tuple] = {}
    classes: dict[tuple, dict[int, list[frozenset[int]]]] = {}
    for gi in sorted(candidates):
        labels, successors = hosts[gi].graph.labels, hosts[gi].successors
        for nodes, occ in sorted([(sorted(occ), occ) for occ in candidates[gi]]):
            position = {v: i for i, v in enumerate(nodes)}
            shape = (tuple(map(labels.__getitem__, nodes)),
                     tuple((i, position[b]) for i, a in enumerate(nodes)
                           for b in successors[a] if b in position))
            key = shapes.get(shape)
            if key is None:
                key = shapes[shape] = _canonical_key(*shape)
                firsts.setdefault(key, shape)
            classes.setdefault(key, {}).setdefault(gi, []).append(occ)
    return [(key, firsts[key], occurrences) for key, occurrences in classes.items()]


# --- reporting -----------------------------------------------------------------

def dump_groum(g: Groum) -> str:
    """Line-oriented text form: node/edge lines."""
    lines = [f"node {i} {label}" for i, label in enumerate(g.labels)]
    lines += [f"edge {a} {b}" for a, b in sorted(g.edges)]
    return "\n".join(lines)
