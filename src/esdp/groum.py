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
independent-occurrence frequency reaches the threshold. Two exact prunes
spare work on candidates that cannot be frequent: a label group with fewer
candidates than the threshold is dropped before any key is computed, and a
class found infrequent is remembered, so its frequency is computed once.
Repeated work is skipped without changing the output: the canonical key is
computed once per labelled shape (labels and edges of a candidate in
ascending node order), and occurrences that share no node are counted
without a search.
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
    entries: list[tuple[tuple[int, int], str, str | None]] = []
    for it in items:
        if it.kind in _ACTION_KINDS:
            entries.append(((it.line, 1), *_action(it)))
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
    return Groum(labels, frozenset(edges), origin=origin or (items[0].enclosing if items else ""))


def build_groums_for_methods(items: Sequence[SourceItem],
                             markers: Sequence[ControlMarker]) -> list[Groum]:
    """One groum per method block that holds at least one action item or
    control region, in method path order."""
    actions: dict[str, list[SourceItem]] = {}
    marks: dict[str, list[ControlMarker]] = {}
    for it in items:
        if it.kind in _ACTION_KINDS and it.enclosing.endswith("()"):
            actions.setdefault(it.enclosing, []).append(it)
    for m in markers:
        marks.setdefault(m.enclosing, []).append(m)
    return [build_groum(actions.get(path, ()), marks.get(path, ()), origin=path)
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
    canonical key and classes meeting the threshold recurse. Two exact
    prunes (see _explore) skip a label group with fewer than sigma
    candidates and remember, in a set local to this call, every class found
    infrequent; canonical keys are memoized per labelled shape, also only
    for this call (see _isomorphism_classes). Output holds one pattern per
    canonical key, ordered by (size, canonical key).
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
            gi = min(occs)
            rep = induced_subgraph(hosts[gi].graph, next(iter(occs[gi])))
            explored[canonical_form(rep)] = GroumPattern(rep, occs, freq, 1, True)
            frequent.add(label)
    keys: dict[tuple[int, frozenset[int]], tuple] = {}
    shapes: dict[tuple, tuple] = {}
    rejected: set[tuple] = set()
    for pattern in list(explored.values()):
        _explore(pattern, hosts, frequent, sigma, explored, rejected, keys, shapes)
    return [p for _, p in sorted(explored.items(), key=lambda kv: (kv[1].size, kv[0]))]


def _explore(pattern: GroumPattern, hosts: Sequence[_Host], frequent: set[str],
             sigma: int, explored: dict[tuple, GroumPattern], rejected: set[tuple],
             keys: dict[tuple[int, frozenset[int]], tuple],
             shapes: dict[tuple, tuple]) -> None:
    """Grow pattern depth first, labels in sorted order, adding every new
    frequent class to explored and every infrequent one to rejected, under
    its canonical key. keys and shapes are the memos of
    _isomorphism_classes for this call.

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
        neighbors, labels = hosts[gi].neighbors, hosts[gi].graph.labels
        for occ in occs:
            adjacent: set[int] = set()
            for v in occ:
                adjacent |= neighbors[v]
            for y in adjacent - occ:
                label = labels[y]
                if label in frequent:
                    extensions.setdefault(label, {}).setdefault(gi, set()).add(occ | {y})
    for label in sorted(extensions):
        group = extensions[label]
        if sum(len(s) for s in group.values()) < sigma:
            continue
        for key, occurrences in _isomorphism_classes(hosts, group, keys, shapes):
            if key in explored or key in rejected:
                continue
            freq, exact = frequency(occurrences)
            if freq < sigma:
                rejected.add(key)
                continue
            gi = next(iter(occurrences))
            rep = induced_subgraph(hosts[gi].graph, occurrences[gi][0])
            cls = GroumPattern(rep, occurrences, freq, len(rep.labels), exact)
            explored[key] = cls
            _explore(cls, hosts, frequent, sigma, explored, rejected, keys, shapes)


def _isomorphism_classes(hosts: Sequence[_Host],
                         candidates: dict[int, set[frozenset[int]]],
                         keys: dict[tuple[int, frozenset[int]], tuple],
                         shapes: dict[tuple, tuple],
                         ) -> list[tuple[tuple, dict[int, list[frozenset[int]]]]]:
    """Partition candidate subgraphs into label-isomorphism classes: each
    canonical key with its occurrences, in first-seen order over sorted
    graph indexes and sorted node sets. The first occurrence of a class is
    its representative.

    keys maps (graph index, node set) to its canonical key; on a miss the
    key is looked up in shapes under the candidate's labelled shape, its
    labels in ascending node-id order and its edges as (position, position)
    pairs, and computed by _canonical_key only when the shape is new. Both
    memos are exact: two candidates with equal shapes are mapped onto each
    other by the position bijection, which keeps labels and edges, and the
    canonical key depends only on the labelled graph up to isomorphism, so
    the key of the shape is the key of every occurrence that has it."""
    classes: dict[tuple, dict[int, list[frozenset[int]]]] = {}
    for gi in sorted(candidates):
        labels, successors = hosts[gi].graph.labels, hosts[gi].successors
        for nodes, occ in sorted([(sorted(occ), occ) for occ in candidates[gi]]):
            key = keys.get((gi, occ))
            if key is None:
                position = {v: i for i, v in enumerate(nodes)}
                shape = (tuple(map(labels.__getitem__, nodes)),
                         tuple((i, position[b]) for i, a in enumerate(nodes)
                               for b in successors[a] if b in position))
                key = shapes.get(shape)
                if key is None:
                    key = shapes[shape] = _canonical_key(*shape)
                keys[gi, occ] = key
            classes.setdefault(key, {}).setdefault(gi, []).append(occ)
    return list(classes.items())


# --- reporting -----------------------------------------------------------------

def dump_groum(g: Groum) -> str:
    """Line-oriented text form: node/edge lines."""
    lines = [f"node {i} {label}" for i, label in enumerate(g.labels)]
    lines += [f"edge {a} {b}" for a, b in sorted(g.edges)]
    return "\n".join(lines)
