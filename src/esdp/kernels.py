"""The mining kernel: complete frequent-subsequence mining by prefix
projection (PrefixSpan, Pei et al., TKDE 2004) over integer-encoded
sequence databases. Records are sequences of non-negative int item ids.

Projection is by pseudo-projection over a next-occurrence index. Each
record, stripped of the items too rare to occur in any pattern, becomes a
chain of suffix nodes built right to left: the node of a suffix is a dict
mapping each distinct item in it to the node of the suffix after that
item's first occurrence. A projected database is a list of such nodes, and
projecting it on ``x`` is one lookup per node. The index costs one dict
entry per kept position and distinct kept item at or after it.

Candidate extensions are pruned by co-occurrence (as CMAP does for SPADE,
Fournier-Viger et al., PAKDD 2014): a pattern ending in ``x`` can grow by
``y`` only if ``<x y>`` is frequent and ``y`` also extends the pattern's
prefix, so most leaves are known without counting.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

BACKEND = "pure"  # the one kernel; benchmark reports name it


def _suffix_index(record, frequent) -> dict:
    """The node of the whole record: item -> node after its first occurrence."""
    node: dict = {}
    for x in reversed(record):
        if x in frequent:
            node = {**node, x: node}
    return node


def prefixspan(records, min_support: int, cap: int = -1):
    """Complete frequent-subsequence mining by prefix projection.

    Returns ``(results, exceeded)`` where results is a list of
    ``(pattern_tuple, support_count)`` in depth-first order, extensions in
    ascending item id. When ``cap >= 0`` mining stops as soon as more than
    ``cap`` patterns exist and ``exceeded`` is True; the ``cap + 1``
    results found so far are then only the overflow signal.
    """
    support = Counter(chain.from_iterable(map(set, records)))
    frequent = {x for x, count in support.items() if count >= min_support}
    roots = [_suffix_index(rec, frequent) for rec in records]

    def extensions(proj, candidates):
        """(y, projection on y) for each frequent extension by a candidate y,
        in ascending y."""
        found = []
        for y in sorted(candidates):
            child = [node[y] for node in proj if y in node]
            if len(child) >= min_support:
                found.append((y, child))
        return found

    singles = extensions(roots, frequent)
    # follow[x]: the items y with <x y> frequent. A pattern ending in x grows
    # only by such a y that also extends the pattern's prefix, since both
    # <x y> and prefix + <y> are subsequences of the grown pattern.
    follow = {}
    for x, proj in singles:
        counts = Counter(chain.from_iterable(proj))
        follow[x] = {y for y, count in counts.items() if count >= min_support}
    results: list[tuple[tuple[int, ...], int]] = []
    # (pattern, its projection, the extensions of its prefix); the next
    # pattern in depth-first order on top. The explicit stack keeps pattern
    # length free of the recursion limit.
    stack = [((x,), proj, frequent) for x, proj in reversed(singles)]
    while stack:
        pattern, proj, allowed = stack.pop()
        results.append((pattern, len(proj)))
        if 0 <= cap < len(results):
            return results, True
        children = extensions(proj, allowed & follow[pattern[-1]])
        grown = {y for y, _ in children}
        stack += [(pattern + (y,), child, grown) for y, child in reversed(children)]
    return results, False
