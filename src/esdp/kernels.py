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
prefix, so most leaves are known without counting: a pattern left with no
candidate costs no projection.

Results come in depth-first order with extensions in ascending item id, so
a k-pattern's prefix is the last (k-1)-pattern before it;
``mining._build_patterns`` reads prefix counts by that order.

Under a cap the threshold rises in the same walk, as in the top-k miners
TKS (Fournier-Viger et al., ADMA 2013) and TSP (Tzvetkov, Yan & Han, ICDM
2003): while more than ``cap`` of the patterns counted reach it.
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


def _raised(m: int, above: int, tiers: Counter, supports, cap: int | None, n: int):
    """Count the supports that reach m, then raise m, never past n, while above > cap."""
    if cap is None:
        return m, above
    for support in supports:
        if support >= m:
            tiers[support] += 1
            above += 1
    while above > cap and m < n:
        above -= tiers.pop(m, 0)
        m += 1
    return m, above


def prefixspan(records, min_support: int, cap: int | None = None):
    """Complete frequent-subsequence mining by prefix projection.

    Returns ``(results, m)``: each ``(pattern_tuple, support_count)`` with
    support at least m, in depth-first order, extensions in ascending item
    id, so a k-pattern's prefix is the last (k-1)-pattern before it. That
    holds after the final ``>= m`` filter too, as a prefix's support is at
    least its pattern's. m is min_support, or under a cap the least
    threshold from there up that at most ``cap`` patterns reach
    (``len(records)`` if none does).
    """
    n, m = len(records), min_support
    support = Counter(chain.from_iterable(map(set, records)))
    above, tiers = 0, Counter()  # under a cap: how many counted reach m, and how many at each
    m, above = _raised(m, above, tiers, support.values(), cap, n)
    frequent = {x for x, count in support.items() if count >= m}
    roots = [_suffix_index(rec, frequent) for rec in records]

    def extensions(proj, candidates):
        """(y, projection on y) for each frequent extension by a candidate y,
        in ascending y."""
        found = []
        for y in sorted(candidates):
            child = [node[y] for node in proj if y in node]
            if len(child) >= m:
                found.append((y, child))
        return found

    singles = extensions(roots, frequent)
    pairs = [(x, Counter(chain.from_iterable(proj))) for x, proj in singles]  # <x y> supports
    pair_supports = chain.from_iterable(counts.values() for _, counts in pairs)
    m, above = _raised(m, above, tiers, pair_supports, cap, n)  # not counted again below
    # follow[x]: the items y with <x y> frequent. A pattern ending in x grows
    # only by such a y that also extends the pattern's prefix, since both
    # <x y> and prefix + <y> are subsequences of the grown pattern.
    follow = {}
    for x, counts in pairs:
        follow[x] = {y for y, count in counts.items() if count >= m}
    results: list[tuple[tuple[int, ...], int]] = []
    # (pattern, its projection, the extensions of its prefix); the next
    # pattern in depth-first order on top. The explicit stack keeps pattern
    # length free of the recursion limit.
    stack = [((x,), proj, frequent) for x, proj in reversed(singles)]
    while stack:
        pattern, proj, allowed = stack.pop()
        if len(proj) < m:
            continue  # pushed before m rose
        results.append((pattern, len(proj)))
        candidates = allowed & follow[pattern[-1]]
        if not candidates:
            continue  # a leaf: nothing to count, and no supports to raise m by
        children = extensions(proj, candidates)
        grown = {y for y, _ in children}
        stack += [(pattern + (y,), child, grown) for y, child in reversed(children)]
        if cap is not None and len(pattern) > 1:  # a single's children: pairs, counted
            m, above = _raised(m, above, tiers, (len(c) for _, c in children), cap, n)
    return [r for r in results if r[1] >= m], m
