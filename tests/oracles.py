"""Independent oracles the implementations are checked against.

Most state a contract by brute force: exhaustive enumerations of
subsequences, node sets, bijections and occurrence subsets, against which
the PrefixSpan kernel and the miners' records (``exhaustive_patterns``) are
checked directly, and the short specs built on them and on the references
below for the update (``merge_update_spec``) and the explorer
(``patt_explorer_spec``). The extractor's contract is stated by
``java_units``, which writes each unit together with the items it must give.
A few references are earlier versions of the code, kept because no brute
force states their contract:

- ``parse_reference``, the store reader: the contract is, for each refused
  document, the line, message and element path of its first fault. It
  accepts exactly one byte string per repository (fixed layout and
  attribute order, numbers without leading zeros, display values checked
  against ``two_dp``, only the escapes ``serialize`` writes), so reading
  back what ``serialize`` wrote pins the writer's bytes too.
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
from collections import Counter
from itertools import combinations, permutations
from typing import Iterable, Sequence

from esdp.groum import (
    EXACT_OCCURRENCE_LIMIT,
    Groum,
    GroumPattern,
    _max_independent,
    canonical_form,
    induced_subgraph,
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
    one. The count is tested first, as it is cheaper and few classes pass it.
    Output is ordered by (size, canonical form).
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
        counts = [independent_occurrence_count_reference(occs) for occs in occurrences.values()]
        frequency = sum(count for count, _ in counts)
        if frequency < sigma or size > 1 and not any(
                canonical_form(induced_subgraph(rep, set(range(size)) - {y})) in reported
                for y in range(size)):
            continue
        reported[key] = GroumPattern(rep, occurrences, frequency, size,
                                     all(exact for _, exact in counts))
    return list(reported.values())


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
