"""Independent oracles: exhaustive enumerations the implementations are
checked against. Deliberately brute-force and structure-free."""

from __future__ import annotations

import re
from itertools import combinations, permutations
from typing import Sequence

from esdp.extractor import KEYWORDS, UnparsableSource
from esdp.groum import (
    Groum,
    GroumPattern,
    _canonical_key,
    _Host,
    canonical_form,
    frequency,
    induced_subgraph,
)
from esdp.mining import InvalidThreshold, SequentialPattern, mine_prefixspan
from esdp.repository import (
    _ATTR,
    _CONFIDENCE,
    _HEADER,
    _ITEM,
    _NAME,
    _PATTERN,
    _RANKING,
    _SUPPORT,
    MinedRepository,
    _esc,
    _esc_attr,
    _expected,
    _pattern_violation,
    _unesc,
    _violation,
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


def contains_brute(record, alpha) -> bool:
    return tuple(alpha) in all_subsequences(record)


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


def prefixspan_reference(records, min_support: int, cap: int = -1):
    """The scanning kernel the next-occurrence index replaced: each
    projection rescans its records for the next occurrence of the item,
    counting extensions with a per-record seen set. Same contract as
    esdp.kernels.prefixspan, including the partial results under cap."""
    results: list[tuple[tuple[int, ...], int]] = []
    exceeded = False

    def grow(prefix: tuple[int, ...], projections: list[tuple[int, int]]) -> None:
        nonlocal exceeded
        if exceeded:
            return
        counts: dict[int, int] = {}
        for rid, pos in projections:
            rec = records[rid]
            seen: set[int] = set()
            for p in range(pos, len(rec)):
                x = rec[p]
                if x not in seen:
                    seen.add(x)
                    counts[x] = counts.get(x, 0) + 1
        for x in sorted(counts):
            if counts[x] < min_support:
                continue
            grown = prefix + (x,)
            results.append((grown, counts[x]))
            if 0 <= cap < len(results):
                exceeded = True
                return
            next_proj: list[tuple[int, int]] = []
            for rid, pos in projections:
                rec = records[rid]
                for p in range(pos, len(rec)):
                    if rec[p] == x:
                        next_proj.append((rid, p + 1))
                        break
            grow(grown, next_proj)
            if exceeded:
                return

    grow((), [(rid, 0) for rid in range(len(records))])
    return results, exceeded


def adaptive_mine_reference(db, max_patterns: int):
    """The linear threshold scan adaptive_mine's bisection replaced:
    (min_support, patterns) at the smallest min_support whose result holds
    at most max_patterns, else the top max_patterns at min_support n."""
    n = len(db.records)
    for m in range(1, n + 1):
        patterns = mine_prefixspan(db, m)
        if len(patterns) <= max_patterns:
            return m, patterns
    return n, mine_prefixspan(db, n)[:max_patterns]


def pattern_sort_key(p):
    """The documented store order on exact rationals: ranking desc, support
    count desc, then lexicographic on names and kinds."""
    return (-p.ranking, -p.support_count, p.names(), tuple(k for k, _ in p.elements))


# --- store item names ------------------------------------------------------------------

# The item-name expression the unrolled repository._NAME replaced: one
# alternation of a plain character or an escape, tried at every character.
NAME_REFERENCE = "((?:[^&<>\\x00-\\x08\\x0a-\\x1f]|&(?:amp|lt|gt);)+)"


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

def weakly_connected(nodes: frozenset[int], edges) -> bool:
    if not nodes:
        return False
    adj = {v: set() for v in nodes}
    for a, b in edges:
        if a in nodes and b in nodes:
            adj[a].add(b)
            adj[b].add(a)
    seen = set()
    stack = [next(iter(nodes))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return seen == set(nodes)


def connected_induced_node_sets(g) -> list[frozenset[int]]:
    ids = [n.id for n in g.nodes]
    out = []
    for k in range(1, len(ids) + 1):
        for combo in combinations(ids, k):
            s = frozenset(combo)
            if weakly_connected(s, g.edges):
                out.append(s)
    return out


def iso_brute(g1, g2) -> bool:
    """Label-isomorphism by trying every bijection."""
    if len(g1.nodes) != len(g2.nodes):
        return False
    ids1 = [n.id for n in g1.nodes]
    labels1 = {n.id: n.label for n in g1.nodes}
    labels2 = {n.id: n.label for n in g2.nodes}
    e1, e2 = set(g1.edges), set(g2.edges)
    if len(e1) != len(e2):
        return False
    for perm in permutations([n.id for n in g2.nodes]):
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


def patt_explorer_reference(dataset: Sequence[Groum], sigma: int) -> list[GroumPattern]:
    """The explorer before its label-group bound and its memo of infrequent
    classes, kept verbatim as the differential reference of
    ``esdp.groum.patt_explorer``.

    All frequent induced-subgraph patterns of the dataset.

    Growth is seeded with the frequent single-label patterns; each pattern's
    full occurrence set is extended by every adjacent node carrying a
    frequent label, candidates are partitioned into isomorphism classes by
    canonical key and classes meeting the threshold recurse. Output holds
    one pattern per canonical key, ordered by (size, canonical key).
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
    for pattern in list(explored.values()):
        _explore_reference(pattern, hosts, frequent, sigma, explored, keys)
    return [p for _, p in sorted(explored.items(), key=lambda kv: (kv[1].size, kv[0]))]


def _explore_reference(pattern: GroumPattern, hosts: Sequence[_Host], frequent: set[str],
                       sigma: int, explored: dict[tuple, GroumPattern],
                       keys: dict[tuple[int, frozenset[int]], tuple]) -> None:
    """Grow pattern depth first, labels in sorted order, adding every new
    frequent class to explored under its canonical key. keys memoizes the
    canonical key of each (graph index, node set) seen in this call."""
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
        for key, occurrences in _isomorphism_classes_reference(hosts, extensions[label], keys):
            if key in explored:
                continue
            freq, exact = frequency(occurrences)
            if freq < sigma:
                continue
            gi = next(iter(occurrences))
            rep = induced_subgraph(hosts[gi].graph, occurrences[gi][0])
            cls = GroumPattern(rep, occurrences, freq, len(rep.nodes), exact)
            explored[key] = cls
            _explore_reference(cls, hosts, frequent, sigma, explored, keys)


def _isomorphism_classes_reference(hosts: Sequence[_Host],
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


# --- repository codec --------------------------------------------------------------

def serialize_reference(repo: MinedRepository) -> bytes:
    """The writer before its per-call line memo, kept verbatim as the
    differential reference of ``esdp.repository.serialize``.

    Canonical document bytes: UTF-8, LF, 2-space indent, fixed attribute order.

    ValueError when the corpus label or the creation stamp holds a control
    character, or an item name is empty, padded with whitespace or holds a
    control character other than tab: the reader refuses each of these.
    """
    for value in (repo.corpus_label, repo.created_at):
        if re.fullmatch(_ATTR, _esc_attr(value)) is None:
            raise ValueError(f"repository metadata {value!r} holds a control character")
    for name in {name for p in repo.patterns for _, name in p.elements}:
        if re.fullmatch(_NAME, _esc(name)) is None or name.strip() != name:
            raise ValueError(f"item name {name!r} is blank, padded or holds a control character")
    out: list[str] = []
    out.append(
        f'<esdp-repository version="1" corpus="{_esc_attr(repo.corpus_label)}"'
        f' created="{_esc_attr(repo.created_at)}"'
        f' min-support="{repo.min_support_used}">'
    )
    if not repo.patterns:
        out.append("  <patterns/>")
    else:
        out.append("  <patterns>")
        for p in repo.patterns:
            num, den, cden = p.support_count, p.db_size, p.prefix_count
            out.append(f'    <pattern kind="{p.kind}" k="{p.k}">')
            out.append(f'      <support num="{num}" den="{den}">{two_dp(num, den)}</support>')
            out.append(f'      <confidence num="{num}" den="{cden}">'
                       f'{two_dp(num, cden)}</confidence>')
            out.append(f"      <ranking>{two_dp(p.k * num, den)}</ranking>")
            out.append("      <sequence>")
            for i, (kind, name) in enumerate(p.elements, start=1):
                out.append(f'        <s i="{i}" kind="{kind}">{_esc(name)}</s>')
            out.append("      </sequence>")
            out.append("    </pattern>")
        out.append("  </patterns>")
    out.append("</esdp-repository>")
    out.append("")
    return "\n".join(out).encode("utf-8")


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
