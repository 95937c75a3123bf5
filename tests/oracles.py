"""Independent oracles: exhaustive enumerations the implementations are
checked against. Deliberately brute-force and structure-free."""

from __future__ import annotations

from itertools import combinations, permutations

from esdp.extractor import KEYWORDS, UnparsableSource
from esdp.mining import mine_prefixspan


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
    from esdp.groum import induced_subgraph

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
