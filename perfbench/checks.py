"""Independent checks of the program's outputs.

Each check compares what esdp wrote or printed with a computation made here
from the generator's record, not from esdp's own results: a store reader on
xml.etree, brute-force support recounts, a small capped sequence miner, the
documented three-tier search, and the documented groum construction with a
brute-force independent-occurrence count. Every check returns a list of
problems; an empty list means the output is correct.

Two places call into esdp, both named in the checks they serve: the
extraction check runs esdp's extractor on the corpus to compare it with the
record, and the skeleton check re-extracts a rendered skeleton.
"""

from __future__ import annotations

import itertools
import random
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction

Element = tuple[str, str]


# --- the store, read apart from esdp ------------------------------------------------

def two_dp(value: Fraction) -> str:
    """Exact rational rounded half-up to two decimals (values are >= 0)."""
    hundredths = (value.numerator * 200 + value.denominator) // (2 * value.denominator)
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def read_store(data: bytes) -> tuple[dict, list[dict]]:
    """(header attributes, patterns in file order). A pattern is a dict with
    the elements and the raw num/den of support and confidence."""
    root = ET.fromstring(data)
    patterns = []
    for el in root.find("patterns"):
        support, confidence, ranking, sequence = list(el)
        elements = tuple((s.get("kind"), s.text) for s in sequence)
        patterns.append({
            "elements": elements,
            "num": int(support.get("num")), "den": int(support.get("den")),
            "cnum": int(confidence.get("num")), "cden": int(confidence.get("den")),
            "texts": (support.text, confidence.text, ranking.text),
        })
    return dict(root.attrib), patterns


def ranking(p: dict) -> Fraction:
    return len(p["elements"]) * Fraction(p["num"], p["den"])


def order_key(p: dict):
    """Documented store order: ranking desc, support count desc, names, kinds."""
    return (-ranking(p), -p["num"], tuple(n for _, n in p["elements"]),
            tuple(k for k, _ in p["elements"]))


def check_store_form(patterns: list[dict]) -> list[str]:
    """Display values agree with the exact ratios, and the order holds."""
    problems = []
    for i, p in enumerate(patterns):
        want = (two_dp(Fraction(p["num"], p["den"])), two_dp(Fraction(p["cnum"], p["cden"])),
                two_dp(ranking(p)))
        if p["texts"] != want:
            problems.append(f"pattern {i + 1}: displays {p['texts']}, exact values give {want}")
    for i in range(1, len(patterns)):
        if not order_key(patterns[i - 1]) < order_key(patterns[i]):
            problems.append(f"patterns {i} and {i + 1} are out of ranking order")
    return problems


# --- sequences from the record -------------------------------------------------------

def record_sequences(methods: list[dict]) -> dict[str, tuple[Element, ...]]:
    """sid -> the item sequence the method must abstract to (MD head first)."""
    return {m["sid"]: (("MD", m["md"]),) + tuple((k, n) for _, k, n in m["items"])
            for m in methods}


def contains(seq: tuple, pattern: tuple) -> bool:
    it = iter(seq)
    return all(any(x == want for x in it) for want in pattern)


def support_count(seqs: list[tuple], pattern: tuple) -> int:
    return sum(1 for s in seqs if contains(s, pattern))


def short_patterns(seqs: list[tuple], min_support: int) -> dict[tuple, int]:
    """Every 1- and 2-sequence with support >= min_support, by brute force."""
    counts: Counter = Counter()
    for s in seqs:
        seen = set()
        for i, a in enumerate(s):
            seen.add((a,))
            for b in s[i + 1:]:
                seen.add((a, b))
        counts.update(seen)
    return {p: c for p, c in counts.items() if c >= min_support}


class _Exceeded(Exception):
    pass


def mine_capped(seqs: list[tuple], min_support: int, cap: int) -> dict[tuple, int] | None:
    """All sequences with support >= min_support, or None when more than
    ``cap`` exist. Grows patterns over projected suffixes."""
    found: dict[tuple, int] = {}

    def grow(prefix: tuple, suffixes: list[tuple]) -> None:
        counts: Counter = Counter()
        for s in suffixes:
            counts.update(set(s))
        for item in sorted(c for c in counts if counts[c] >= min_support):
            pattern = prefix + (item,)
            found[pattern] = counts[item]
            if len(found) > cap:
                raise _Exceeded
            grow(pattern, [s[s.index(item) + 1:] for s in suffixes if item in s])

    try:
        grow((), seqs)
    except _Exceeded:
        return None
    return found


def adaptive_threshold(seqs: list[tuple], cap: int) -> tuple[int, dict[tuple, int]]:
    """Smallest min-support whose full result holds at most ``cap``
    patterns, found by bisection (the count never rises with the threshold)."""
    lo, hi = 1, len(seqs)
    best = mine_capped(seqs, hi, cap)
    if best is None:
        raise ValueError("no threshold fits the cap")
    while lo < hi:
        mid = (lo + hi) // 2
        result = mine_capped(seqs, mid, cap)
        if result is None:
            lo = mid + 1
        else:
            hi, best = mid, result
    return hi, best


def expected_pattern(seqs: list[tuple], pattern: tuple) -> dict:
    count = support_count(seqs, pattern)
    prefix = support_count(seqs, pattern[:-1]) if len(pattern) > 1 else count
    return {"elements": pattern, "num": count, "den": len(seqs), "cnum": count, "cden": prefix}


# --- mine-corpus ----------------------------------------------------------------------

def check_extraction(methods: list[dict], corpus: str) -> list[str]:
    """esdp's extracted method sequences equal the generator's record."""
    from esdp.extractor import extract_corpus
    from esdp.transactions import build_sequence_db

    items, _ = extract_corpus([corpus])
    got = {r.sid: r.items for r in build_sequence_db(items).records}
    want = record_sequences(methods)
    problems = [f"method {sid}: extracted {got.get(sid)}, record says {seq}"
                for sid, seq in want.items() if got.get(sid) != seq]
    problems += [f"method {sid} extracted but not in the record" for sid in set(got) - set(want)]
    return problems[:10]


def check_mined_store(methods: list[dict], data: bytes, min_support: int, seed: int,
                      sample: int = 150) -> list[str]:
    seqs = list(record_sequences(methods).values())
    header, patterns = read_store(data)
    problems = check_store_form(patterns)
    if header.get("min-support") != str(min_support):
        problems.append(f"header min-support {header.get('min-support')}, mined at {min_support}")
    by_elements = {p["elements"]: p for p in patterns}
    if len(by_elements) != len(patterns):
        problems.append("duplicate element lists in the store")
    short = short_patterns(seqs, min_support)
    stored_short = {e: p["num"] for e, p in by_elements.items() if len(e) <= 2}
    if stored_short != short:
        missing = sorted(set(short) - set(stored_short))[:3]
        wrong = sorted(e for e in short if e in stored_short and stored_short[e] != short[e])[:3]
        extra = sorted(set(stored_short) - set(short))[:3]
        problems.append(f"1- and 2-sequences differ from a brute-force count: missing {missing}, "
                        f"wrong support {wrong}, not frequent {extra}")
    rng = random.Random(seed)
    for p in rng.sample(patterns, min(sample, len(patterns))):
        want = expected_pattern(seqs, p["elements"])
        got = {key: p[key] for key in want}
        if got != want:
            problems.append(f"pattern {p['elements']}: stored {got}, recount gives {want}")
    return problems


# --- update-adaptive ------------------------------------------------------------------

def check_updated_store(base: bytes, fresh_methods: list[dict], data: bytes,
                        cap: int) -> list[str]:
    seqs = list(record_sequences(fresh_methods).values())
    _, base_patterns = read_store(base)
    _, patterns = read_store(data)
    problems = check_store_form(patterns)
    threshold, fresh = adaptive_threshold(seqs, cap)
    key = ("num", "den", "cnum", "cden")
    want = {p["elements"]: tuple(p[k] for k in key) for p in base_patterns}
    for pattern, count in fresh.items():
        prefix = fresh[pattern[:-1]] if len(pattern) > 1 else count
        want[pattern] = (count, len(seqs), count, prefix)
    got = {p["elements"]: tuple(p[k] for k in key) for p in patterns}
    if got != want:
        differ = sorted(e for e in set(got) | set(want) if got.get(e) != want.get(e))
        problems.append(f"merged store differs from the base overridden by the {len(fresh)} "
                        f"patterns mined at min-support {threshold}: {len(differ)} element "
                        f"lists differ, first {differ[:2]}")
    return problems


# --- query-cold -----------------------------------------------------------------------

def three_tier(patterns: list[dict], item: Element, top: int) -> list[tuple[dict, int]]:
    """Documented search: patterns led by the item, then containing it, then
    with an element whose name (argument list stripped) is a substring of the
    item's or the other way round; store order within each tier."""
    base = item[1].split("(", 1)[0]
    chosen: list[tuple[dict, int]] = []
    seen: set = set()
    tiers = [
        lambda e: 0 if e[0] == item else None,
        lambda e: e.index(item) if item in e else None,
        lambda e: next((i for i, (_, n) in enumerate(e)
                        if base in n.split("(", 1)[0] or n.split("(", 1)[0] in base), None),
    ]
    for tier in tiers:
        if len(chosen) >= top:
            break
        for p in patterns:
            offset = tier(p["elements"])
            if offset is not None and p["elements"] not in seen:
                seen.add(p["elements"])
                chosen.append((p, offset))
    return chosen[:top]


def _skeleton_items(skeleton: str, elements: tuple, offset: int, variables: dict) -> list:
    """Re-extract a rendered skeleton with esdp's extractor, the way the
    program documents it (``esdp.query.extract_skeleton_items``)."""
    from types import SimpleNamespace

    from esdp.query import extract_skeleton_items

    rec = SimpleNamespace(pattern=SimpleNamespace(elements=elements), match_offset=offset)
    q = SimpleNamespace(context=SimpleNamespace(variables=dict(variables)))
    return extract_skeleton_items(skeleton, rec, q)


def check_query_output(patterns: list[dict], query: dict, text: str) -> list[str]:
    item = tuple(query["item"])
    lines = text.rstrip("\n").split("\n")
    name = query["statement"]
    if lines[0] != f"query item: {item[0]} {item[1]}":
        return [f"{name}: first line {lines[0]!r}, expected the item {item}"]
    recs = three_tier(patterns, item, query["top"])
    if not recs:
        return [] if lines[1:] == ["no recommendation"] else [f"{name}: expected no recommendation"]
    rows = lines[3:3 + len(recs)]
    problems = []
    if len(lines) < 4 + len(recs) or lines[3 + len(recs)] != "--- skeleton ---":
        return [f"{name}: expected {len(recs)} rows and a skeleton, got {lines[1:]}"]
    for rank, (row, (p, _)) in enumerate(zip(rows, recs), start=1):
        cells = row.split()
        names = [n for _, n in p["elements"]]
        head = names[:3] + (["..."] if len(names) > 3 else [])
        exact = (Fraction(p["num"], p["den"]), Fraction(p["cnum"], p["cden"]), ranking(p))
        ok = cells[:2] == [str(rank), str(len(names))] and cells[5:] == head
        # display rounding is not judged here: only that each printed value
        # is the exact one to two decimals either way
        ok = ok and all(abs(float(c) - float(x)) <= 0.005 + 1e-9 for c, x in zip(cells[2:5], exact))
        if not ok:
            problems.append(f"{name}: row {rank} {row!r} is not pattern {p['elements']}")
    skeleton = "\n".join(lines[4 + len(recs):])
    if skeleton == "(nothing to add)":
        skeleton = ""
    p, offset = recs[0]
    got = _skeleton_items(skeleton, p["elements"], offset, query["vars"])
    if list(got) != list(p["elements"][offset + 1:]):
        problems.append(f"{name}: skeleton re-extracts to {got}, "
                        f"pattern continues {p['elements'][offset + 1:]}")
    return problems


def query_tier(patterns: list[dict], query: dict) -> int:
    """Deepest search tier the query's list reaches (0: no recommendation)."""
    item = tuple(query["item"])
    recs = three_tier(patterns, item, query["top"])
    if not recs:
        return 0
    last = recs[-1]
    if last[0]["elements"][0] == item:
        return 1
    return 2 if item in last[0]["elements"] else 3


# --- groum-mine -----------------------------------------------------------------------

_ACTIONS = {"CI", "MI", "FA", "CTI", "SCI"}


def _simple(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _lower_first(text: str) -> str:
    return text[:1].lower() + text[1:]


def expected_groums(methods: list[dict]) -> dict[str, tuple[tuple[str, ...], frozenset]]:
    """origin -> (node labels, edges) by the documented rule: action items and
    if/loop heads in line order (heads first on their line); an edge joins
    each node to the next and each use of a receiver to its previous use."""
    groums = {}
    for m in methods:
        entries = []
        for line, kind, name in m["items"]:
            if kind not in _ACTIONS:
                continue
            head = name.split("(", 1)[0]
            if kind == "CI":
                label, tag = f"{_simple(head)}.<init>", _lower_first(_simple(head))
            else:
                recv, member = head.rsplit(".", 1)
                label = f"{_simple(recv)[:1].upper()}{_simple(recv)[1:]}.{member}"
                tag = None if recv == "unknown" else _lower_first(_simple(recv))
            entries.append(((line, 1), label, tag))
        for line, kind in m["controls"]:
            entries.append(((line, 0), kind, None))
        entries.sort(key=lambda e: e[0])
        if not entries:
            continue
        edges = {(i, i + 1) for i in range(len(entries) - 1)}
        last: dict[str, int] = {}
        for i, (_, _, tag) in enumerate(entries):
            if tag is not None:
                if tag in last:
                    edges.add((last[tag], i))
                last[tag] = i
        groums[m["sid"]] = (tuple(label for _, label, _ in entries), frozenset(edges))
    return groums


def parse_groum_report(text: str) -> tuple[dict, list[dict]]:
    """(origin -> (labels, edges), patterns as dicts of size, f, exact, graph)."""
    graphs: dict = {}
    patterns: list[dict] = []
    current = None

    def finish():
        if current is None:
            return
        labels = tuple(label for _, label in sorted(current["nodes"]))
        graph = (labels, frozenset(current["edges"]))
        if "origin" in current:
            graphs[current["origin"]] = graph
        else:
            current["graph"] = graph
            patterns.append(current)

    for line in text.split("\n"):
        if line.startswith("# "):
            finish()
            current = {"origin": line[2:], "nodes": [], "edges": set()}
        elif line.startswith("pattern size="):
            finish()
            fields = line.split()
            current = {"size": int(fields[1][5:]), "f": int(fields[2][2:]),
                       "exact": "(lower bound)" not in line, "nodes": [], "edges": set()}
        elif line.startswith("node "):
            _, nid, label = line.split(" ", 2)
            current["nodes"].append((int(nid), label))
        elif line.startswith("edge "):
            _, a, b = line.split()
            current["edges"].add((int(a), int(b)))
        elif line.startswith("patterns (sigma="):
            finish()
            current = None
    finish()
    return graphs, patterns


def _max_disjoint(occurrences: list[frozenset]) -> int:
    """Largest number of pairwise node-disjoint occurrences, exhaustively."""
    best = 0

    def search(i: int, used: frozenset, taken: int) -> None:
        nonlocal best
        if taken + (len(occurrences) - i) <= best:
            return
        if i == len(occurrences):
            best = taken
            return
        if not occurrences[i] & used:
            search(i + 1, used | occurrences[i], taken + 1)
        search(i + 1, used, taken)

    search(0, frozenset(), 0)
    return best


def _induced_matches(graph, chosen: dict[str, tuple[int, ...]], pattern) -> bool:
    """Some label-preserving bijection from the pattern's nodes to the chosen
    nodes maps the pattern's edges exactly onto the edges among them."""
    _, edges = graph
    plabels, pedges = pattern
    nodes = {n for part in chosen.values() for n in part}
    among = {(a, b) for a, b in edges if a in nodes and b in nodes}
    if len(among) != len(pedges):
        return False
    groups = {label: [i for i, x in enumerate(plabels) if x == label] for label in chosen}
    for perms in itertools.product(*(itertools.permutations(chosen[label]) for label in groups)):
        mapping = {}
        for label, perm in zip(groups, perms):
            mapping.update(zip(groups[label], perm))
        if all((mapping[a], mapping[b]) in among for a, b in pedges):
            return True
    return False


def occurrence_frequency(graphs: list, pattern) -> int:
    """Sum over graphs of the most disjoint induced occurrences of the pattern."""
    plabels, _ = pattern
    need = Counter(plabels)
    total = 0
    for graph in graphs:
        labels, _ = graph
        by_label = {label: [i for i, x in enumerate(labels) if x == label] for label in need}
        if any(len(by_label[label]) < c for label, c in need.items()):
            continue
        occurrences = []
        for parts in itertools.product(*(itertools.combinations(by_label[label], c)
                                         for label, c in need.items())):
            chosen = dict(zip(need, parts))
            if _induced_matches(graph, chosen, pattern):
                occurrences.append(frozenset(n for part in parts for n in part))
        total += _max_disjoint(occurrences)
    return total


def check_groum_output(methods: list[dict], text: str, sigma: int, seed: int,
                       sample: int = 12) -> list[str]:
    graphs, patterns = parse_groum_report(text)
    want = expected_groums(methods)
    problems = []
    if graphs != want:
        differ = sorted(o for o in set(graphs) | set(want) if graphs.get(o) != want.get(o))
        problems.append(f"{len(differ)} usage graphs differ from the record, first {differ[:2]}")
    dataset = list(want.values())
    label_counts = Counter(label for labels, _ in dataset for label in labels)
    singles = {label: c for label, c in label_counts.items() if c >= sigma}
    got_singles = {p["graph"][0][0]: p["f"] for p in patterns if p["size"] == 1}
    if got_singles != singles:
        problems.append(f"size-1 patterns differ from the label counts: "
                        f"{sorted(set(singles.items()) ^ set(got_singles.items()))[:4]}")
    pair_occurrences: dict = {}
    for gi, (labels, edges) in enumerate(dataset):
        for a, b in edges:
            pair_occurrences.setdefault((labels[a], labels[b]), {}).setdefault(gi, []).append(
                frozenset((a, b)))
    pairs = {}
    for pair, per_graph in pair_occurrences.items():
        f = sum(_max_disjoint(occs) for occs in per_graph.values())
        if f >= sigma:
            pairs[pair] = f
    got_pairs = {}
    for p in patterns:
        if p["size"] == 2:
            (a, b), = p["graph"][1]
            got_pairs[(p["graph"][0][a], p["graph"][0][b])] = p["f"]
    if got_pairs != pairs:
        problems.append(f"size-2 patterns differ from a matching count: "
                        f"{sorted(set(pairs.items()) ^ set(got_pairs.items()))[:4]}")
    problems += [f"pattern of size {p['size']} flagged as a lower bound"
                 for p in patterns if p["size"] <= 2 and not p["exact"]]
    larger = [p for p in patterns if p["size"] >= 3]
    for p in random.Random(seed).sample(larger, min(sample, len(larger))):
        f = occurrence_frequency(dataset, p["graph"])
        if (p["exact"] and f != p["f"]) or (not p["exact"] and p["f"] > f):
            problems.append(f"pattern {p['graph'][0]} reports f={p['f']}, recount gives {f}")
    return problems
