"""The mined pattern repository: a client-side XML file, canonically
serialized so identical repositories produce identical bytes.

Numbers display at two decimals (half-up) while exact rational num/den
attributes make the round trip lossless. The reader accepts only the
canonical bytes ``serialize`` writes: UTF-8, LF line ends, the fixed
indentation and attribute order, numbers without leading zeros, and only
the escapes ``serialize`` uses. It reads line by line; any other byte is a
SchemaViolation naming the line and the element path. Within one call the
reader checks each distinct head line and item line once, and the checks
that span a head's lines once per distinct head; the writer renders each
distinct head and item line once: mined stores repeat them heavily.

``merge_update`` updates a store bytes in, bytes out. It checks the store
with the same reader, and that its patterns stand in ranking order, then
copies the stored pattern blocks as they are and renders only the fresh
patterns, each at the place bisection on the exact sort key finds for it.
Its output is what ``serialize`` writes for the merged repository.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .items import ItemKind
from .mining import Element, RankedPatterns, SequentialPattern, ranking_key, sort_patterns


class SchemaViolation(ValueError):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@dataclass(frozen=True)
class MinedRepository:
    patterns: tuple[SequentialPattern, ...]
    corpus_label: str = ""
    created_at: str = "1970-01-01T00:00:00Z"
    min_support_used: int = 1


def make_repository(patterns: Iterable[SequentialPattern], corpus_label: str = "",
                    created_at: str = "1970-01-01T00:00:00Z",
                    min_support_used: int = 1) -> MinedRepository:
    """Sort by ranking (desc, with tie-breaks) and drop duplicate element-lists;
    mined RankedPatterns are kept as they are, being both already."""
    if not isinstance(patterns, RankedPatterns):
        seen: set[tuple] = set()
        unique: list[SequentialPattern] = []
        for p in sort_patterns(patterns):
            if p.elements not in seen:
                seen.add(p.elements)
                unique.append(p)
        patterns = unique
    return MinedRepository(tuple(patterns), corpus_label, created_at, min_support_used)


# --- rendering -----------------------------------------------------------------

def two_dp(num: int, den: int) -> str:
    """num/den (>= 0) rounded half-up to two decimals, exactly: 1/8 -> "0.13"."""
    q = (200 * num + den) // (2 * den)
    return f"{q // 100}.{q % 100:02d}"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _esc_attr(text: str) -> str:
    return _esc(text).replace('"', "&quot;")


def _unesc(text: str) -> str:
    return (text.replace("&lt;", "<").replace("&gt;", ">").replace("&quot;", '"')
            .replace("&amp;", "&"))


def _check_writable(metadata: Iterable[str], patterns: Iterable[SequentialPattern]) -> None:
    """ValueError for text the reader would refuse: a control character in
    metadata, or an item name that is empty, padded with whitespace or holds
    a control character other than tab."""
    for value in metadata:
        if re.fullmatch(_ATTR, _esc_attr(value)) is None:
            raise ValueError(f"repository metadata {value!r} holds a control character")
    for name in {name for p in patterns for _, name in p.elements}:
        if re.fullmatch(_NAME, _esc(name)) is None or name.strip() != name:
            raise ValueError(f"item name {name!r} is blank, padded or holds a control character")


def _header(corpus_label: str, created_at: str, min_support_used: int) -> str:
    return (f'<esdp-repository version="1" corpus="{_esc_attr(corpus_label)}"'
            f' created="{_esc_attr(created_at)}" min-support="{min_support_used}">')


def _render(patterns: Iterable[SequentialPattern], out: list[str]) -> list[str]:
    """Append the pattern blocks to out: per pattern its head, its item lines
    and its closing lines, each entry without the final line feed."""
    # Heads and item lines repeat across patterns (den is the database
    # size and supports are small), so each distinct one is rendered once.
    heads: dict[tuple, str] = {}
    items: dict[tuple, str] = {}
    for p in patterns:
        key = (p.kind, p.k, p.support_count, p.db_size, p.prefix_count)
        head = heads.get(key)
        if head is None:
            kind, k, num, den, cden = key
            head = heads[key] = (
                f'    <pattern kind="{kind}" k="{k}">\n'
                f'      <support num="{num}" den="{den}">{two_dp(num, den)}</support>\n'
                f'      <confidence num="{num}" den="{cden}">'
                f'{two_dp(num, cden)}</confidence>\n'
                f"      <ranking>{two_dp(k * num, den)}</ranking>\n"
                "      <sequence>")
        out.append(head)
        for i, (kind, name) in enumerate(p.elements, start=1):
            line = items.get((i, kind, name))
            if line is None:
                line = f'        <s i="{i}" kind="{kind}">{_esc(name)}</s>'
                items[i, kind, name] = line
            out.append(line)
        out.append("      </sequence>\n    </pattern>")
    return out


def serialize(repo: MinedRepository) -> bytes:
    """Canonical document bytes: UTF-8, LF, 2-space indent, fixed attribute order.

    ValueError when the corpus label or the creation stamp holds a control
    character, or an item name is empty, padded with whitespace or holds a
    control character other than tab: the reader refuses each of these.
    """
    _check_writable((repo.corpus_label, repo.created_at), repo.patterns)
    out = [_header(repo.corpus_label, repo.created_at, repo.min_support_used)]
    if not repo.patterns:
        out.append("  <patterns/>")
    else:
        out.append("  <patterns>")
        _render(repo.patterns, out)
        out.append("  </patterns>")
    out.append("</esdp-repository>")
    out.append("")
    return "\n".join(out).encode("utf-8")


# --- parsing -------------------------------------------------------------------
# One regular expression per line position, each matching only what serialize
# writes there. Numbers are >= 1 with no leading zero. Attribute values use the
# four escapes of _esc_attr and item names the three of _esc; control
# characters, which XML forbids or rewrites, are refused.

_NUM = "([1-9][0-9]*)"
_KIND = "(" + "|".join(k.value for k in ItemKind) + ")"
_ATTR = '((?:[^&<>"\\x00-\\x1f]|&(?:amp|lt|gt|quot);)*)'
# Item names: one or more characters or escapes, written as run (escape run)*
# behind a lookahead that refuses the empty name, so the engine scans a run
# of plain characters without trying the escape branch at each one.
_NAME_RUN = "[^&<>\\x00-\\x08\\x0a-\\x1f]*"
_NAME = f"((?=[^<]){_NAME_RUN}(?:&(?:amp|lt|gt);{_NAME_RUN})*)"

_HEADER = re.compile(f'<esdp-repository version="1" corpus="{_ATTR}" created="{_ATTR}"'
                     f' min-support="{_NUM}">')
_PATTERN = re.compile(f'    <pattern kind="{_KIND}" k="{_NUM}">')
_SUPPORT = re.compile(f'      <support num="{_NUM}" den="{_NUM}">([^<]*)</support>')
_CONFIDENCE = re.compile(f'      <confidence num="{_NUM}" den="{_NUM}">([^<]*)</confidence>')
_ITEM = re.compile(f'        <s i="{_NUM}" kind="{_KIND}">{_NAME}</s>')


def _violation(line_no: int, message: str, *steps: str) -> SchemaViolation:
    return SchemaViolation(f"line {line_no}: {message}",
                           "/".join(("/esdp-repository",) + steps))


def _pattern_violation(line_no: int, message: str, idx: int, *steps: str) -> SchemaViolation:
    return _violation(line_no, message, "patterns", f"pattern[{idx}]", *steps)


def _expected(what: str, line: str) -> str:
    return f"expected {what}, found {line[:120]!r}"


def _read_head(lines: list[str], n: int, idx: int,
               accepted: tuple[dict, dict, dict]) -> tuple[str, int, int, int, int]:
    """Check a pattern's four opening lines, lines[n:n + 4]; (kind, k, num, den, cden).

    The checks on one line's text alone run once per distinct line: accepted
    maps each <pattern>, <support> and <confidence> line read before to what
    it holds. The checks that span lines run on every call, in their order
    among the others, and each line is read only when the checks reach it.
    """
    pattern_lines, support_lines, confidence_lines = accepted
    line = lines[n]
    got = pattern_lines.get(line)
    if got is None:
        m = _PATTERN.fullmatch(line)
        if m is None:
            raise _pattern_violation(n + 1, _expected('<pattern kind=".." k="..">', line), idx)
        got = pattern_lines[line] = m[1], int(m[2])
    kind, k = got

    line = lines[n + 1]
    got = support_lines.get(line)
    if got is None:
        m = _SUPPORT.fullmatch(line)
        if m is None:
            raise _pattern_violation(
                n + 2, _expected('<support num=".." den="..">', line), idx, "support")
        num, den = int(m[1]), int(m[2])
        if num > den:
            raise _pattern_violation(n + 2, "num must be within 1..den", idx, "support")
        if m[3] != two_dp(num, den):
            raise _pattern_violation(
                n + 2, f"display value {m[3]!r} inconsistent with {num}/{den}", idx, "support")
        got = support_lines[line] = num, den
    num, den = got

    line = lines[n + 2]
    got = confidence_lines.get(line)
    if got is None:
        m = _CONFIDENCE.fullmatch(line)
        if m is None:
            raise _pattern_violation(
                n + 3, _expected('<confidence num=".." den="..">', line), idx, "confidence")
        cnum, cden = int(m[1]), int(m[2])
        # a display value at odds with the fraction is refused only after
        # the checks against the support and k, which come first
        got = confidence_lines[line] = cnum, cden, (None if m[3] == two_dp(cnum, cden)
                                                    else m[3])
    cnum, cden, wrong_display = got
    if cnum != num:
        raise _pattern_violation(
            n + 3, "confidence numerator must equal the support count", idx, "confidence")
    if cnum > cden or (k == 1 and cden != cnum):
        raise _pattern_violation(
            n + 3, f"confidence {cnum}/{cden} out of range for k={k}", idx, "confidence")
    if wrong_display is not None:
        raise _pattern_violation(
            n + 3, f"display value {wrong_display!r} inconsistent with {cnum}/{cden}", idx,
            "confidence")

    shown = two_dp(k * num, den)
    if lines[n + 3] != f"      <ranking>{shown}</ranking>":
        raise _pattern_violation(
            n + 4, _expected(f"<ranking>{shown}</ranking> (k * support)", lines[n + 3]), idx,
            "ranking")
    return kind, k, num, den, cden


def _read_item(line: str, n: int, idx: int, i: int) -> tuple[str, str]:
    """Check line, lines[n] of the document, the i-th <s> of a pattern; (kind, name).

    Every check here depends on the line's text and i alone.
    """
    m = _ITEM.fullmatch(line)
    if m is None or int(m[1]) != i:
        raise _pattern_violation(
            n + 1, _expected(f'<s i="{i}" kind="..">name</s>', line), idx, "sequence", f"s[{i}]")
    name = m[3]
    if "&" in name:
        name = _unesc(name)
    if name.strip() != name:
        raise _pattern_violation(
            n + 1, f"item name {name!r} is blank or padded", idx, "sequence", f"s[{i}]")
    return m[2], name


def parse(data: bytes) -> MinedRepository:
    """Read canonical repository bytes; SchemaViolation on any other byte.

    Whatever it accepts, ``serialize`` writes back byte for byte.
    """
    corpus, created, min_support, patterns, _ = _read(data)
    return MinedRepository(
        patterns=tuple(patterns),
        corpus_label=corpus,
        created_at=created,
        min_support_used=min_support,
    )


def _read(data: bytes) -> tuple[str, str, int, list[SequentialPattern], dict[tuple, int]]:
    """The reader of parse: (corpus label, creation stamp, min-support,
    patterns, the index of each pattern's element list)."""
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
    seen: dict[tuple, int] = {}
    if lines[1] == "  <patterns/>":
        n = 2
    elif lines[1] == "  <patterns>":
        n = 2
        # Text that passed _read_head or _read_item once passes again, so
        # each distinct head and (item line, ordinal) is checked once per
        # call, and within a new head each distinct line; text not seen
        # before gets every check, in the same order. The head key is a
        # slice, so a document cut short yields a short key that misses and
        # _read_head reports the cut.
        heads: dict[tuple, tuple[str, int, int, int, int]] = {}
        head_lines: tuple[dict, dict, dict] = ({}, {}, {})
        items: dict[tuple, tuple[str, str]] = {}
        while True:
            idx = len(patterns) + 1
            text = tuple(lines[n:n + 4])
            head = heads.get(text)
            if head is None:
                head = heads[text] = _read_head(lines, n, idx, head_lines)
            kind, k, num, den, cden = head
            if lines[n + 4] != "      <sequence>":
                raise _pattern_violation(
                    n + 5, _expected("<sequence>", lines[n + 4]), idx, "sequence")

            n += 5
            elements = []
            for i in range(1, k + 1):
                line = lines[n]
                element = items.get((line, i))
                if element is None:
                    element = items[line, i] = _read_item(line, n, idx, i)
                elements.append(element)
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
            seen[key] = idx - 1
            patterns.append(SequentialPattern._make((key, num, den, cden)))
            if lines[n] == "  </patterns>":
                n += 1
                break
    else:
        raise _violation(2, _expected("<patterns> or <patterns/>", lines[1]), "patterns")

    if lines[n] != "</esdp-repository>":
        raise _violation(n + 1, _expected("</esdp-repository>", lines[n]))
    if n != len(lines) - 2:
        raise _violation(n + 2, "text after </esdp-repository>")
    return corpus, created, min_support, patterns, seen


# --- incremental update ----------------------------------------------------------

_PATTERNS_END = b"  </patterns>\n</esdp-repository>\n"
# In a store the reader accepted this text opens every pattern block and
# occurs nowhere else: names and attribute values hold no raw "<".
_BLOCK_HEAD = re.compile(b"    <pattern ")


def merge_update(data: bytes, fresh: Iterable[SequentialPattern], created_at: str,
                 min_support_used: int) -> bytes:
    """Fold freshly mined patterns into the store ``data``; the new store.

    Patterns with identical element lists take the fresh scores (of equal
    fresh element lists, the last); new ones are inserted; nothing is
    deleted. The corpus label is kept; the creation stamp and min-support
    are replaced. The bytes are those ``serialize`` writes for the merged
    repository, re-ranked, but only fresh patterns are rendered: the stored
    blocks are already in ranking order, which the lcm of the database sizes
    only scales, so they are copied as they are, each fresh block inserted
    where bisection on the exact sort key puts it.

    SchemaViolation when ``parse`` refuses data, or when its patterns are
    not in ranking order; ValueError when a fresh item name cannot be written.
    """
    corpus, _, _, stored, index = _read(data)
    # where each stored block starts, and where the last one ends
    starts = [m.start() for m in _BLOCK_HEAD.finditer(data)]
    starts.append(len(data) - len(_PATTERNS_END))
    latest = {p.elements: p for p in fresh}
    lcm = math.lcm(*{p.db_size for p in stored}, *{p.db_size for p in latest.values()})
    key = ranking_key(lcm)
    _check_order(stored, data, starts)
    _check_writable((corpus, created_at), latest.values())

    # (stored position, 0, fresh block) inserts the block before that stored
    # block; (position, 1, None) drops the stored block a fresh one replaces.
    cuts = [(index[e], 1, None) for e in latest if e in index]
    at = 0
    for p in sort_patterns(latest.values()):
        at = bisect_left(stored, key(p), at, key=key)
        cuts.append((at, 0, "\n".join(_render([p], [])).encode() + b"\n"))
    cuts.sort(key=lambda cut: cut[:2])  # stable: fresh blocks keep their order

    view = memoryview(data)
    body: list = []
    copied = 0  # stored blocks before this one are written or dropped
    for at, drop, block in cuts:
        body.append(view[starts[copied]:starts[at]])
        if drop:
            copied = at + 1
        else:
            copied = at
            body.append(block)
    body.append(view[starts[copied]:starts[-1]])
    head = _header(corpus, created_at, min_support_used).encode()
    if not stored and not latest:
        return head + b"\n  <patterns/>\n</esdp-repository>\n"
    return b"".join([head, b"\n  <patterns>\n", *body, _PATTERNS_END])


def _check_order(patterns: list[SequentialPattern], data: bytes, starts: list[int]) -> None:
    """SchemaViolation at the first pattern that sorts before the one above
    it in ranking_key order.

    Neighbours are compared in place, rankings by cross-multiplying: a key
    built for every stored pattern would cost more time than the rest of the
    splice, and the tuples would raise update's peak memory.
    """
    if not patterns:
        return
    a, num_a, den_a, _ = patterns[0]
    for i in range(1, len(patterns)):
        b, num_b, den_b, _ = patterns[i]
        rise = len(b) * num_b * den_a - len(a) * num_a * den_b
        if rise > 0 or rise == 0 and (num_b > num_a or num_b == num_a and not _precedes(a, b)):
            raise _pattern_violation(
                data.count(b"\n", 0, starts[i]) + 1,
                f"pattern ranks above pattern[{i}]: stored patterns must be in ranking order",
                i + 1)
        a, num_a, den_a = b, num_b, den_b


def _precedes(a: tuple[Element, ...], b: tuple[Element, ...]) -> bool:
    """Whether element list a sorts before b on names, then kinds."""
    for (_, x), (_, y) in zip(a, b):
        if x != y:
            return x < y
    if len(a) != len(b):
        return len(a) < len(b)
    return [kind for kind, _ in a] < [kind for kind, _ in b]
