"""The mined pattern repository: a client-side XML file, canonically
serialized so identical repositories produce identical bytes.

Numbers display at two decimals (half-up) while exact rational num/den
attributes make the round trip lossless. The reader accepts only the
canonical bytes ``serialize`` writes: UTF-8, LF line ends, the fixed
indentation and attribute order, numbers without leading zeros, and only
the escapes ``serialize`` uses. It reads a binary stream once, line by
line, bytes as they are. Each line it accepts is decoded or byte-equal to
one it decoded before or to a fixed ASCII line, and the last is
</esdp-repository> with its line feed, so an accepted stream holds no
text fault; only on the way to a refusal does it read the stream again to
report the first byte that is not UTF-8, then a last line without a line
feed, ahead of any other fault, which is a SchemaViolation naming the line
and the element path. Within one call the reader checks each distinct head
line and item line once, decoding only those, and the checks that span a
head's lines once per distinct head; the writer renders each distinct head
and item line once: mined stores repeat them heavily.

``merge_update`` updates a store file to file in one read of the store:
the reader checks each block, and that the patterns stand in ranking order,
and the update writes each block it keeps from the lines the reader
checked, in batches, with the fresh blocks rendered at their cuts. Its
output is what ``serialize`` writes for the merged repository; a refused
store leaves a partial output, which the caller discards. The store is not
held: what stays in memory is the reader's memos of distinct lines and its
index of the stored element lists, about 120 bytes per stored pattern.
"""

from __future__ import annotations

import io
import re
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from .items import ItemKind
from .mining import RankedPatterns, SequentialPattern, precedes, sort_patterns


class SchemaViolation(ValueError):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class MinedRepository(NamedTuple):
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

def two_dp(num: int, den: int, places: int = 2) -> str:
    """num/den (>= 0) rounded half-up to places (default two) decimals,
    exactly: 1/8 -> "0.13", 29/32 at four places -> "0.9063"."""
    scale = 10 ** places
    q = (2 * scale * num + den) // (2 * den)
    return f"{q // scale}.{str(q % scale).zfill(places)}"


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
    # A pattern is unpacked, not read through its kind and k properties,
    # each a Python frame.
    heads: dict[tuple, str] = {}
    items: dict[tuple, str] = {}
    for elements, num, den, cden in patterns:
        kind, k = elements[0][0], len(elements)
        head = heads.get(key := (kind, k, num, den, cden))
        if head is None:
            head = heads[key] = (
                f'    <pattern kind="{kind}" k="{k}">\n'
                f'      <support num="{num}" den="{den}">{two_dp(num, den)}</support>\n'
                f'      <confidence num="{num}" den="{cden}">'
                f'{two_dp(num, cden)}</confidence>\n'
                f"      <ranking>{two_dp(k * num, den)}</ranking>\n"
                "      <sequence>")
        out.append(head)
        for i, element in enumerate(elements, start=1):
            line = items.get((i, element))
            if line is None:
                kind, name = element
                line = items[i, element] = f'        <s i="{i}" kind="{kind}">{_esc(name)}</s>'
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


def _text(line: bytes) -> str:
    """A line of the store without its line feed; b"" (past the end) is ""."""
    return line[:-1].decode()


def _read_head(head: tuple[bytes, bytes, bytes, bytes], n: int, idx: int,
               accepted: tuple[dict, dict, dict]) -> tuple[str, int, int, int, int]:
    """Check a pattern's four opening lines, head, the first of them line n
    of the store; (kind, k, num, den, cden).

    The checks on one line's text alone run once per distinct line: accepted
    maps each <pattern>, <support> and <confidence> line read before to what
    it holds. The checks that span lines run on every call, in their order
    among the others.
    """
    pattern_lines, support_lines, confidence_lines = accepted
    line = head[0]
    got = pattern_lines.get(line)
    if got is None:
        m = _PATTERN.fullmatch(text := _text(line))
        if m is None:
            raise _pattern_violation(n, _expected('<pattern kind=".." k="..">', text), idx)
        got = pattern_lines[line] = m[1], int(m[2])
    kind, k = got

    line = head[1]
    got = support_lines.get(line)
    if got is None:
        m = _SUPPORT.fullmatch(text := _text(line))
        if m is None:
            raise _pattern_violation(
                n + 1, _expected('<support num=".." den="..">', text), idx, "support")
        num, den = int(m[1]), int(m[2])
        if num > den:
            raise _pattern_violation(n + 1, "num must be within 1..den", idx, "support")
        if m[3] != two_dp(num, den):
            raise _pattern_violation(
                n + 1, f"display value {m[3]!r} inconsistent with {num}/{den}", idx, "support")
        got = support_lines[line] = num, den
    num, den = got

    line = head[2]
    got = confidence_lines.get(line)
    if got is None:
        m = _CONFIDENCE.fullmatch(text := _text(line))
        if m is None:
            raise _pattern_violation(
                n + 2, _expected('<confidence num=".." den="..">', text), idx, "confidence")
        cnum, cden = int(m[1]), int(m[2])
        # a display value at odds with the fraction is refused only after
        # the checks against the support and k, which come first
        got = confidence_lines[line] = cnum, cden, (None if m[3] == two_dp(cnum, cden)
                                                    else m[3])
    cnum, cden, wrong_display = got
    if cnum != num:
        raise _pattern_violation(
            n + 2, "confidence numerator must equal the support count", idx, "confidence")
    if cnum > cden or (k == 1 and cden != cnum):
        raise _pattern_violation(
            n + 2, f"confidence {cnum}/{cden} out of range for k={k}", idx, "confidence")
    if wrong_display is not None:
        raise _pattern_violation(
            n + 2, f"display value {wrong_display!r} inconsistent with {cnum}/{cden}", idx,
            "confidence")

    shown = two_dp(k * num, den)
    if (text := _text(head[3])) != f"      <ranking>{shown}</ranking>":
        raise _pattern_violation(
            n + 3, _expected(f"<ranking>{shown}</ranking> (k * support)", text), idx, "ranking")
    return kind, k, num, den, cden


def _read_item(line: bytes, n: int, idx: int, i: int) -> tuple[str, str]:
    """Check line, line n of the store, the i-th <s> of a pattern; (kind, name).

    Every check here depends on the line's text and i alone.
    """
    text = _text(line)
    m = _ITEM.fullmatch(text)
    if m is None or int(m[1]) != i:
        raise _pattern_violation(
            n, _expected(f'<s i="{i}" kind="..">name</s>', text), idx, "sequence", f"s[{i}]")
    name = m[3]
    if "&" in name:
        name = _unesc(name)
    if name.strip() != name:
        raise _pattern_violation(
            n, f"item name {name!r} is blank or padded", idx, "sequence", f"s[{i}]")
    return m[2], name


def parse(data: bytes) -> MinedRepository:
    """Read canonical repository bytes; SchemaViolation on any other byte.

    Whatever it accepts, ``serialize`` writes back byte for byte.
    """
    corpus, created, min_support, blocks = _read(io.BytesIO(data))
    return MinedRepository(
        patterns=tuple(block[1] for block in blocks),
        corpus_label=corpus,
        created_at=created,
        min_support_used=min_support,
    )


_CHUNK = 1 << 16  # bytes read at a time by the text check
# the lines of a pattern block around its items
_SEQUENCE, _SEQUENCE_END, _PATTERN_END = (b"      <sequence>\n", b"      </sequence>\n",
                                          b"    </pattern>\n")

_Block = tuple[int, SequentialPattern, tuple[bytes, bytes, bytes, bytes], list[bytes]]
_new = tuple.__new__


def _read(store: BinaryIO) -> tuple[str, str, int, Iterator[_Block]]:
    """The reader of parse, over a binary stream at its start: (corpus
    label, creation stamp, min-support, the pattern blocks).

    The blocks are read as they are taken, each as (line of its head, the
    pattern, its four head lines, its item lines). The iterator checks the
    store's closing lines as it ends, so a caller runs it to its end before
    it trusts the store. The store is read once; only a refusal reads it
    again, with _check_text, whose refusal wins.
    """
    try:
        line = _text(store.readline())
        m = _HEADER.fullmatch(line)
        if m is None:
            raise _violation(1, _expected("the <esdp-repository> header", line))
        opening = store.readline()
        if opening not in (b"  <patterns>\n", b"  <patterns/>\n"):
            raise _violation(2, _expected("<patterns> or <patterns/>", _text(opening)),
                             "patterns")
    except (SchemaViolation, UnicodeDecodeError):
        _check_text(store)
        raise
    return (_unesc(m[1]), _unesc(m[2]), int(m[3]),
            _blocks(store, opening == b"  <patterns>\n"))


def _check_text(store: BinaryIO) -> None:
    """The reader's first two refusals, in one pass over the whole stream
    from its start: a byte that is not UTF-8, then a last line without a
    line feed.

    The reader runs it only when it is about to refuse the store: a store it
    accepts decodes every line it has not seen byte for byte before or met
    as a fixed ASCII line, and ends with the line feed of
    </esdp-repository>, so it holds neither fault.
    """
    store.seek(0)
    lines = 0
    last = b"\n"
    # a chunk ends at a line feed, which no multi-byte character holds
    while chunk := store.read(_CHUNK) + store.readline():
        try:
            chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _violation(lines + chunk.count(b"\n", 0, exc.start) + 1,
                             f"not UTF-8 ({exc.reason})") from None
        lines += chunk.count(b"\n")
        last = chunk
    if not last.endswith(b"\n"):
        raise _violation(lines + 1, "document does not end with a line feed") from None


def _blocks(store: BinaryIO, listed: bool) -> Iterator[_Block]:
    """The blocks of _read: the pattern blocks from the third line of the
    store, if <patterns> opened the list (listed), then the closing lines.

    Reading past the end gives b"", which no line position accepts. Before
    it refuses the store, a SchemaViolation or a line that does not decode,
    it runs _check_text, so a text fault anywhere in the store is the one
    reported.
    """
    readline = store.readline
    n = 2  # lines read
    try:
        if listed:
            # Text that passed _read_head or _read_item once passes again, so
            # each distinct head and (item line, ordinal) is checked once per
            # call, and within a new head each distinct line; text not seen
            # before gets every check, in the same order. A head cut short
            # holds b"" where no accepted head does, so its key misses and
            # _read_head reports the cut.
            heads: dict[tuple, tuple[str, int, int, int, int]] = {}
            head_lines: tuple[dict, dict, dict] = ({}, {}, {})
            items: dict[tuple, tuple[str, str]] = {}
            seen: set[tuple] = set()  # the element lists read: no pattern twice
            idx = 0
            line = readline()
            while True:
                idx += 1
                head = (line, readline(), readline(), readline())
                got = heads.get(head)
                if got is None:
                    got = heads[head] = _read_head(head, n + 1, idx, head_lines)
                kind, k, num, den, cden = got
                line = readline()
                if line != _SEQUENCE:
                    raise _pattern_violation(
                        n + 5, _expected("<sequence>", _text(line)), idx, "sequence")

                item_lines = []
                elements = []
                for i in range(1, k + 1):
                    line = readline()
                    item_lines.append(line)
                    element = items.get((line, i))
                    if element is None:
                        element = items[line, i] = _read_item(line, n + 5 + i, idx, i)
                    elements.append(element)
                n += 5 + k
                line = readline()
                if line != _SEQUENCE_END:
                    raise _pattern_violation(
                        n + 1, _expected(f"</sequence> after k={k} items", _text(line)), idx,
                        "sequence")
                line = readline()
                if line != _PATTERN_END:
                    raise _pattern_violation(n + 2, _expected("</pattern>", _text(line)), idx)
                n += 2

                key = tuple(elements)
                if key[0][0] != kind:
                    raise _pattern_violation(n - k - 6, "pattern kind must match its first item",
                                             idx)
                seen.add(key)  # one hash of key: a repeated one leaves seen's size as it was
                if len(seen) != idx:
                    raise _pattern_violation(n - k - 6, "duplicate pattern element-list", idx)
                # SequentialPattern._make without its Python frame
                yield n - k - 6, _new(SequentialPattern, (key, num, den, cden)), head, item_lines
                line = readline()
                if line == b"  </patterns>\n":
                    n += 1
                    break

        line = readline()
        if line != b"</esdp-repository>\n":
            raise _violation(n + 1, _expected("</esdp-repository>", _text(line)))
        if readline():
            raise _violation(n + 2, "text after </esdp-repository>")
    except (SchemaViolation, UnicodeDecodeError):
        _check_text(store)
        raise


# --- incremental update ----------------------------------------------------------

_PATTERNS_END = b"  </patterns>\n</esdp-repository>\n"
_BATCH = 4096  # stored lines joined into one write of the update


def merge_update(store: BinaryIO, fresh: Iterable[SequentialPattern], created_at: str,
                 min_support_used: int, out: BinaryIO) -> None:
    """Fold freshly mined patterns into the store open for reading in
    ``store``, writing the new store to ``out``.

    Patterns with identical element lists take the fresh scores (of equal
    fresh element lists, the last); new ones are inserted; nothing is
    deleted. The corpus label is kept; the creation stamp and min-support
    are replaced. The bytes are those ``serialize`` writes for the merged
    repository, re-ranked, but only fresh patterns are rendered.

    One read of the store, with the reader of ``parse``: each stored block
    it accepts is written from the lines it checked, unless a fresh one
    replaces it, and each fresh block before the first stored block it ranks
    above, in writes of some _BATCH lines. A store refused part way has left
    the new store's start in ``out``, which the caller discards (the CLI
    writes ``out`` to a temporary file it removes on any error).

    SchemaViolation when ``parse`` refuses the store, or when its patterns
    are not in ranking order (after any other refusal); ValueError when a
    fresh item name cannot be written.
    """
    latest = {p.elements: p for p in fresh}
    # mined RankedPatterns are sorted already, with no element list twice
    queue = fresh if isinstance(fresh, RankedPatterns) else sort_patterns(latest.values())
    corpus, _, _, blocks = _read(store)
    # Text that cannot be encoded is refused after the store's refusals and
    # the check of what is written, as when nothing was written before them.
    unwritable: list[UnicodeEncodeError] = []

    def encode(text: str) -> bytes:
        try:
            return text.encode()
        except UnicodeEncodeError as exc:
            unwritable.append(exc)
            return b""

    batch = [encode(_header(corpus, created_at, min_support_used)), b"\n  <patterns>\n"]
    j = 0
    above = fault = None
    for idx, (line, p, head, item_lines) in enumerate(blocks, 1):
        if above is not None and fault is None and not precedes(above, p):
            fault = _pattern_violation(
                line, f"pattern ranks above pattern[{idx - 1}]: stored patterns must be in "
                "ranking order", idx)
        i = j
        while j < len(queue) and precedes(queue[j], p):
            j += 1
        if j > i:
            batch.append(encode("\n".join(_render(queue[i:j], [])) + "\n"))
        if p.elements not in latest:  # else replaced: its stored lines are not written
            batch += head
            batch.append(_SEQUENCE)
            batch += item_lines
            batch += _SEQUENCE_END, _PATTERN_END
            if len(batch) >= _BATCH:
                out.write(b"".join(batch))
                batch.clear()
        above = p
    if fault is not None:
        raise fault
    _check_writable((corpus, created_at), latest.values())
    if above is None and not latest:
        batch[1] = b"\n  <patterns/>\n</esdp-repository>\n"  # nothing was written
    else:
        if j < len(queue):
            batch.append(encode("\n".join(_render(queue[j:], [])) + "\n"))
        batch.append(_PATTERNS_END)
    if unwritable:
        raise unwritable[0]
    out.write(b"".join(batch))
