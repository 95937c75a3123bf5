"""The mined pattern repository: a client-side XML file, canonically
serialized so identical repositories produce identical bytes.

Numbers display at two decimals (half-up) while exact rational num/den
attributes make the round trip lossless. The reader accepts only the
canonical bytes ``serialize`` writes: UTF-8, LF line ends, the fixed
indentation and attribute order, numbers without leading zeros, and only
the escapes ``serialize`` uses. It reads line by line; any other byte is a
SchemaViolation naming the line and the element path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .items import ItemKind
from .mining import SequentialPattern, pattern_sort_key


class SchemaViolation(Exception):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@dataclass(frozen=True)
class MinedRepository:
    patterns: tuple[SequentialPattern, ...]
    corpus_label: str = ""
    created_at: str = "1970-01-01T00:00:00Z"
    min_support_used: int = 1

    def __len__(self) -> int:
        return len(self.patterns)


def make_repository(patterns: Iterable[SequentialPattern], corpus_label: str = "",
                    created_at: str = "1970-01-01T00:00:00Z",
                    min_support_used: int = 1) -> MinedRepository:
    """Sort by ranking (desc, with tie-breaks) and drop duplicate element-lists."""
    seen: set[tuple] = set()
    unique: list[SequentialPattern] = []
    for p in sorted(patterns, key=pattern_sort_key):
        if p.elements not in seen:
            seen.add(p.elements)
            unique.append(p)
    return MinedRepository(tuple(unique), corpus_label, created_at, min_support_used)


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


def _rational_parts(p: SequentialPattern) -> tuple[int, int, int, int]:
    """Unreduced (support num, den, confidence num, den) recovered from the
    exact fields; num is always the raw support count."""
    count = p.support_count
    db_size = count * p.support_ratio.denominator // p.support_ratio.numerator
    if p.k == 1 or p.confidence == 0:
        prefix_count = count
    else:
        prefix_count = count * p.confidence.denominator // p.confidence.numerator
    return count, db_size, count, prefix_count


def serialize(repo: MinedRepository) -> bytes:
    """Canonical document bytes: UTF-8, LF, 2-space indent, fixed attribute order.

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
            num, den, cnum, cden = _rational_parts(p)
            out.append(f'    <pattern kind="{p.kind}" k="{p.k}">')
            out.append(f'      <support num="{num}" den="{den}">{two_dp(num, den)}</support>')
            out.append(f'      <confidence num="{cnum}" den="{cden}">'
                       f'{two_dp(cnum, cden)}</confidence>')
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


# --- parsing -------------------------------------------------------------------
# One regular expression per line position, each matching only what serialize
# writes there. Numbers are >= 1 with no leading zero. Attribute values use the
# four escapes of _esc_attr and item names the three of _esc; control
# characters, which XML forbids or rewrites, are refused.

_NUM = "([1-9][0-9]*)"
_KIND = "(" + "|".join(k.value for k in ItemKind) + ")"
_ATTR = '((?:[^&<>"\\x00-\\x1f]|&(?:amp|lt|gt|quot);)*)'
_NAME = "((?:[^&<>\\x00-\\x08\\x0a-\\x1f]|&(?:amp|lt|gt);)+)"

_HEADER = re.compile(f'<esdp-repository version="1" corpus="{_ATTR}" created="{_ATTR}"'
                     f' min-support="{_NUM}">')
_PATTERN = re.compile(f'    <pattern kind="{_KIND}" k="{_NUM}">')
_SUPPORT = re.compile(f'      <support num="{_NUM}" den="{_NUM}">([^<]*)</support>')
_CONFIDENCE = re.compile(f'      <confidence num="{_NUM}" den="{_NUM}">([^<]*)</confidence>')
_RANKING = re.compile("      <ranking>([^<]*)</ranking>")
_ITEM = re.compile(f'        <s i="{_NUM}" kind="{_KIND}">{_NAME}</s>')


def _violation(line_no: int, message: str, *steps: str) -> SchemaViolation:
    return SchemaViolation(f"line {line_no}: {message}",
                           "/".join(("/esdp-repository",) + steps))


def _pattern_violation(line_no: int, message: str, idx: int, *steps: str) -> SchemaViolation:
    return _violation(line_no, message, "patterns", f"pattern[{idx}]", *steps)


def _expected(what: str, line: str) -> str:
    return f"expected {what}, found {line[:120]!r}"


def parse(data: bytes) -> MinedRepository:
    """Read canonical repository bytes; SchemaViolation on any other byte.

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
            patterns.append(SequentialPattern(
                elements=key,
                support_count=num,
                support_ratio=Fraction(num, den),
                confidence=Fraction(cnum, cden),
                ranking=Fraction(k * num, den),
            ))
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


# --- incremental update ----------------------------------------------------------

def merge_update(existing: MinedRepository, fresh: Iterable[SequentialPattern],
                 full_replacement: bool = False, corpus_label: str | None = None,
                 created_at: str | None = None,
                 min_support_used: int | None = None) -> MinedRepository:
    """Fold freshly mined patterns into a repository.

    Patterns with identical element-lists take the fresh scores; new ones
    are inserted; nothing is deleted unless full_replacement is set. The
    result is re-sorted and carries updated metadata where given.
    """
    fresh = list(fresh)
    if full_replacement:
        merged: dict[tuple, SequentialPattern] = {}
    else:
        merged = {p.elements: p for p in existing.patterns}
    for p in fresh:
        merged[p.elements] = p
    return make_repository(
        merged.values(),
        corpus_label=existing.corpus_label if corpus_label is None else corpus_label,
        created_at=existing.created_at if created_at is None else created_at,
        min_support_used=existing.min_support_used if min_support_used is None else min_support_used,
    )
