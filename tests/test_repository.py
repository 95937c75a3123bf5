from __future__ import annotations

import io
import math
import random
import re
import sys
import tracemalloc
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import esdp.cli
import esdp.repository
from conftest import random_sequence_db, write_fixture_corpus
from esdp.extractor import extract_corpus
from esdp.items import ITEM_KINDS
from esdp.mining import (
    RankedPatterns,
    SequentialPattern,
    adaptive_mine,
    mine_prefixspan,
    precedes,
    ranking_key,
    sort_patterns,
)
from esdp.repository import (
    _ITEM,
    _NAME,
    MinedRepository,
    SchemaViolation,
    make_repository,
    merge_update,
    parse,
    serialize,
    two_dp,
)
from esdp.transactions import build_sequence_db
from oracles import (
    NAME_REFERENCE,
    merge_update_spec,
    parse_reference,
)

FIG35_ELEMENTS = (
    ("MI", "dom.ASTParser.newParser(int)"),
    ("MI", "aSTParser.setKind(int)"),
    ("MI", "aSTParser.setSource(org.eclipse.jdt.core.ICompilationUnit)"),
    ("MI", "aSTParser.setResolveBindings(boolean)"),
    ("MI", "aSTParser.createAST(null)"),
)


def fig35_pattern() -> SequentialPattern:
    return SequentialPattern(FIG35_ELEMENTS, 7, 12, 7)


def pattern_of(names, count=2, size=4, kind="MI") -> SequentialPattern:
    return SequentialPattern(tuple((kind, n) for n in names), count, size, count)


def random_repo(rng: random.Random) -> MinedRepository:
    db = random_sequence_db(rng)
    patterns = mine_prefixspan(db, rng.randint(1, max(1, len(db.records))))
    return make_repository(patterns, corpus_label=f"corpus{rng.randint(0, 99)}",
                           created_at="2015-10-23T12:00:00Z",
                           min_support_used=rng.randint(1, 3))


def test_fig35_document_values():
    repo = make_repository([fig35_pattern()], "fixture", "2015-10-23T00:00:00Z", 2)
    text = serialize(repo).decode()
    assert "<support num=\"7\" den=\"12\">0.58</support>" in text
    assert "<confidence num=\"7\" den=\"7\">1.00</confidence>" in text
    assert "<ranking>2.92</ranking>" in text
    for fragment in ("newParser(int)", "setKind(int)", "setSource(org.eclipse",
                     "setResolveBindings(boolean)", "createAST(null)"):
        assert fragment in text
    assert text.count("<s ") == 5


def test_empty_repo_serializes_empty_patterns_element():
    assert "<patterns/>" in serialize(make_repository([])).decode()


def test_round_trip_identities():
    rng = random.Random(5)
    for _ in range(20):
        repo = random_repo(rng)
        data = serialize(repo)
        back = parse(data)
        assert back.patterns == repo.patterns
        assert back.corpus_label == repo.corpus_label
        assert serialize(back) == data


@given(st.integers(0, 10**9), st.integers(1, 10**9))
@example(1, 8)  # 0.125 -> 0.13, where a binary float rounds to 0.12
@example(30, 2000)
@example(1, 200)
def test_two_dp_rounds_exact_value_half_up(num, den):
    exact = Decimal(num) / Decimal(den)  # 28 digits: far finer than 1/(200 * den)
    assert two_dp(num, den) == str(exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@given(st.integers(0, 10**9), st.integers(1, 10**9), st.integers(1, 6))
@example(29, 32, 4)  # 0.90625 -> 0.9063, where a binary float rounds to 0.9062
@example(1, 8, 3)
def test_two_dp_rounds_exact_value_half_up_to_any_places(num, den, places):
    exact = Decimal(num) / Decimal(den)
    assert two_dp(num, den, places) == str(
        exact.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP))


def test_parse_minimal_hand_written_document():
    doc = b"""<esdp-repository version="1" corpus="hand" created="2020-01-01T00:00:00Z" min-support="1">
  <patterns>
    <pattern kind="FD" k="1">
      <support num="1" den="2">0.50</support>
      <confidence num="1" den="1">1.00</confidence>
      <ranking>0.50</ranking>
      <sequence>
        <s i="1" kind="FD">Connection</s>
      </sequence>
    </pattern>
  </patterns>
</esdp-repository>
"""
    repo = parse(doc)
    assert len(repo.patterns) == 1
    p = repo.patterns[0]
    assert p.elements == (("FD", "Connection"),)
    assert p.support_count == 1
    assert p.support_ratio == Fraction(1, 2)
    assert p.confidence == 1
    assert p.ranking == Fraction(1, 2)


def test_non_numeric_support_rejected():
    doc = serialize(make_repository([fig35_pattern()])).decode()
    bad = doc.replace('num="7" den="12"', 'num="abc" den="12"')
    with pytest.raises(SchemaViolation) as err:
        parse(bad.encode())
    assert "support" in str(err.value)


def test_violation_carries_element_path():
    doc = serialize(make_repository([fig35_pattern()])).decode()
    bad = doc.replace(">0.58<", ">0.99<")
    with pytest.raises(SchemaViolation) as err:
        parse(bad.encode())
    assert err.value.path.startswith("/esdp-repository/patterns/pattern[1]")


@pytest.mark.parametrize("rewrite,path", [
    (lambda d: d.replace(b"\n", b"\r\n"), "/esdp-repository"),
    (lambda d: re.sub(rb"(?m)^( +)", rb"\1\1", d), "/esdp-repository/patterns"),
    (lambda d: d.replace(b"\n  ", b"\n\t"), "/esdp-repository/patterns"),
    (lambda d: d.replace(b'num="7"', b'num="07"', 1),
     "/esdp-repository/patterns/pattern[1]/support"),
    (lambda d: d.replace(b'min-support="2"', b'min-support="02"'), "/esdp-repository"),
    (lambda d: d.replace(b'<s i="2"', b'<s i="02"'),
     "/esdp-repository/patterns/pattern[1]/sequence/s[2]"),
    (lambda d: d + b"\n", "/esdp-repository"),
    (lambda d: d[:-1], "/esdp-repository"),
    (lambda d: d[:d.index(b"</s>") + 4], "/esdp-repository"),
])
def test_non_canonical_layout_rejected_with_path(rewrite, path):
    doc = serialize(make_repository([fig35_pattern()], "fixture", "t", 2))
    bad = rewrite(doc)
    assert bad != doc
    with pytest.raises(SchemaViolation) as err:
        parse(bad)
    assert err.value.path == path


def test_only_canonical_escapes_and_unpadded_names_accepted():
    repo = make_repository([pattern_of(['a<b>&"c\'()'])], 'x&"<>y\'')
    doc = serialize(repo).decode()
    assert 'corpus="x&amp;&quot;&lt;&gt;y\'"' in doc
    item = '>a&lt;b&gt;&amp;"c\'()</s>'
    assert item in doc
    assert parse(doc.encode()) == repo
    for bad in ('>a&lt;b&gt;&amp;&quot;c\'()</s>', ">a&#60;b&gt;&amp;\"c'()</s>",
                ">a<b&gt;&amp;\"c'()</s>", ">a&lt;b>&amp;\"c'()</s>",
                ">a&lt;b&gt;&\"c'()</s>", ">a&lt;b&gt;&amp;\"c&apos;()</s>",
                "> a&lt;b&gt;&amp;\"c'()</s>", ">a&lt;b&gt;&amp;\"c'()\t</s>", ">   </s>"):
        with pytest.raises(SchemaViolation) as err:
            parse(doc.replace(item, bad).encode())
        assert err.value.path == "/esdp-repository/patterns/pattern[1]/sequence/s[1]"


@pytest.mark.parametrize("name", ["", " x", "a\nb", "a\x01b"])
def test_unreadable_item_name_refused_at_write(name):
    with pytest.raises(ValueError, match="item name"):
        serialize(make_repository([pattern_of(["ok()", name])]))


_NAME_PIECES = st.one_of(
    st.sampled_from(["", "&", "&amp;", "&lt;", "&gt;", "&quot;", "&am", "&amp", "&l", "&gt",
                     "gt;", ";", "<", ">", '"', "\t", "\n", "\r", "\x00", "\x08", "\x0b",
                     "\x1f", "\x7f", " ", "a", "é", "漢", "</s>"]),
    st.text(max_size=3))
_ITEM_REFERENCE = re.compile(_ITEM.pattern.replace(_NAME, NAME_REFERENCE))


@settings(max_examples=300, deadline=None)
@given(st.lists(_NAME_PIECES, max_size=8).map("".join))
@example("")
@example("&amp;")
@example("a&b")
def test_unrolled_name_expression_accepts_what_the_reference_accepts(text):
    assert _ITEM_REFERENCE.pattern != _ITEM.pattern
    line = f'        <s i="1" kind="MI">{text}</s>'
    for new, old, subject in ((_NAME, NAME_REFERENCE, text),
                              (_ITEM.pattern, _ITEM_REFERENCE.pattern, line)):
        got, want = re.fullmatch(new, subject), re.fullmatch(old, subject)
        assert (got is None) == (want is None)
        assert got is None or got.groups() == want.groups()


def test_inner_tab_in_item_name_round_trips():
    repo = make_repository([pattern_of(["a\tb"])])
    assert parse(serialize(repo)) == repo


@pytest.mark.parametrize("pattern,canonical,altered", [
    # a 1-item pattern has confidence count/count
    (pattern_of(["x()"], count=2, size=4), 'num="2" den="2">1.00', 'num="2" den="3">0.67'),
    # the confidence numerator restates the support count
    (fig35_pattern(), 'num="7" den="7">1.00', 'num="6" den="6">1.00'),
])
def test_confidence_fraction_checked(pattern, canonical, altered):
    doc = serialize(make_repository([pattern])).decode()
    assert f"<confidence {canonical}</confidence>" in doc
    with pytest.raises(SchemaViolation) as err:
        parse(doc.replace(canonical, altered).encode())
    assert err.value.path == "/esdp-repository/patterns/pattern[1]/confidence"


# --- properties ----------------------------------------------------------------------

_CHARS = st.one_of(st.sampled_from('&<>"\' é漢'),
                   st.characters(blacklist_categories=("Cs", "Cc")))
_NAMES = st.text(_CHARS, min_size=1, max_size=10).map(str.strip).filter(bool)
_LABELS = st.text(_CHARS, max_size=10)


@st.composite
def repositories(draw) -> MinedRepository:
    size = draw(st.integers(1, 500))
    element_lists = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(list(ITEM_KINDS)), _NAMES),
                 min_size=1, max_size=4).map(tuple),
        max_size=5, unique=True))
    patterns = []
    for elements in element_lists:
        count = draw(st.integers(1, size))
        prefix_count = count if len(elements) == 1 else draw(st.integers(count, size))
        patterns.append(SequentialPattern(elements, count, size, prefix_count))
    return MinedRepository(tuple(patterns), draw(_LABELS), draw(_LABELS),
                           draw(st.integers(1, 10**6)))


def _accepted_only_if_canonical(data: bytes) -> None:
    try:
        repo = parse(data)
    except SchemaViolation:
        return
    assert serialize(repo) == data


@settings(max_examples=100, deadline=None)
@given(repositories())
def test_parse_inverts_serialize(repo):
    assert parse(serialize(repo)) == repo


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
def test_arbitrary_bytes_rejected_or_canonical(data):
    _accepted_only_if_canonical(data)


_EDITS = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete", "truncate"]),
                           st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=25)


def _edit(doc: bytes, edit: str, pos: int, byte: int) -> bytes:
    if edit == "insert":
        pos %= len(doc) + 1
        return doc[:pos] + bytes([byte]) + doc[pos:]
    if edit == "replace":
        pos %= len(doc)
        return doc[:pos] + bytes([byte]) + doc[pos + 1:]
    if edit == "delete":
        pos %= len(doc)
        return doc[:pos] + doc[pos + 1:]
    return doc[:pos % len(doc)]


@settings(max_examples=150, deadline=None)
@given(repositories(), _EDITS)
def test_single_byte_edits_rejected_or_canonical(repo, edits):
    doc = serialize(repo)
    for edit in edits:
        _accepted_only_if_canonical(_edit(doc, *edit))


# --- the per-call line memo against the reference reader -------------------------

def _agrees_with_reference(data: bytes) -> None:
    """parse returns what parse_reference returns, or raises its error."""
    try:
        want = parse_reference(data)
    except SchemaViolation as exc:
        with pytest.raises(SchemaViolation) as err:
            parse(data)
        assert (str(err.value), err.value.path) == (str(exc), exc.path)
    else:
        assert parse(data) == want


@st.composite
def repetitive_repositories(draw) -> MinedRepository:
    """Stores whose patterns share heads and item lines: few names, one or
    two kinds, and counts from a database of at most four sequences."""
    size = draw(st.integers(1, 4))
    names = draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    elements = st.tuples(st.sampled_from(["MI", "FA"]), st.sampled_from(names))
    element_lists = draw(st.lists(st.lists(elements, min_size=1, max_size=3).map(tuple),
                                  min_size=2, max_size=12, unique=True))
    patterns = []
    for elements in element_lists:
        count = draw(st.integers(1, size))
        prefix_count = count if len(elements) == 1 else draw(st.integers(count, size))
        patterns.append(SequentialPattern(elements, count, size, prefix_count))
    return MinedRepository(tuple(patterns), draw(_LABELS), draw(_LABELS), 1)


_MEMOIZED_LINES = (b"    <pattern ", b"      <support ", b"      <confidence ",
                   b"      <ranking>", b"        <s ")


def _edit_all(doc: bytes, edits) -> bytes:
    """doc with every edit applied in turn, so a store may carry an early
    structural fault and a later text fault; the empty document stays
    empty."""
    for edit in edits:
        if doc:
            doc = _edit(doc, *edit)
    return doc


@settings(max_examples=150, deadline=None)
@given(repositories(), _EDITS)
def test_parse_agrees_with_reference_on_edits(repo, edits):
    doc = serialize(repo)
    _agrees_with_reference(doc)
    for edit in edits:
        _agrees_with_reference(_edit(doc, *edit))
    _agrees_with_reference(_edit_all(doc, edits))


@settings(max_examples=300, deadline=None)
@given(repetitive_repositories(), st.data())
def test_parse_agrees_with_reference_on_edits_to_repeated_lines(repo, data):
    # The edit lands on a head or item line whose text an earlier pattern
    # already holds, so the memo has seen the unedited text: a byte edit, or
    # the text of an earlier line of the same element, which the memo holds
    # too but which may not fit this place (another ordinal, kind or k).
    doc = serialize(repo)
    _agrees_with_reference(doc)
    lines = doc.split(b"\n")
    repeated = [j for j, line in enumerate(lines)
                if line.startswith(_MEMOIZED_LINES) and line in lines[:j]]
    assume(repeated)
    j = data.draw(st.sampled_from(repeated))
    if data.draw(st.booleans()):
        start = sum(len(line) + 1 for line in lines[:j])
        edit, offset, byte = data.draw(st.tuples(
            st.sampled_from(["replace", "insert", "delete"]),
            st.integers(0, len(lines[j]) - 1), st.integers(0, 255)))
        mutant = _edit(doc, edit, start + offset, byte)
    else:
        prefix = next(p for p in _MEMOIZED_LINES if lines[j].startswith(p))
        lines[j] = data.draw(st.sampled_from([line for line in lines[:j]
                                              if line.startswith(prefix)]))
        mutant = b"\n".join(lines)
    _agrees_with_reference(mutant)


@settings(max_examples=100, deadline=None)
@given(st.one_of(repositories(), repetitive_repositories()))
def test_serialize_agrees_with_reference(repo):
    # the reference reader accepts one byte string per repository
    assert parse_reference(serialize(repo)) == repo


def test_store_cut_inside_last_pattern_names_a_line():
    # both patterns have the same head, so the second head is a memo hit
    # when whole and must miss when cut
    doc = serialize(make_repository([pattern_of(["x()", "y()"]), pattern_of(["x()", "z()"])]))
    lines = doc.split(b"\n")
    last = lines.index(b'        <s i="2" kind="MI">y()</s>') + 3
    end = lines.index(b"  </patterns>")
    assert lines[last:last + 4] == lines[2:6]
    for j in range(last, end + 1):  # each line boundary of the last pattern, and </patterns>
        cut = b"\n".join(lines[:j]) + b"\n"
        with pytest.raises(SchemaViolation, match=r"^/esdp-repository[^:]*: line [0-9]+: "):
            parse(cut)
        _agrees_with_reference(cut)


def _late_text_fault() -> bytes:
    """A store with a structural fault on line 5 and a byte that is not
    UTF-8 on its last line."""
    doc = serialize(make_repository([pattern_of(["x()", "y()"]), pattern_of(["z()"])]))
    lines = doc.split(b"\n")
    assert lines[4].startswith(b"      <confidence ")
    lines[4] = lines[4].replace(b"<confidence", b"<confidance")
    lines[-2] += b"\xff"
    return b"\n".join(lines)


def test_reader_checks_the_text_only_to_refuse(monkeypatch):
    # An accepted store is read once: the text check runs only on the way
    # to a refusal, and then a text fault anywhere wins over a structural
    # one before it.
    data = _late_text_fault()
    last = data.count(b"\n")
    for refuse in (lambda: parse(data), lambda: _update(data, [], "u", 3)):
        with pytest.raises(SchemaViolation) as err:
            refuse()
        assert str(err.value) == f"/esdp-repository: line {last}: not UTF-8 (invalid start byte)"

    def no_text_pass(store):
        raise AssertionError("text check on an accepted store")

    monkeypatch.setattr(esdp.repository, "_check_text", no_text_pass)
    repo = make_repository([pattern_of(["x()", "y()"]), pattern_of(["z()"])], "c", "t", 2)
    assert parse(serialize(repo)) == repo
    _merged(repo, [pattern_of(["w()"], count=3)])


# A line that passed its own checks in one head may fail those that span
# lines in another: each such check runs again for every distinct head.

def _with_head_line_of_first(first: SequentialPattern, second: SequentialPattern,
                             offset: int) -> bytes:
    """The store of first then second, the head line at offset (0 pattern,
    1 support, 2 confidence, 3 ranking) of second replaced by first's."""
    lines = serialize(MinedRepository((first, second))).split(b"\n")
    a, b = (j for j, line in enumerate(lines) if line.startswith(b"    <pattern "))
    lines[b + offset] = lines[a + offset]
    return b"\n".join(lines)


_PREFIX_3 = pattern_of(["a", "b"])._replace(prefix_count=3)


@pytest.mark.parametrize("first,second,offset,message", [
    # a confidence line valid under support 2, read under support 3
    (_PREFIX_3, pattern_of(["c", "d"], count=3), 2,
     "confidence numerator must equal the support count"),
    # a k=1 pattern given the confidence line of a k=2 pattern
    (_PREFIX_3, pattern_of(["c"]), 2, "confidence 2/3 out of range for k=1"),
    # and the other way round, which is a valid confidence for k=2
    (pattern_of(["c"]), _PREFIX_3, 2, None),
    # a ranking line read under another k, with the same support line
    (pattern_of(["a", "b"]), pattern_of(["a", "b", "c"]), 3,
     "expected <ranking>1.50</ranking> (k * support), found '      <ranking>1.00</ranking>'"),
    # a ranking line read under another den
    (pattern_of(["a"], count=1, size=2), pattern_of(["b"], count=1, size=3), 3,
     "expected <ranking>0.33</ranking> (k * support), found '      <ranking>0.50</ranking>'"),
    # and under another num and den that give the same ranking
    (pattern_of(["a"], count=1, size=2), pattern_of(["b"], count=2, size=4), 3, None),
    # a ranking line read under the same den and another k * num
    (pattern_of(["a"], count=1, size=4), pattern_of(["b"], count=2, size=4), 3,
     "expected <ranking>0.50</ranking> (k * support), found '      <ranking>0.25</ranking>'"),
])
def test_checks_across_lines_run_for_each_head(first, second, offset, message):
    mutant = _with_head_line_of_first(first, second, offset)
    _agrees_with_reference(mutant)
    if message is None:
        assert len(parse(mutant).patterns) == 2
    else:
        with pytest.raises(SchemaViolation) as err:
            parse(mutant)
        assert str(err.value).endswith(message)
        assert err.value.path.startswith("/esdp-repository/patterns/pattern[2]")


def test_numerator_refused_before_display_of_one_confidence_line():
    # the display value would be refused too, but the checks against the
    # support come first
    doc = serialize(make_repository([pattern_of(["x()", "y()"])])).decode()
    mutant = doc.replace('<confidence num="2" den="2">1.00<',
                         '<confidence num="3" den="4">0.10<').encode()
    with pytest.raises(SchemaViolation, match="confidence numerator must equal the support"):
        parse(mutant)
    _agrees_with_reference(mutant)


@pytest.mark.parametrize("kept,expected", [
    (1, '<support num=".." den="..">'),
    (2, '<confidence num=".." den="..">'),
    (3, "<ranking>1.00</ranking> (k * support)"),
])
def test_store_cut_inside_a_head_seen_before_names_the_cut(kept, expected):
    # the first kept lines of the second head were each accepted in the first
    first, second = pattern_of(["x()", "y()"]), pattern_of(["x()", "z()"])
    lines = serialize(MinedRepository((first, second))).split(b"\n")
    b = lines.index(b'    <pattern kind="MI" k="2">', 1)
    assert lines[b:b + 4] == lines[2:6]
    cut = b"\n".join(lines[:b + kept]) + b"\n"
    with pytest.raises(SchemaViolation) as err:
        parse(cut)
    assert str(err.value).endswith(f"line {b + kept + 1}: expected {expected}, found ''")
    _agrees_with_reference(cut)


# The reader keys an item line by its ordinal: a line accepted as one s[i]
# is checked again as another.

def test_item_line_accepted_at_one_ordinal_is_checked_at_another():
    repo = MinedRepository((pattern_of(["a", "b"]), pattern_of(["c", "d"])))
    lines = serialize(repo).split(b"\n")
    first = lines.index(b'        <s i="1" kind="MI">a</s>')
    second = lines.index(b'        <s i="2" kind="MI">d</s>')
    lines[second] = lines[first]
    mutant = b"\n".join(lines)
    with pytest.raises(SchemaViolation) as err:
        parse(mutant)
    assert str(err.value) == (
        f"/esdp-repository/patterns/pattern[2]/sequence/s[2]: line {second + 1}: expected "
        """<s i="2" kind="..">name</s>, found '        <s i="1" kind="MI">a</s>'""")
    _agrees_with_reference(mutant)


# A head's k is the store's word: the reader makes its memos for the item
# lines it reads, not for the items k promises.

@pytest.mark.parametrize("items,expected", [
    ([], '<s i="1" kind="..">name</s>'),
    (["a"], '<s i="2" kind="..">name</s>'),
])
def test_head_with_a_huge_k_is_refused_at_its_items(items, expected):
    k = 10 ** 6
    lines = ['<esdp-repository version="1" corpus="c" created="t" min-support="1">',
             "  <patterns>", f'    <pattern kind="MI" k="{k}">',
             '      <support num="1" den="1">1.00</support>',
             '      <confidence num="1" den="1">1.00</confidence>',
             f"      <ranking>{k}.00</ranking>", "      <sequence>"]
    lines += [f'        <s i="{i}" kind="MI">{name}</s>' for i, name in enumerate(items, 1)]
    lines += ["      </sequence>", "    </pattern>", "  </patterns>", "</esdp-repository>", ""]
    data = "\n".join(lines).encode()
    _agrees_with_reference(data)
    tracemalloc.start()
    try:
        with pytest.raises(SchemaViolation) as err:
            merge_update(io.BytesIO(data), [], "u", 1, io.BytesIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value).startswith(f"/esdp-repository/patterns/pattern[1]/sequence/"
                                      f"s[{len(items) + 1}]: line {len(items) + 8}: expected "
                                      f"{expected}")
    assert peak < 1 << 20  # nothing in proportion to k


# --- incremental update: merges by case, idempotence and mined stores -------------

def _update(data: bytes, fresh, created_at: str, min_support_used: int) -> bytes:
    """What merge_update writes for the store data."""
    out = io.BytesIO()
    merge_update(io.BytesIO(data), fresh, created_at, min_support_used, out)
    return out.getvalue()


def _merged(repo: MinedRepository, fresh, created_at: str = "u",
            min_support_used: int = 3) -> bytes:
    """merge_update on the bytes of repo, which must equal what
    merge_update_spec writes for them."""
    stored = serialize(repo)
    data = _update(stored, fresh, created_at, min_support_used)
    assert data == merge_update_spec(stored, fresh, created_at, min_support_used)
    return data


def test_merge_with_nothing_is_identity():
    repo = make_repository([fig35_pattern()], "c", "t", 2)
    assert _merged(repo, [], "t", 2) == serialize(repo)
    empty = make_repository([], "c", "t", 2)
    assert _merged(empty, [], "t", 2) == serialize(empty)


def test_merge_rescoring_updates_only_that_pattern():
    a = pattern_of(["x()", "y()"], count=2, size=4)
    b = pattern_of(["z()"], count=3, size=4)
    repo = make_repository([a, b], "c", "t", 1)
    rescored = pattern_of(["x()", "y()"], count=3, size=4)
    merged = parse(_merged(repo, [rescored]))
    by_elements = {p.elements: p for p in merged.patterns}
    assert by_elements[a.elements].support_count == 3
    assert by_elements[b.elements] == b
    assert len(merged.patterns) == 2
    assert (merged.corpus_label, merged.created_at, merged.min_support_used) == ("c", "u", 3)


def test_merge_adds_disjoint_pattern_and_resorts():
    a = pattern_of(["x()"], count=1, size=4)
    repo = make_repository([a], "c", "t", 1)
    fresh = pattern_of(["p()", "q()", "r()"], count=4, size=4)
    merged = parse(_merged(repo, [fresh]))
    assert len(merged.patterns) == 2
    assert merged.patterns[0].elements == fresh.elements  # ranking 3.0 first


def test_merge_last_of_equal_fresh_element_lists_wins():
    a = pattern_of(["x()"], count=1, size=4)
    first, last = pattern_of(["y()"], count=4, size=4), pattern_of(["y()"], count=2, size=4)
    merged = parse(_merged(make_repository([a], "c", "t", 1), [first, last, a]))
    assert merged.patterns == (last, a)


@settings(max_examples=50, deadline=None)
@given(repositories(), repositories(), st.data())
def test_merge_update_is_idempotent(repo, other, data):
    # fresh patterns: some stored element-lists rescored, plus other patterns
    repo = make_repository(repo.patterns, repo.corpus_label, repo.created_at)
    stored = data.draw(st.lists(st.sampled_from(repo.patterns), max_size=3)) \
        if repo.patterns else []
    rescored = [SequentialPattern(p.elements, 1, p.db_size + 1, 1) for p in stored]
    fresh = rescored + list(other.patterns)
    once = _merged(repo, fresh)
    assert _update(once, fresh, "u", 3) == once


_FEW_ELEMENTS = st.tuples(st.sampled_from(["MI", "FD"]), st.sampled_from(["a", "b", 'c<&"d']))


@st.composite
def mixed_size_pattern(draw, elements=None) -> SequentialPattern:
    """A pattern over few elements from one of several database sizes, so
    that equal rankings (1/3 = 2/6 = 4/12) and equal supports are common."""
    if elements is None:
        elements = draw(st.lists(_FEW_ELEMENTS, min_size=1, max_size=3).map(tuple))
    size = draw(st.sampled_from([1, 3, 4, 6, 12, 35]))
    count = draw(st.integers(1, size))
    prefix_count = count if len(elements) == 1 else draw(st.integers(count, size))
    return SequentialPattern(elements, count, size, prefix_count)


@settings(max_examples=300, deadline=None)
@given(mixed_size_pattern(), mixed_size_pattern())
def test_precedes_is_the_order_of_ranking_key(a, b):
    key = ranking_key(math.lcm(a.db_size, b.db_size))
    assert precedes(a, b) == (key(a) < key(b))


@st.composite
def store_updates(draw) -> tuple[MinedRepository, list[SequentialPattern]]:
    """A store ranked by make_repository and fresh patterns for it: stored
    element lists with the same scores (replaced) or new ones (re-scored),
    new element lists, and element lists given more than once."""
    stored = draw(st.lists(mixed_size_pattern(), max_size=10))
    repo = make_repository(stored, draw(_LABELS), "t", draw(st.integers(1, 9)))
    fresh = draw(st.lists(st.sampled_from(repo.patterns), max_size=4)) if repo.patterns else []
    for p in draw(st.lists(st.sampled_from(repo.patterns), max_size=4)) if repo.patterns else []:
        fresh.append(draw(mixed_size_pattern(p.elements)))
    fresh += draw(st.lists(mixed_size_pattern(), max_size=6))
    fresh += [draw(mixed_size_pattern(p.elements))
              for p in draw(st.lists(st.sampled_from(fresh), max_size=3))] if fresh else []
    return repo, draw(st.permutations(fresh))


@settings(max_examples=300, deadline=None)
@given(store_updates())
def test_merge_update_writes_what_serialize_writes(update):
    repo, fresh = update
    _merged(repo, fresh, "2020-01-01T00:00:00Z", 7)


def _mined_stores(name: str, tmp_path) -> tuple[MinedRepository, list[SequentialPattern]]:
    """(store, fresh patterns): the fixture corpus mined at min-support 3,
    then at 2; or the update-adaptive benchmark inputs (seed 3)."""
    if name == "fixture":
        corpus = write_fixture_corpus(tmp_path / "corpus")
        db = build_sequence_db(extract_corpus([str(corpus)], ".java")[0])
        return make_repository(mine_prefixspan(db, 3), "fixture"), mine_prefixspan(db, 2)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import gen  # the benchmark's seeded corpus generator

    gen.write_inputs(tmp_path / "base", 3, 40, 5, without_idiom=0)
    gen.write_inputs(tmp_path / "fresh", 3 + 1_000_003, 10, 5)
    dbs = [build_sequence_db(extract_corpus([str(tmp_path / side / "corpus")], ".java")[0])
           for side in ("base", "fresh")]
    return make_repository(mine_prefixspan(dbs[0], 12), "base"), adaptive_mine(dbs[1], 50)


@pytest.mark.parametrize("name", ["fixture", "update-adaptive"])
def test_merge_update_on_mined_stores(name, tmp_path):
    repo, fresh = _mined_stores(name, tmp_path)
    assert repo.patterns and fresh
    _merged(repo, fresh)


@pytest.mark.parametrize("name", ["fixture", "update-adaptive"])
def test_merge_update_takes_ranked_patterns_as_they_stand(name, tmp_path, monkeypatch):
    # The miners' RankedPatterns are written in their order, not sorted
    # again; the same patterns as a shuffled plain list are sorted first,
    # to the same bytes.
    repo, fresh = _mined_stores(name, tmp_path)
    assert isinstance(fresh, RankedPatterns)
    shuffled = list(fresh)
    random.Random(7).shuffle(shuffled)
    data = serialize(repo)
    want = _update(data, shuffled, "u", 3)

    def no_sort(patterns):
        raise AssertionError("RankedPatterns sorted again")

    monkeypatch.setattr(esdp.repository, "sort_patterns", no_sort)
    assert _update(data, fresh, "u", 3) == want


# --- the one-pass update against its spec ------------------------------------------

def _agrees_with_spec(data: bytes, fresh, created_at: str = "u",
                      min_support_used: int = 3) -> None:
    """merge_update writes what merge_update_spec returns for the store
    data, or raises its error: the same type, message and path."""
    try:
        want = merge_update_spec(data, fresh, created_at, min_support_used)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            _update(data, fresh, created_at, min_support_used)
        assert type(err.value) is type(exc)
        assert (str(err.value), getattr(err.value, "path", None)) == (
            str(exc), getattr(exc, "path", None))
    else:
        assert _update(data, fresh, created_at, min_support_used) == want


@st.composite
def splice_cases(draw) -> tuple[MinedRepository, list[SequentialPattern]]:
    """A store, in ranking order or as drawn, and fresh patterns for it:
    stored patterns as they are and re-scored, and patterns of another
    store."""
    stores = st.one_of(repositories(), repetitive_repositories())
    repo = draw(stores)
    if draw(st.booleans()):
        repo = make_repository(repo.patterns, repo.corpus_label, repo.created_at,
                               repo.min_support_used)
    stored = st.lists(st.sampled_from(repo.patterns), max_size=3) if repo.patterns \
        else st.just([])
    fresh = draw(stored)
    fresh += [draw(mixed_size_pattern(p.elements)) for p in draw(stored)]
    fresh += draw(stores).patterns
    return repo, draw(st.permutations(fresh))


@settings(max_examples=200, deadline=None)
@given(splice_cases(), st.lists(_EDITS.map(lambda edits: edits[0]), max_size=6))
def test_merge_update_agrees_with_the_spec(case, edits):
    repo, fresh = case
    doc = serialize(repo)
    _agrees_with_spec(doc, fresh)
    for edit in edits:
        _agrees_with_spec(_edit(doc, *edit), fresh)
    _agrees_with_spec(_edit_all(doc, edits), fresh)


_A, _B, _C = (pattern_of(["a()"], count=3), pattern_of(["b()"], count=2),
              pattern_of(["c()"], count=1))


@pytest.mark.parametrize("stored,fresh", [
    ([], []),                                               # <patterns/>, nothing fresh
    ([], [_A, _B]),                                         # <patterns/>, fresh blocks
    ([_A, _B, _C], []),                                     # no fresh patterns
    ([_B], [pattern_of(["x()", "y()"], 4, 4), _C]),         # before the first, after the last
    ([_A, _B, _C], [pattern_of(["a()"], 1, 4), pattern_of(["b()"], 4, 4),
                    pattern_of(["c()"], 2, 4)]),            # every stored block replaced
    ([_A, _B, _C], [_A, _B, _C]),                           # every block replaced by itself
], ids=["empty-store", "empty-store-fresh", "no-fresh", "before-first-after-last",
        "all-replaced", "all-replaced-same"])
def test_merge_update_splice_cases(stored, fresh):
    repo = make_repository(stored, "c", "t", 2)
    _agrees_with_spec(serialize(repo), fresh)
    _merged(repo, fresh)


def _large_store(count: int) -> MinedRepository:
    """A store of count patterns of one to five items, ranked, whose
    rankings and supports repeat."""
    patterns = [pattern_of([f"m{j}.call{i}()" for i in range(j % 5 + 1)], count=j % 7 + 1,
                           size=8) for j in range(count)]
    return make_repository(patterns, "c", "t", 2)


def _fresh_around(repo: MinedRepository) -> dict[str, SequentialPattern]:
    """A fresh pattern at each place a cut falls: before the first stored
    block, among the middle ones, on the last (replacing it) and after it."""
    middle, last = repo.patterns[len(repo.patterns) // 2], repo.patterns[-1]
    return {"before-first": pattern_of(["top()"] * 6, count=8, size=8),
            "middle": SequentialPattern((("MI", "mid()"),) + middle.elements[1:],
                                        *middle[1:]),
            "on-last": last._replace(db_size=2 * last.db_size),  # ranks last still
            "after-last": pattern_of(["low()"], count=1, size=1_000)}


@pytest.mark.parametrize("where", ["before-first", "middle", "on-last", "after-last", "all",
                                   "every", "every-other", "between-each"])
def test_merge_update_copies_runs_through_a_file(where, tmp_path):
    # A store larger than the 64 KiB buffer the CLI opens it with, so the
    # runs copied between the reader's lines cross buffer and chunk bounds.
    # The last three cut at every block: each stored one replaced; every
    # other one, each kept one then cut by the fresh one written above it;
    # or a fresh one ranked just above each stored one (its scores, a first
    # name that sorts just before).
    repo = _large_store(1_200)
    data = serialize(repo)
    assert len(data) > 2 * esdp.repository._CHUNK
    fresh = _fresh_around(repo)
    fresh = {"all": list(fresh.values()), "every": list(repo.patterns),
             "every-other": list(repo.patterns[::2]),
             "between-each": [SequentialPattern(((kind, name[:-1]),) + p.elements[1:], *p[1:])
                              for p in repo.patterns
                              for (kind, name) in p.elements[:1]]}.get(where) or [fresh[where]]
    path = tmp_path / "store.xml"
    path.write_bytes(data)
    out = io.BytesIO()
    with esdp.cli._open_store(str(path)) as store:
        merge_update(store, fresh, "u", 3, out)
    assert out.getvalue() == merge_update_spec(data, fresh, "u", 3)


class _RecordingStore(io.BytesIO):
    """A store that records the size asked of each read."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.reads: list[int | None] = []

    def read(self, size: int | None = -1) -> bytes:
        self.reads.append(size)
        return super().read(size)


@pytest.mark.parametrize("where", ["none", "all"])
def test_merge_update_streams_the_store(where):
    # The store is never read whole: the runs of kept blocks are copied in
    # reads of at most _CHUNK bytes; with nothing fresh one run is the store.
    repo = _large_store(1_200)
    data = serialize(repo)
    chunk = esdp.repository._CHUNK
    assert len(data) >= 4 * chunk
    fresh = list(_fresh_around(repo).values()) if where == "all" else []
    store = _RecordingStore(data)
    out = io.BytesIO()
    merge_update(store, fresh, "u", 3, out)
    assert out.getvalue() == merge_update_spec(data, fresh, "u", 3)
    assert store.reads and all(size is not None and 0 <= size <= chunk for size in store.reads)
    # the copies read nearly all of the store, in more reads than one
    assert sum(store.reads) > len(data) - 2 * chunk and len(store.reads) >= 4


class _CutShortStore(io.BytesIO):
    """A store cut to its first half when it is first sought, as a writer
    other than esdp's atomic replace could cut it during an update."""

    def seek(self, *args) -> int:
        if not getattr(self, "cut", False):
            self.cut = True
            self.truncate(len(self.getvalue()) // 2)
        return super().seek(*args)


def test_merge_update_refuses_a_store_cut_short_after_its_check():
    repo = _large_store(1_200)
    with pytest.raises(SchemaViolation, match="the store was cut short while it was updated"):
        merge_update(_CutShortStore(serialize(repo)), [_fresh_around(repo)["after-last"]], "u", 3,
                     io.BytesIO())


def _swap_blocks(data: bytes, j: int) -> bytes:
    """data with its pattern blocks j and j + 1 (from 0) swapped."""
    blocks = re.split(rb"(?m)^(?=    <pattern |  </patterns>)", data)
    blocks[j + 1], blocks[j + 2] = blocks[j + 2], blocks[j + 1]
    return b"".join(blocks)


@pytest.mark.parametrize("elements,counts", [
    ((("x()",), ("y()",)), (3, 2)),          # different rankings
    ((("x()",), ("y()", "z()")), (2, 1)),    # equal rankings, different supports
    ((("x()",), ("y()",)), (2, 2)),          # equal rankings and supports: names decide
])
def test_update_refuses_a_store_out_of_ranking_order(elements, counts):
    patterns = [pattern_of(names, count=c, size=4) for names, c in zip(elements, counts)]
    first = pattern_of(["w()"], count=4, size=4)
    repo = make_repository(patterns + [first], "c", "t", 1)
    assert repo.patterns[1:] == tuple(patterns)
    swapped = _swap_blocks(serialize(repo), 1)
    assert parse(swapped).patterns == (first, patterns[1], patterns[0])  # parse checks no order
    with pytest.raises(SchemaViolation) as err:
        _update(swapped, [], "t", 1)
    heads = [n for n, text in enumerate(swapped.split(b"\n"), 1)
             if text.startswith(b"    <pattern ")]
    line = heads[2]
    assert str(err.value) == (f"/esdp-repository/patterns/pattern[3]: line {line}: "
                              "pattern ranks above pattern[2]: stored patterns must be in "
                              "ranking order")


def test_text_utf8_cannot_encode_is_refused_by_its_repr():
    # a lone surrogate, as a path that is not UTF-8 decodes to
    with pytest.raises(ValueError) as err:
        serialize(make_repository([], "d\udcff", "t", 1))
    assert str(err.value) == "repository metadata 'd\\udcff' cannot be encoded as UTF-8"
    store = serialize(make_repository([pattern_of(["a()"])], "c", "t", 1))
    with pytest.raises(ValueError) as err:
        _update(store, [pattern_of(["b\udcff()"])], "t", 1)
    assert str(err.value) == "item name 'b\\udcff()' cannot be encoded as UTF-8"
    with pytest.raises(ValueError, match="repository metadata 't\\\\udcff'"):
        _update(store, [], "t\udcff", 1)


def test_store_fault_wins_over_a_fresh_name_utf8_cannot_encode():
    store = serialize(make_repository([pattern_of(["x()"], count=3), pattern_of(["y()"])],
                                      "c", "t", 1))
    fresh = [pattern_of(["z\udcff()"], count=4)]  # ranks above every stored block
    for bad in (store.replace(b"y()", b"y\xff()"), _swap_blocks(store, 0)):
        with pytest.raises(SchemaViolation):
            _update(bad, fresh, "t", 1)


@pytest.mark.parametrize("seed", range(5))
def test_make_repository_orders_unsorted_input(seed):
    rng = random.Random(seed)
    db = random_sequence_db(rng)
    mined = mine_prefixspan(db, 1)
    unsorted = list(mined) + rng.sample(list(mined), min(3, len(mined)))  # with repeats
    rng.shuffle(unsorted)
    expected = tuple(sort_patterns(mined))
    assert len({p.elements for p in expected}) == len(expected)  # mined: no repeats
    assert make_repository(mined).patterns == expected  # kept as mined, without a sort
    assert make_repository(unsorted).patterns == expected
    assert make_repository(reversed(expected)).patterns == expected


def test_sorted_by_ranking_after_every_operation():
    rng = random.Random(9)
    for _ in range(10):
        repo = random_repo(rng)
        rankings = [p.ranking for p in repo.patterns]
        assert rankings == sorted(rankings, reverse=True)
        merged = parse(_merged(repo, [pattern_of(["fresh()"], count=1, size=9)]))
        rankings = [p.ranking for p in merged.patterns]
        assert rankings == sorted(rankings, reverse=True)


# --- mutation fuzzing ------------------------------------------------------------

def _sub_once(text: str, pattern: str, repl: str) -> str | None:
    out, n = re.subn(pattern, repl, text, count=1)
    return out if n else None


def mutate(doc: str, which: int, rng: random.Random) -> str | None:
    """Return a schema-violating variant of a valid document, or None when
    the chosen mutation does not apply."""
    mutators = [
        lambda d: d.replace("esdp-repository", "esdp-storage"),
        lambda d: _sub_once(d, r'version="1"', 'version="2"'),
        lambda d: _sub_once(d, r' min-support="\d+"', ""),
        lambda d: _sub_once(d, r'<esdp-repository ', '<esdp-repository bogus="1" '),
        lambda d: (_sub_once(_sub_once(d, r"<support ", "<supprt ") or "",
                             r"</support>", "</supprt>") if "<support " in d else None),
        lambda d: _sub_once(d, r'num="\d+"', 'num="abc"'),
        lambda d: _sub_once(d, r'num="(\d+)" den="(\d+)"', r'num="99999" den="\2"'),
        lambda d: _sub_once(d, r'kind="[A-Z]+" k=', 'kind="ZZ" k='),
        lambda d: _sub_once(d, r' k="(\d+)">', ' k="99">'),
        lambda d: _sub_once(d, r'<s i="1"', '<s i="7"'),
        lambda d: _sub_once(d, r'<s i="1" kind="[A-Z]+">[^<]+</s>',
                            '<s i="1" kind="MI"></s>'),
        lambda d: _sub_once(d, r"<ranking>(\d)", r"<ranking>9\1"),
        lambda d: _sub_once(d, r">(\d)\.(\d\d)</support>", r">\1.9\2</support>"),
        lambda d: _sub_once(d, r"<sequence>", "<extra/><sequence>"),
        lambda d: _sub_once(d, r"<patterns>", "<patterns>stray text"),
        lambda d: d[: len(d) // 2] if len(d) > 40 else None,
        _duplicate_first_pattern,
        lambda d: _sub_once(d, r'<confidence num="(\d+)"', '<confidence num="1000001"'),
    ]
    return mutators[which % len(mutators)](doc)


def _duplicate_first_pattern(doc: str) -> str | None:
    m = re.search(r"( *<pattern .*?</pattern>\n)", doc, re.DOTALL)
    if not m:
        return None
    block = m.group(1)
    return doc.replace(block, block + block, 1)


def mutated_documents():
    """Schema-violating variants of random mined stores: 120 tries, taking
    each mutator in turn, of which those that apply."""
    rng = random.Random(31)
    produced = 0
    while produced < 120:
        repo = random_repo(rng)
        if not repo.patterns:
            continue
        doc = serialize(repo).decode()
        mutant = mutate(doc, produced, rng)
        produced += 1
        if mutant is not None and mutant != doc:
            yield mutant.encode()


def test_mutated_documents_rejected():
    rejected = 0
    for mutant in mutated_documents():
        with pytest.raises(SchemaViolation):
            parse(mutant)
        rejected += 1
    assert rejected >= 100
