from __future__ import annotations

import random
import re
import sys
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_sequence_db, write_fixture_corpus
from esdp.extractor import extract_corpus
from esdp.items import ItemKind
from esdp.mining import SequentialPattern, adaptive_mine, mine_prefixspan, sort_patterns
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
from oracles import NAME_REFERENCE, merge_update_reference, parse_reference, serialize_reference

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
        st.lists(st.tuples(st.sampled_from([k.value for k in ItemKind]), _NAMES),
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


# --- the per-call line memo against the reference codec --------------------------

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


@settings(max_examples=150, deadline=None)
@given(repositories(), _EDITS)
def test_parse_agrees_with_reference_on_edits(repo, edits):
    doc = serialize(repo)
    _agrees_with_reference(doc)
    for edit in edits:
        _agrees_with_reference(_edit(doc, *edit))


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
    assert serialize(repo) == serialize_reference(repo)


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


# --- incremental update: the splice against the reference merge -------------------

def _merged(repo: MinedRepository, fresh, created_at: str = "u",
            min_support_used: int = 3) -> bytes:
    """merge_update on the bytes of repo, which must equal what serialize
    writes for the reference merge."""
    data = merge_update(serialize(repo), fresh, created_at, min_support_used)
    assert data == serialize(merge_update_reference(repo, fresh, created_at, min_support_used))
    return data


def test_merge_with_nothing_is_identity():
    repo = make_repository([fig35_pattern()], "c", "t", 2)
    assert merge_update_reference(repo, []) == repo
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
    once = merge_update_reference(repo, fresh)
    assert merge_update_reference(once, fresh) == once
    once = _merged(repo, fresh)
    assert merge_update(once, fresh, "u", 3) == once


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
        merge_update(swapped, [], "t", 1)
    heads = [n for n, text in enumerate(swapped.split(b"\n"), 1)
             if text.startswith(b"    <pattern ")]
    line = heads[2]
    assert str(err.value) == (f"/esdp-repository/patterns/pattern[3]: line {line}: "
                              "pattern ranks above pattern[2]: stored patterns must be in "
                              "ranking order")


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
