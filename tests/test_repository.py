from __future__ import annotations

import random
import re
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_sequence_db
from esdp.items import ItemKind
from esdp.mining import SequentialPattern, mine_prefixspan
from esdp.repository import (
    MinedRepository,
    SchemaViolation,
    make_repository,
    merge_update,
    parse,
    serialize,
    two_dp,
)

FIG35_ELEMENTS = (
    ("MI", "dom.ASTParser.newParser(int)"),
    ("MI", "aSTParser.setKind(int)"),
    ("MI", "aSTParser.setSource(org.eclipse.jdt.core.ICompilationUnit)"),
    ("MI", "aSTParser.setResolveBindings(boolean)"),
    ("MI", "aSTParser.createAST(null)"),
)


def fig35_pattern() -> SequentialPattern:
    return SequentialPattern(FIG35_ELEMENTS, 7, Fraction(7, 12), Fraction(7, 7),
                             5 * Fraction(7, 12))


def pattern_of(names, count=2, size=4, kind="MI") -> SequentialPattern:
    elements = tuple((kind, n) for n in names)
    ratio = Fraction(count, size)
    return SequentialPattern(elements, count, ratio, Fraction(1), len(elements) * ratio)


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


@pytest.mark.parametrize("name", [" x", "a\nb", "a\x01b"])
def test_unreadable_item_name_refused_at_write(name):
    with pytest.raises(ValueError, match="item name"):
        serialize(make_repository([pattern_of(["ok()", name])]))


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
        ratio = Fraction(count, size)
        confidence = (Fraction(1) if len(elements) == 1
                      else Fraction(count, draw(st.integers(count, size))))
        patterns.append(SequentialPattern(elements, count, ratio, confidence,
                                          len(elements) * ratio))
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


@settings(max_examples=150, deadline=None)
@given(repositories(), _EDITS)
def test_single_byte_edits_rejected_or_canonical(repo, edits):
    doc = serialize(repo)
    for edit, pos, byte in edits:
        if edit == "insert":
            pos %= len(doc) + 1
            mutant = doc[:pos] + bytes([byte]) + doc[pos:]
        elif edit == "replace":
            pos %= len(doc)
            mutant = doc[:pos] + bytes([byte]) + doc[pos + 1:]
        elif edit == "delete":
            pos %= len(doc)
            mutant = doc[:pos] + doc[pos + 1:]
        else:
            mutant = doc[:pos % len(doc)]
        _accepted_only_if_canonical(mutant)


def test_merge_with_nothing_is_identity():
    repo = make_repository([fig35_pattern()], "c", "t", 2)
    assert merge_update(repo, []) == repo


def test_merge_rescoring_updates_only_that_pattern():
    a = pattern_of(["x()", "y()"], count=2, size=4)
    b = pattern_of(["z()"], count=3, size=4)
    repo = make_repository([a, b], "c", "t", 1)
    rescored = pattern_of(["x()", "y()"], count=3, size=4)
    merged = merge_update(repo, [rescored])
    by_elements = {p.elements: p for p in merged.patterns}
    assert by_elements[a.elements].support_count == 3
    assert by_elements[b.elements] == b
    assert len(merged.patterns) == 2


def test_merge_adds_disjoint_pattern_and_resorts():
    a = pattern_of(["x()"], count=1, size=4)
    repo = make_repository([a], "c", "t", 1)
    fresh = pattern_of(["p()", "q()", "r()"], count=4, size=4)
    merged = merge_update(repo, [fresh])
    assert len(merged.patterns) == 2
    assert merged.patterns[0].elements == fresh.elements  # ranking 3.0 first


def test_merge_full_replacement_drops_existing():
    repo = make_repository([fig35_pattern()], "c", "t", 2)
    fresh = pattern_of(["only()"])
    merged = merge_update(repo, [fresh], full_replacement=True)
    assert [p.elements for p in merged.patterns] == [fresh.elements]


def test_sorted_by_ranking_after_every_operation():
    rng = random.Random(9)
    for _ in range(10):
        repo = random_repo(rng)
        rankings = [p.ranking for p in repo.patterns]
        assert rankings == sorted(rankings, reverse=True)
        merged = merge_update(repo, [pattern_of(["fresh()"], count=1, size=9)])
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


def test_mutated_documents_rejected():
    rng = random.Random(31)
    rejected = 0
    produced = 0
    while produced < 120:
        repo = random_repo(rng)
        if not repo.patterns:
            continue
        doc = serialize(repo).decode()
        mutant = mutate(doc, produced, rng)
        if mutant is None or mutant == doc:
            produced += 1
            continue
        produced += 1
        with pytest.raises(SchemaViolation):
            parse(mutant.encode())
        rejected += 1
    assert rejected >= 100
