"""Self-test of the benchmark's checks: each accepts esdp's real output on a
small generated corpus and rejects a deliberately wrong copy of it.

    python3 -m pytest perfbench/test_checks.py     (or: python3 perfbench/test_checks.py)
"""

from __future__ import annotations

import atexit
import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from esdp.cli import main as esdp_main  # noqa: E402

SEED = 7
MIN_SUPPORT = 8
SIGMA = 8
_CACHE: dict = {}


def _esdp(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert esdp_main(list(argv)) == 0
    return out.getvalue()


def inputs() -> dict:
    """Small corpora and esdp's outputs on them, made once per test run."""
    if _CACHE:
        return _CACHE
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    work = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
    atexit.register(shutil.rmtree, work, ignore_errors=True)
    corpus = gen.write_inputs(work / "c", SEED, 12, 5, queries=15)
    fresh = gen.write_inputs(work / "f", SEED + 1, 8, 5)
    _esdp("mine", "--corpus", str(work / "c" / "corpus"), "--repo", str(work / "m.xml"),
          "--min-support", str(MIN_SUPPORT))
    (work / "u.xml").write_bytes((work / "m.xml").read_bytes())
    _esdp("update", "--adaptive", "--corpus", str(work / "f" / "corpus"),
          "--repo", str(work / "u.xml"))
    queries = []
    for q in corpus["queries"]:
        argv = ["query", "--repo", str(work / "m.xml"), "--top", str(q["top"]), "--pick", "1"]
        argv += [f"--var={v}={t}" for v, t in q["vars"].items()]
        argv += [f"--import={name}" for name in q["imports"]]
        queries.append((q, _esdp(*argv, q["statement"])))
    _CACHE.update(
        work=work, methods=corpus["methods"], fresh=fresh["methods"],
        mined=(work / "m.xml").read_bytes(), updated=(work / "u.xml").read_bytes(),
        queries=queries,
        groum=_esdp("groum", "--corpus", str(work / "c" / "corpus"), "--sigma", str(SIGMA)),
    )
    return _CACHE


def write_store(header: dict, patterns: list[dict]) -> bytes:
    """Store bytes from checks.read_store's form (not esdp's serializer)."""
    out = ["<esdp-repository " + " ".join(f"{k}={quoteattr(v)}" for k, v in header.items())
           + ">", "<patterns>"]
    for p in patterns:
        support, confidence, ranking = p["texts"]
        out.append(f'<pattern kind="{p["elements"][0][0]}" k="{len(p["elements"])}">'
                   f'<support num="{p["num"]}" den="{p["den"]}">{support}</support>'
                   f'<confidence num="{p["cnum"]}" den="{p["cden"]}">{confidence}</confidence>'
                   f'<ranking>{ranking}</ranking><sequence>')
        out += [f'<s i="{i}" kind="{kind}">{escape(name)}</s>'
                for i, (kind, name) in enumerate(p["elements"], start=1)]
        out.append("</sequence></pattern>")
    out.append("</patterns></esdp-repository>")
    return "\n".join(out).encode("utf-8")


def _redisplay(p: dict) -> None:
    from fractions import Fraction

    p["texts"] = (checks.two_dp(Fraction(p["num"], p["den"])),
                  checks.two_dp(Fraction(p["cnum"], p["cden"])), checks.two_dp(checks.ranking(p)))


def _mine_problems(data: bytes) -> list[str]:
    d = inputs()
    return checks.check_mined_store(d["methods"], data, MIN_SUPPORT, SEED, sample=10**6)


# --- mine-corpus ----------------------------------------------------------------------

def test_extraction_matches_record():
    d = inputs()
    assert checks.check_extraction(d["methods"], str(d["work"] / "c" / "corpus")) == []
    wrong = [dict(m, items=m["items"][:-1]) if i == 3 else m for i, m in enumerate(d["methods"])]
    assert checks.check_extraction(wrong, str(d["work"] / "c" / "corpus"))


def test_mined_store_accepted():
    header, patterns = checks.read_store(inputs()["mined"])
    assert len(patterns) > 50
    assert _mine_problems(inputs()["mined"]) == []
    assert _mine_problems(write_store(header, patterns)) == []


def test_support_off_by_one_rejected():
    header, patterns = checks.read_store(inputs()["mined"])
    p = next(p for p in patterns if len(p["elements"]) >= 3)
    p["num"] += 1
    p["cnum"] += 1
    _redisplay(p)  # consistent display, so only the recount can catch it
    assert any("recount" in problem for problem in _mine_problems(write_store(header, patterns)))


def test_dropped_frequent_pair_rejected():
    header, patterns = checks.read_store(inputs()["mined"])
    drop = next(i for i, p in enumerate(patterns) if len(p["elements"]) == 2)
    del patterns[drop]
    assert any("2-sequences" in problem
               for problem in _mine_problems(write_store(header, patterns)))


def test_swapped_ranks_rejected():
    header, patterns = checks.read_store(inputs()["mined"])
    i = next(i for i in range(len(patterns) - 1)
             if checks.ranking(patterns[i]) != checks.ranking(patterns[i + 1]))
    patterns[i], patterns[i + 1] = patterns[i + 1], patterns[i]
    assert any("order" in problem for problem in _mine_problems(write_store(header, patterns)))


# --- update-adaptive ------------------------------------------------------------------

def test_updated_store_accepted_and_wrong_fresh_support_rejected():
    d = inputs()
    assert checks.check_updated_store(d["mined"], d["fresh"], d["updated"], 50) == []
    header, patterns = checks.read_store(d["updated"])
    fresh_den = len(d["fresh"])
    p = next(p for p in patterns if p["den"] == fresh_den)
    p["num"] -= 1
    p["cnum"] -= 1
    _redisplay(p)
    assert checks.check_updated_store(d["mined"], d["fresh"], write_store(header, patterns), 50)


def test_updated_store_missing_base_pattern_rejected():
    d = inputs()
    header, patterns = checks.read_store(d["updated"])
    del patterns[-1]
    assert checks.check_updated_store(d["mined"], d["fresh"], write_store(header, patterns), 50)


def test_capped_miner_threshold_is_smallest_that_fits():
    seqs = list(checks.record_sequences(inputs()["fresh"]).values())
    threshold, found = checks.adaptive_threshold(seqs, 50)
    assert 0 < len(found) <= 50
    assert threshold == 1 or checks.mine_capped(seqs, threshold - 1, 50) is None


# --- query-cold -----------------------------------------------------------------------

def test_query_outputs_accepted():
    d = inputs()
    _, patterns = checks.read_store(d["mined"])
    for q, text in d["queries"]:
        assert checks.check_query_output(patterns, q, text) == [], text


def test_query_swapped_rows_rejected():
    d = inputs()
    _, patterns = checks.read_store(d["mined"])
    for q, text in d["queries"]:
        lines = text.split("\n")
        if len(lines) > 5 and lines[4].startswith("2 ") and lines[3][1:] != lines[4][1:]:
            # two recommendations change places; the rank column stays
            lines[3], lines[4] = "1" + lines[4][1:], "2" + lines[3][1:]
            assert checks.check_query_output(patterns, q, "\n".join(lines))
            return
    raise AssertionError("no query output with two different rows")


def test_query_wrong_skeleton_rejected():
    d = inputs()
    _, patterns = checks.read_store(d["mined"])
    q, text = next((q, t) for q, t in d["queries"]
                   if "--- skeleton ---" in t and not t.rstrip().endswith("(nothing to add)"))
    assert checks.check_query_output(patterns, q, text.rstrip("\n").rsplit("\n", 1)[0] + "\n")


# --- groum-mine -----------------------------------------------------------------------

def _groum_problems(text: str) -> list[str]:
    return checks.check_groum_output(inputs()["methods"], text, SIGMA, SEED, sample=10**6)


def _bump_frequency(text: str, size: int) -> str:
    lines = text.split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(f"pattern size={size} "))
    f = int(lines[i].split()[2][2:])
    lines[i] = lines[i].replace(f" f={f}", f" f={f + 1}", 1)
    return "\n".join(lines)


def test_groum_output_accepted():
    _, patterns = checks.parse_groum_report(inputs()["groum"])
    assert any(p["size"] >= 3 for p in patterns)
    assert _groum_problems(inputs()["groum"]) == []


def test_groum_frequency_off_by_one_rejected():
    for size in (1, 2, 3):
        assert _groum_problems(_bump_frequency(inputs()["groum"], size)), size


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
