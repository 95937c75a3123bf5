"""Single entry point wiring the pipeline: extraction, mining, repository
persistence and update, querying with skeleton output, groum mining, and
metric evaluation.

Exit status: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import groum as groum_mod
from . import metrics
from .extractor import UnparsableSource, dump_items, extract_corpus
from .mining import InvalidThreshold, adaptive_mine, mine_prefixspan
from .query import (
    QueryContext,
    UnparsableQuery,
    abstract_query,
    render_skeleton,
    search,
)
from .repository import (
    SchemaViolation,
    make_repository,
    merge_update,
    parse,
    serialize,
    two_dp,
)
from .transactions import build_sequence_db

_DOMAIN_ERRORS = (
    UnparsableSource,
    UnparsableQuery,
    SchemaViolation,
    InvalidThreshold,
    groum_mod.MalformedControlNesting,
    metrics.UndefinedMetric,
    metrics.DegenerateLabels,
    OSError,
    ValueError,
)


def _repo_path(args: argparse.Namespace) -> str:
    return args.repo or os.environ.get("ESDP_REPO", "esdp-repo.xml")


def _created_stamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    when = datetime.fromtimestamp(int(epoch), tz=timezone.utc) if epoch \
        else datetime.now(tz=timezone.utc)
    return when.strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_atomic(path: str, data: bytes) -> None:
    """Replace path with data in one step: a failure at any point leaves the
    previous file whole and no temporary file behind."""
    target = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    except OSError as exc:
        # name the store, not the temporary file that could not be made
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _extract(args: argparse.Namespace):
    """(items, markers) of the corpus directories, which must exist."""
    for d in args.corpus:
        if not Path(d).exists():
            raise FileNotFoundError(f"corpus path not found: {d}")
    return extract_corpus(args.corpus, args.ext)


# --- commands ---------------------------------------------------------------------

def _cmd_extract(args: argparse.Namespace) -> str:
    items, _ = _extract(args)
    return dump_items(items)


def _mine_patterns(args: argparse.Namespace):
    """(patterns, the min-support they were mined at, number of method
    sequences); the sequence database is not kept past mining."""
    items, _ = _extract(args)
    db = build_sequence_db(items)
    if args.adaptive:
        patterns = adaptive_mine(db, args.max_patterns)
        return patterns, patterns.min_support, len(db.records)
    return mine_prefixspan(db, args.min_support), args.min_support, len(db.records)


def _cmd_mine(args: argparse.Namespace) -> str:
    patterns, min_support, sequences = _mine_patterns(args)
    label = args.corpus_label or ";".join(args.corpus)
    repo = make_repository(patterns, corpus_label=label, created_at=_created_stamp(),
                           min_support_used=min_support)
    path = _repo_path(args)
    _write_atomic(path, serialize(repo))
    return f"mined {len(repo.patterns)} patterns from {sequences} method sequences -> {path}"


def _cmd_update(args: argparse.Namespace) -> str:
    # The store is read after mining, so that the sequence database is gone
    # when the store is checked and spliced.
    path = _repo_path(args)
    patterns, min_support, sequences = _mine_patterns(args)
    _write_atomic(path, merge_update(Path(path).read_bytes(), patterns, _created_stamp(),
                                     min_support))
    return (f"updated {path} with {len(patterns)} fresh patterns at min-support {min_support} "
            f"({sequences} fresh method sequences)")


def _format_rec_rows(recs) -> list[list[str]]:
    rows = []
    for rank, rec in enumerate(recs, start=1):
        p = rec.pattern
        head = " ".join(name for _, name in p.elements[:3])
        if p.k > 3:
            head += " ..."
        count = p.support_count
        rows.append([str(rank), str(p.k), two_dp(count, p.db_size),
                     two_dp(count, p.prefix_count), two_dp(p.k * count, p.db_size), head])
    return rows


def _csv_lines(header: list[str], rows: list[list[str]]) -> list[str]:
    """The header and rows as CSV lines; a cell holding a comma is quoted."""
    return [",".join(header)] + [",".join(f'"{c}"' if "," in c else c for c in row)
                                 for row in rows]


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    fmt_row = lambda row: "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
    lines = [fmt_row(header), fmt_row(["-" * w for w in widths])]
    lines += [fmt_row(r) for r in rows]
    return "\n".join(lines)


def _query_context(args: argparse.Namespace) -> QueryContext:
    return QueryContext(variables=dict(args.var), imports=list(args.imports))


def _cmd_query(args: argparse.Namespace) -> str:
    if not args.statement:
        raise ValueError("no query statement given")
    started = time.perf_counter()
    repo = parse(Path(_repo_path(args)).read_bytes())
    q = abstract_query(args.statement, _query_context(args))
    recs = search(q, repo, args.top)
    elapsed = time.perf_counter() - started
    out: list[str] = []
    header = ["rank", "k", "support", "confidence", "ranking", "sequence"]
    rows = _format_rec_rows(recs)
    if args.format == "csv":
        out += _csv_lines(header, rows)
    else:
        out.append(f"query item: {q.item[0]} {q.item[1]}")
        out.append(_render_table(header, rows) if rows else "no recommendation")
    if recs:
        pick = args.pick
        if pick == 0:
            if sys.stdin.isatty():
                choice = input(f"select recommendation 1..{len(recs)}: ").strip()
                pick = int(choice) if choice.isdigit() else 1
            else:
                pick = 1
        if not 1 <= pick <= len(recs):
            raise ValueError(f"--pick {pick} out of range 1..{len(recs)}")
        skeleton = render_skeleton(recs[pick - 1], q)
        if args.out:
            Path(args.out).write_text(skeleton + "\n", encoding="utf-8")
            out.append(f"skeleton -> {args.out}")
        else:
            out.append("--- skeleton ---")
            out.append(skeleton if skeleton else "(nothing to add)")
    if args.time:
        out.append(f"query time: {elapsed * 1000:.1f} ms")
    return "\n".join(out)


def _cmd_groum(args: argparse.Namespace) -> str:
    items, markers = _extract(args)
    groums = groum_mod.build_groums_for_methods(items, markers)
    patterns = groum_mod.patt_explorer(groums, args.sigma)
    out = []
    for g in groums:
        out.append(f"# {g.origin}")
        out.append(groum_mod.dump_groum(g))
        out.append("")
    out.append(f"patterns (sigma={args.sigma}): {len(patterns)}")
    for p in patterns:
        flag = "" if p.frequency_is_exact else " (lower bound)"
        out.append(f"pattern size={p.size} f={p.frequency}{flag}")
        out.append(groum_mod.dump_groum(p.representative))
        out.append("")
    return "\n".join(out).rstrip()


def _parse_gold_line(line: str, where: str) -> tuple[str, list[str], int | None]:
    parts = line.rstrip("\n").split("\t")
    if len(parts) < 2 or not parts[0].strip() or not parts[1].strip():
        raise ValueError(f"{where}: malformed gold line: {line!r}")
    statement = parts[0].strip()
    gold_items = parts[1].split()
    label: int | None = None
    if len(parts) >= 3 and parts[2].strip():
        if parts[2].strip() not in ("0", "1"):
            raise ValueError(f"{where}: gold label must be 0 or 1: {line!r}")
        label = int(parts[2].strip())
    return statement, gold_items, label


def _cmd_eval(args: argparse.Namespace) -> str:
    if not args.gold:
        raise ValueError("no gold file given")
    repo = parse(Path(_repo_path(args)).read_bytes())
    ctx = _query_context(args)
    rows: list[list[str]] = []
    prs: list[tuple[Fraction, Fraction]] = []
    labeled_scores: list[tuple[float, int]] = []
    data = Path(args.gold).read_bytes()
    try:
        gold = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.gold}: not UTF-8 at byte offset {exc.start}") from None
    for lineno, line in enumerate(gold.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        statement, gold_items, label = _parse_gold_line(line, f"{args.gold}:{lineno}")
        q = abstract_query(statement, ctx)
        recs = search(q, repo, 1)
        if recs:
            recommended = [name for _, name in recs[0].pattern.elements]
            p, r = metrics.sequence_pr(recommended, gold_items)
            score = recs[0].score
        else:
            p, r, score = Fraction(0), Fraction(0), Fraction(0)
        prs.append((p, r))
        if label is not None:
            labeled_scores.append((float(score), label))
        rows.append([statement, str(len(recs)),
                     *(two_dp(*x.as_integer_ratio()) for x in (p, r, score))])
    if not rows:
        raise ValueError("gold file holds no queries")
    mean_p, mean_r = (two_dp(*x.as_integer_ratio()) for x in metrics.average_pr(prs))
    out = []
    header = ["query", "matched", "precision", "recall", "score"]
    if args.format == "csv":
        out += _csv_lines(header, rows)
        out.append(f"mean,,{mean_p},{mean_r},")
    else:
        out.append(_render_table(header, rows))
        out.append(f"mean precision {mean_p}  mean recall {mean_r}")
    if labeled_scores and len({lab for _, lab in labeled_scores}) == 2:
        points = metrics.roc_points(labeled_scores)
        auc = metrics.auc_trapezoid(points)
        if args.format == "csv":
            out.append("fpr,tpr")
            out += [f"{float(x):.4f},{float(y):.4f}" for x, y in points]
            out.append(f"auc,{float(auc):.4f}")
        else:
            out.append("ROC points: " + " ".join(
                f"({float(x):.2f},{float(y):.2f})" for x, y in points))
            out.append(f"AUC {float(auc):.4f}")
    return "\n".join(out)


_COMMANDS = {
    "extract": _cmd_extract,
    "mine": _cmd_mine,
    "update": _cmd_update,
    "query": _cmd_query,
    "groum": _cmd_groum,
    "eval": _cmd_eval,
}


# --- argument parsing -----------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _binding(text: str) -> tuple[str, str]:
    name, sep, type_name = text.partition("=")
    if not sep or not name or not type_name:
        raise argparse.ArgumentTypeError(f"expected NAME=TYPE, got {text!r}")
    return name, type_name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esdp",
        description="API usage pattern mining and code recommendation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def corpus_opts(p):
        p.add_argument("--corpus", action="append", required=True, metavar="DIR",
                       help="corpus directory (repeatable)")
        p.add_argument("--ext", default=".java", help="source extension filter")

    def repo_opt(p):
        p.add_argument("--repo", default="", metavar="FILE",
                       help="repository path (default: $ESDP_REPO or esdp-repo.xml)")

    def context_opts(p):
        p.add_argument("--var", action="append", default=[], type=_binding,
                       metavar="NAME=TYPE", help="context variable binding (repeatable)")
        p.add_argument("--import", dest="imports", action="append", default=[],
                       metavar="QNAME", help="context import (repeatable)")

    p = sub.add_parser("extract", help="dump the abstracted item stream")
    corpus_opts(p)

    def mining_opts(p):
        corpus_opts(p)
        repo_opt(p)
        p.add_argument("--min-support", type=_positive_int, default=2)
        p.add_argument("--adaptive", action="store_true",
                       help="pick min-support dynamically under --max-patterns")
        p.add_argument("--max-patterns", type=_positive_int, default=50)

    p = sub.add_parser("mine", help="mine a corpus into a pattern repository")
    mining_opts(p)
    p.add_argument("--corpus-label", default="")

    p = sub.add_parser("update", help="merge a fresh mine into an existing repository")
    mining_opts(p)

    p = sub.add_parser("query", help="recommend sequences for one statement")
    repo_opt(p)
    context_opts(p)
    p.add_argument("--top", type=_positive_int, default=5)
    p.add_argument("--pick", type=int, default=0,
                   help="recommendation to render (1..N; 0: ask on a terminal, else 1)")
    p.add_argument("--out", default="", help="write the skeleton to a file")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--time", action="store_true", help="print wall-clock per query")
    p.add_argument("statement")

    p = sub.add_parser("groum", help="build object usage graphs and mine subgraph patterns")
    corpus_opts(p)
    p.add_argument("--sigma", type=_positive_int, default=2)

    p = sub.add_parser("eval", help="score recommendations against a gold file")
    repo_opt(p)
    context_opts(p)
    p.add_argument("--gold", required=True, metavar="FILE")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status, report = 0, _COMMANDS[args.command](args)
    except _DOMAIN_ERRORS as exc:
        status, report = 1, f"{type(exc).__name__}: {exc}"
    print(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
