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
from dataclasses import dataclass, field
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
    FileNotFoundError,
    ValueError,
)


@dataclass
class RunConfig:
    corpus_dirs: list[str] = field(default_factory=list)
    min_support: int = 2
    max_patterns: int = 50
    sigma: int = 2
    top_n: int = 5
    repo_path: str = ""
    corpus_label: str = ""
    adaptive: bool = False
    statement: str = ""
    pick: int = 0  # 0: interactive prompt when a terminal, else first
    context_vars: dict[str, str] = field(default_factory=dict)
    context_imports: list[str] = field(default_factory=list)
    gold_path: str = ""
    out_path: str = ""
    fmt: str = "table"  # table | csv
    show_time: bool = False
    ext: str = ".java"

    def resolved_repo_path(self) -> str:
        return self.repo_path or os.environ.get("ESDP_REPO", "esdp-repo.xml")


def _created_stamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    when = datetime.fromtimestamp(int(epoch), tz=timezone.utc) if epoch \
        else datetime.now(tz=timezone.utc)
    return when.strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_atomic(path: str, data: bytes) -> None:
    """Replace path with data in one step: a failure at any point leaves the
    previous file whole and no temporary file behind."""
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _require_corpus(config: RunConfig) -> None:
    if not config.corpus_dirs:
        raise ValueError("no corpus directories given")
    for d in config.corpus_dirs:
        if not Path(d).exists():
            raise FileNotFoundError(f"corpus path not found: {d}")


# --- commands ---------------------------------------------------------------------

def _cmd_extract(config: RunConfig) -> str:
    _require_corpus(config)
    items, _ = extract_corpus(config.corpus_dirs, config.ext)
    return dump_items(items)


def _mine_patterns(config: RunConfig):
    """(patterns, the min-support they were mined at, sequence database)."""
    _require_corpus(config)
    items, _ = extract_corpus(config.corpus_dirs, config.ext)
    db = build_sequence_db(items, corpus_label=config.corpus_label)
    if config.adaptive:
        patterns = adaptive_mine(db, config.max_patterns)
        return patterns, patterns.min_support, db
    return mine_prefixspan(db, config.min_support), config.min_support, db


def _cmd_mine(config: RunConfig) -> str:
    patterns, min_support, db = _mine_patterns(config)
    label = config.corpus_label or ";".join(config.corpus_dirs)
    repo = make_repository(patterns, corpus_label=label, created_at=_created_stamp(),
                           min_support_used=min_support)
    path = config.resolved_repo_path()
    _write_atomic(path, serialize(repo))
    return (f"mined {len(repo.patterns)} patterns from {len(db.records)} "
            f"method sequences -> {path}")


def _cmd_update(config: RunConfig) -> str:
    path = config.resolved_repo_path()
    existing = parse(Path(path).read_bytes())
    patterns, min_support, db = _mine_patterns(config)
    repo = merge_update(existing, patterns, created_at=_created_stamp(),
                        min_support_used=min_support)
    _write_atomic(path, serialize(repo))
    return (f"updated {path}: {len(existing.patterns)} -> {len(repo.patterns)} patterns "
            f"({len(db.records)} fresh method sequences)")


def _format_rec_rows(recs) -> list[list[str]]:
    rows = []
    for rank, rec in enumerate(recs, start=1):
        p = rec.pattern
        head = " ".join(name for _, name in p.elements[:3])
        if p.k > 3:
            head += " ..."
        rows.append([str(rank), str(p.k),
                     *(two_dp(*x.as_integer_ratio())
                       for x in (p.support_ratio, p.confidence, p.ranking)),
                     head])
    return rows


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    fmt_row = lambda row: "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
    lines = [fmt_row(header), fmt_row(["-" * w for w in widths])]
    lines += [fmt_row(r) for r in rows]
    return "\n".join(lines)


def _cmd_query(config: RunConfig) -> str:
    if not config.statement:
        raise ValueError("no query statement given")
    started = time.perf_counter()
    repo = parse(Path(config.resolved_repo_path()).read_bytes())
    ctx = QueryContext(variables=dict(config.context_vars),
                       imports=list(config.context_imports))
    q = abstract_query(config.statement, ctx)
    recs = search(q, repo, config.top_n)
    elapsed = time.perf_counter() - started
    out: list[str] = []
    header = ["rank", "k", "support", "confidence", "ranking", "sequence"]
    rows = _format_rec_rows(recs)
    if config.fmt == "csv":
        out.append(",".join(header))
        out += [",".join(f'"{c}"' if "," in c else c for c in row) for row in rows]
    else:
        out.append(f"query item: {q.item[0]} {q.item[1]}")
        out.append(_render_table(header, rows) if rows else "no recommendation")
    if recs:
        pick = config.pick
        if pick == 0:
            if sys.stdin.isatty():
                choice = input(f"select recommendation 1..{len(recs)}: ").strip()
                pick = int(choice) if choice.isdigit() else 1
            else:
                pick = 1
        if not 1 <= pick <= len(recs):
            raise ValueError(f"--pick {pick} out of range 1..{len(recs)}")
        skeleton = render_skeleton(recs[pick - 1], q)
        if config.out_path:
            Path(config.out_path).write_text(skeleton + "\n", encoding="utf-8")
            out.append(f"skeleton -> {config.out_path}")
        else:
            out.append("--- skeleton ---")
            out.append(skeleton if skeleton else "(nothing to add)")
    if config.show_time:
        out.append(f"query time: {elapsed * 1000:.1f} ms")
    return "\n".join(out)


def _cmd_groum(config: RunConfig) -> str:
    _require_corpus(config)
    items, markers = extract_corpus(config.corpus_dirs, config.ext)
    groums = groum_mod.build_groums_for_methods(items, markers)
    patterns = groum_mod.patt_explorer(groums, config.sigma)
    out = []
    for g in groums:
        out.append(f"# {g.origin}")
        out.append(groum_mod.dump_groum(g))
        out.append("")
    out.append(f"patterns (sigma={config.sigma}): {len(patterns)}")
    for p in patterns:
        flag = "" if p.frequency_is_exact else " (lower bound)"
        out.append(f"pattern size={p.size} f={p.frequency}{flag}")
        out.append(groum_mod.dump_groum(p.representative))
        out.append("")
    return "\n".join(out).rstrip()


def _parse_gold_line(line: str) -> tuple[str, list[str], int | None]:
    parts = line.rstrip("\n").split("\t")
    if len(parts) < 2 or not parts[0].strip() or not parts[1].strip():
        raise ValueError(f"malformed gold line: {line!r}")
    statement = parts[0].strip()
    gold_items = parts[1].split()
    label: int | None = None
    if len(parts) >= 3 and parts[2].strip():
        if parts[2].strip() not in ("0", "1"):
            raise ValueError(f"gold label must be 0 or 1: {line!r}")
        label = int(parts[2].strip())
    return statement, gold_items, label


def _cmd_eval(config: RunConfig) -> str:
    if not config.gold_path:
        raise ValueError("no gold file given")
    repo = parse(Path(config.resolved_repo_path()).read_bytes())
    ctx = QueryContext(variables=dict(config.context_vars),
                       imports=list(config.context_imports))
    rows: list[list[str]] = []
    prs: list[tuple[Fraction, Fraction]] = []
    labeled_scores: list[tuple[float, int]] = []
    for line in Path(config.gold_path).read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        statement, gold_items, label = _parse_gold_line(line)
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
    if config.fmt == "csv":
        out.append(",".join(header))
        out += [",".join(f'"{c}"' if "," in c else c for c in row) for row in rows]
        out.append(f"mean,,{mean_p},{mean_r},")
    else:
        out.append(_render_table(header, rows))
        out.append(f"mean precision {mean_p}  mean recall {mean_r}")
    if labeled_scores and len({lab for _, lab in labeled_scores}) == 2:
        points = metrics.roc_points(labeled_scores)
        auc = metrics.auc_trapezoid(points)
        if config.fmt == "csv":
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


def dispatch(command: str, config: RunConfig) -> tuple[int, str]:
    """Run one command; (exit status, report text)."""
    handler = _COMMANDS.get(command)
    if handler is None:
        return 2, f"unknown command {command!r}; valid: {', '.join(sorted(_COMMANDS))}"
    try:
        return 0, handler(config)
    except _DOMAIN_ERRORS as exc:
        return 1, f"{type(exc).__name__}: {exc}"


# --- argument parsing -----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esdp",
        description="API usage pattern mining and code recommendation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def corpus_opts(p):
        p.add_argument("--corpus", action="append", default=[], metavar="DIR",
                       help="corpus directory (repeatable)")
        p.add_argument("--ext", default=".java", help="source extension filter")

    def repo_opt(p):
        p.add_argument("--repo", default="", metavar="FILE",
                       help="repository path (default: $ESDP_REPO or esdp-repo.xml)")

    def context_opts(p):
        p.add_argument("--var", action="append", default=[], metavar="NAME=TYPE",
                       help="context variable binding (repeatable)")
        p.add_argument("--import", dest="imports", action="append", default=[],
                       metavar="QNAME", help="context import (repeatable)")

    p = sub.add_parser("extract", help="dump the abstracted item stream")
    corpus_opts(p)

    p = sub.add_parser("mine", help="mine a corpus into a pattern repository")
    corpus_opts(p)
    repo_opt(p)
    p.add_argument("--min-support", type=int, default=2)
    p.add_argument("--adaptive", action="store_true",
                   help="pick min-support dynamically under --max-patterns")
    p.add_argument("--max-patterns", type=int, default=50)
    p.add_argument("--corpus-label", default="")

    p = sub.add_parser("update", help="merge a fresh mine into an existing repository")
    corpus_opts(p)
    repo_opt(p)
    p.add_argument("--min-support", type=int, default=2)
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("--max-patterns", type=int, default=50)

    p = sub.add_parser("query", help="recommend sequences for one statement")
    repo_opt(p)
    context_opts(p)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--pick", type=int, default=0, help="recommendation to render (1..N)")
    p.add_argument("--out", default="", help="write the skeleton to a file")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--time", action="store_true", help="print wall-clock per query")
    p.add_argument("statement")

    p = sub.add_parser("groum", help="build object usage graphs and mine subgraph patterns")
    corpus_opts(p)
    p.add_argument("--sigma", type=int, default=2)

    p = sub.add_parser("eval", help="score recommendations against a gold file")
    repo_opt(p)
    context_opts(p)
    p.add_argument("--gold", required=True, metavar="FILE")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    config.corpus_dirs = list(getattr(args, "corpus", []))
    config.ext = getattr(args, "ext", ".java")
    config.repo_path = getattr(args, "repo", "")
    config.min_support = getattr(args, "min_support", 2)
    config.adaptive = getattr(args, "adaptive", False)
    config.max_patterns = getattr(args, "max_patterns", 50)
    config.sigma = getattr(args, "sigma", 2)
    config.top_n = getattr(args, "top", 5)
    config.pick = getattr(args, "pick", 0)
    config.statement = getattr(args, "statement", "")
    config.corpus_label = getattr(args, "corpus_label", "")
    config.gold_path = getattr(args, "gold", "")
    config.out_path = getattr(args, "out", "")
    config.fmt = getattr(args, "format", "table")
    config.show_time = getattr(args, "time", False)
    config.context_imports = list(getattr(args, "imports", []))
    for binding in getattr(args, "var", []):
        name, sep, type_name = binding.partition("=")
        if not sep or not name or not type_name:
            raise SystemExit(2)
        config.context_vars[name] = type_name
    if any(t < 1 for t in (config.min_support, config.max_patterns,
                           config.sigma, config.top_n)):
        raise SystemExit(2)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    if args.command in ("extract", "mine", "update", "groum") and not config.corpus_dirs:
        parser.error(f"{args.command} requires at least one --corpus DIR")
    status, report = dispatch(args.command, config)
    print(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
