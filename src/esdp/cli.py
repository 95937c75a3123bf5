"""Single entry point wiring the pipeline: extraction, mining, repository
persistence and update, querying with skeleton output, groum mining, and
metric evaluation.

Exit status: 0 success, 1 refused input (every esdp error is a ValueError,
and a refusal names its file), a failed file operation (OSError) or a
reader that closed standard output, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from .extractor import dump_items, extract_corpus
from .mining import adaptive_mine, mine_prefixspan
from .query import QueryContext, UnparsableQuery, abstract_query, render_skeleton, search
from .repository import SchemaViolation, make_repository, merge_update, parse, serialize, two_dp
from .transactions import build_sequence_db


def _repo_path(args: argparse.Namespace) -> str:
    return args.repo or os.environ.get("ESDP_REPO", "esdp-repo.xml")


# the seconds of 0001-01-01T00:00:00Z and 9999-12-31T23:59:59Z
_FIRST_STAMP, _LAST_STAMP = -62135596800, 253402300799


def _created_stamp() -> str:
    """The UTC time of SOURCE_DATE_EPOCH when set, else now; ValueError
    for a value that is not an integer within years 1..9999."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        seconds = int(epoch)
    except ValueError:
        seconds = None
    if seconds is None or not _FIRST_STAMP <= seconds <= _LAST_STAMP:
        raise ValueError(f"SOURCE_DATE_EPOCH must be an integer from {_FIRST_STAMP} to "
                         f"{_LAST_STAMP} (years 1..9999), got {epoch!r}")
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(seconds))


def _file_mode(path: Path) -> int:
    """The permission bits of the file at path, or those open() gives a new one."""
    try:
        return path.stat().st_mode & 0o777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _write_atomic(path: str, write) -> None:
    """Replace path with the file write(file) writes, in one step: a failure
    at any point leaves the previous file whole and no temporary file behind.
    The file keeps the permissions of the one it replaces."""
    import tempfile

    target = Path(path)
    mode = _file_mode(target)
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    except OSError as exc:
        # name the store, not the temporary file that could not be made
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as f:
            os.fchmod(fd, mode)
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


@contextmanager
def _open_store(path: str):
    """The store at path open for binary reading; a SchemaViolation raised
    while it is open names the store file, as a corpus refusal names its
    source file. update reads it a line at a time, so it is buffered in
    64 KiB reads, not in reads of the file system's block size."""
    with open(path, "rb", buffering=1 << 16) as store:
        try:
            yield store
        except SchemaViolation as exc:
            exc.args = (f"{path}: {exc}",)
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
    """(patterns, which carry the min-support they were mined at, number of
    method sequences); the sequence database is not kept past mining."""
    items, _ = _extract(args)
    db = build_sequence_db(items)
    patterns = (adaptive_mine(db, args.max_patterns or 50) if args.adaptive
                else mine_prefixspan(db, args.min_support))
    return patterns, len(db.records)


def _cmd_mine(args: argparse.Namespace) -> str:
    patterns, sequences = _mine_patterns(args)
    label = args.corpus_label or ";".join(args.corpus)
    repo = make_repository(patterns, corpus_label=label, created_at=_created_stamp(),
                           min_support_used=patterns.min_support)
    path = _repo_path(args)
    data = serialize(repo)
    _write_atomic(path, lambda out: out.write(data))
    return f"mined {len(repo.patterns)} patterns from {sequences} method sequences -> {path}"


def _cmd_update(args: argparse.Namespace) -> str:
    # The store is read after mining, so that the sequence database is gone
    # during the one pass that checks the store and writes the new one.
    path = _repo_path(args)
    patterns, sequences = _mine_patterns(args)
    stamp = _created_stamp()
    with _open_store(path) as store:
        _write_atomic(path, lambda out: merge_update(store, patterns, stamp,
                                                     patterns.min_support, out))
    return (f"updated {path} with {len(patterns)} fresh patterns at min-support "
            f"{patterns.min_support} ({sequences} fresh method sequences)")


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


def _csv_cell(cell: str) -> str:
    """cell as RFC 4180 writes it: quoted when it holds a comma, a double
    quote or a line break, each double quote in it doubled."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_lines(header: list[str], rows: list[list[str]]) -> list[str]:
    """The header and rows as CSV lines."""
    return [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]


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
    with _open_store(_repo_path(args)) as store:
        repo = parse(store.read())
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
            choice = ""
            if sys.stdin.isatty():
                try:
                    choice = input(f"select recommendation 1..{len(recs)}: ").strip()
                except EOFError:  # end of input answers as a non-digit does
                    pass
            # an answer that names no recommendation picks the first
            pick = int(choice) if choice.isdecimal() and 1 <= int(choice) <= len(recs) else 1
        if not 1 <= pick <= len(recs):
            raise ValueError(f"--pick {pick} out of range 1..{len(recs)}")
        skeleton = render_skeleton(recs[pick - 1], q)
        if args.out:
            data = (skeleton + "\n").encode("utf-8")
            _write_atomic(args.out, lambda out: out.write(data))
            out.append(f"skeleton -> {args.out}")
        else:
            out.append("--- skeleton ---")
            out.append(skeleton if skeleton else "(nothing to add)")
    if args.time:
        out.append(f"query time: {elapsed * 1000:.1f} ms")
    return "\n".join(out)


def _cmd_groum(args: argparse.Namespace) -> str:
    from . import groum as groum_mod

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


def _shown(x, places: int = 2) -> str:
    """The exact rational x (>= 0) rounded half-up as the store rounds it."""
    return two_dp(*x.as_integer_ratio(), places)


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
    from fractions import Fraction

    from . import metrics

    if not args.gold:
        raise ValueError("no gold file given")
    with _open_store(_repo_path(args)) as store:
        repo = parse(store.read())
    ctx = _query_context(args)
    rows: list[list[str]] = []
    prs: list[tuple[Fraction, Fraction]] = []
    labeled_scores: list[tuple[Fraction, int]] = []
    data = Path(args.gold).read_bytes()
    try:
        gold = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.gold}: not UTF-8 at byte offset {exc.start}") from None
    for lineno, line in enumerate(gold.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        where = f"{args.gold}:{lineno}"
        statement, gold_items, label = _parse_gold_line(line, where)
        try:
            q = abstract_query(statement, ctx)
        except UnparsableQuery as exc:
            raise UnparsableQuery(f"{where}: {exc}") from None
        recs = search(q, repo, 1)
        if recs:
            recommended = [name for _, name in recs[0].pattern.elements]
            p, r = metrics.sequence_pr(recommended, gold_items)
            score = recs[0].score
        else:
            p, r, score = Fraction(0), Fraction(0), Fraction(0)
        prs.append((p, r))
        if label is not None:
            labeled_scores.append((score, label))
        rows.append([statement, str(len(recs)), *map(_shown, (p, r, score))])
    if not rows:
        raise ValueError(f"{args.gold}: gold file holds no queries")
    mean_p, mean_r = map(_shown, metrics.average_pr(prs))
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
            out += [f"{_shown(x, 4)},{_shown(y, 4)}" for x, y in points]
            out.append(f"auc,{_shown(auc, 4)}")
        else:
            out.append("ROC points: " + " ".join(
                f"({_shown(x)},{_shown(y)})" for x, y in points))
            out.append(f"AUC {_shown(auc, 4)}")
    return "\n".join(out)


# --- argument parsing -----------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _extension(text: str) -> str:
    # an extension starts with its dot: "java" would also take Foojava; it
    # ends a file name, so it holds no "/"
    if len(text) < 2 or not text.startswith(".") or "/" in text:
        raise argparse.ArgumentTypeError(f"must be a '.' and a suffix, like .java, got {text!r}")
    return text


def _binding(text: str) -> tuple[str, str]:
    name, sep, type_name = text.partition("=")
    if not sep or not name or not type_name:
        raise argparse.ArgumentTypeError(f"expected NAME=TYPE, got {text!r}")
    return name, type_name


def _corpus_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", action="append", required=True, metavar="DIR",
                   help="corpus directory (repeatable)")
    p.add_argument("--ext", default=".java", type=_extension,
                   help="source extension filter, with its leading dot")


def _repo_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--repo", default="", metavar="FILE",
                   help="repository path (default: $ESDP_REPO or esdp-repo.xml)")


def _context_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--var", action="append", default=[], type=_binding,
                   metavar="NAME=TYPE", help="context variable binding (repeatable)")
    p.add_argument("--import", dest="imports", action="append", default=[],
                   metavar="QNAME", help="context import (repeatable)")


def _mining_opts(p: argparse.ArgumentParser) -> None:
    _corpus_opts(p)
    _repo_opt(p)
    threshold = p.add_mutually_exclusive_group()
    threshold.add_argument("--min-support", type=_positive_int, default=2)
    threshold.add_argument("--adaptive", action="store_true",
                           help="pick min-support dynamically under --max-patterns")
    p.add_argument("--max-patterns", type=_positive_int, help="cap of --adaptive (default 50)")


def _mine_opts(p: argparse.ArgumentParser) -> None:
    _mining_opts(p)
    p.add_argument("--corpus-label", default="")


def _query_opts(p: argparse.ArgumentParser) -> None:
    _repo_opt(p)
    _context_opts(p)
    p.add_argument("--top", type=_positive_int, default=5)
    p.add_argument("--pick", type=int, default=0,
                   help="recommendation to render (1..N; 0: ask on a terminal, else 1)")
    p.add_argument("--out", default="", help="write the skeleton to a file")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--time", action="store_true", help="print wall-clock per query")
    p.add_argument("statement")


def _groum_opts(p: argparse.ArgumentParser) -> None:
    _corpus_opts(p)
    p.add_argument("--sigma", type=_positive_int, default=2)


def _eval_opts(p: argparse.ArgumentParser) -> None:
    _repo_opt(p)
    _context_opts(p)
    p.add_argument("--gold", required=True, metavar="FILE")
    p.add_argument("--format", choices=("table", "csv"), default="table")


# name: (command, help line, what adds the subcommand's options to its parser)
_COMMANDS = {
    "extract": (_cmd_extract, "dump the abstracted item stream", _corpus_opts),
    "mine": (_cmd_mine, "mine a corpus into a pattern repository", _mine_opts),
    "update": (_cmd_update, "merge a fresh mine into an existing repository", _mining_opts),
    "query": (_cmd_query, "recommend sequences for one statement", _query_opts),
    "groum": (_cmd_groum, "build object usage graphs and mine subgraph patterns", _groum_opts),
    "eval": (_cmd_eval, "score recommendations against a gold file", _eval_opts),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of command alone.

    The parser of one subcommand spells all of them out as the metavar, so
    its usage line, and with it every help text and error on arguments
    that start with that subcommand, is the full parser's. The full parser
    keeps argparse's default, under which a missing subcommand is named
    "command".
    """
    parser = argparse.ArgumentParser(
        prog="esdp",
        description="API usage pattern mining and code recommendation.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name, (_, help_text, add_options) in _COMMANDS.items():
        if command is None or name == command:
            add_options(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Building all six subcommands costs some twenty times what parsing
    # costs, so only the one argv names is built. No arguments, -h or an
    # unknown word get the full parser, whose help or error names them all.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    if getattr(args, "max_patterns", None) and not args.adaptive:
        # the parser is built again: one held through the command would outlive
        # it, its reference cycles moved to the collector's oldest generation
        _build_parser(command).error("argument --max-patterns: only with argument --adaptive")
    try:
        status, report = 0, _COMMANDS[args.command][0](args)
    except (OSError, ValueError) as exc:
        status, report = 1, f"{type(exc).__name__}: {exc}"
    try:
        try:
            print(report)
        except UnicodeEncodeError:
            # text standard output cannot encode, such as a path that is not
            # UTF-8 (argv and file names read as os.fsdecode reads them):
            # written back as the path's own bytes
            sys.stdout.buffer.write(os.fsencode(report + "\n"))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`esdp extract ... | head -1`). Standard
        # output goes to devnull, so the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
