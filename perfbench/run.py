#!/usr/bin/env python3
"""Pipeline benchmark for esdp: mine, adaptive update, cold query, groum.

    python3 perfbench/run.py --workload mine-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark generates its inputs from the
seed, runs the workload through ``esdp.cli.main`` in worker processes (see
worker.py), checks every output against computations made apart from the
program (checks.py) and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from wrapped calls (trace_layers.py).

Each time is scaled to a fixed machine speed: an operation's wall time is
multiplied by REFERENCE_LOOP_S over the duration of the reference loop
timed around it (the median of the loops nearest it). Raw wall times are
printed on the lines before the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from worker import reference_loop  # noqa: E402

# Duration of worker.reference_loop on the machine the bounds were set on
# (2-core x86-64 container, Python 3.11): scaled times read as seconds there.
REFERENCE_LOOP_S = 0.0105
PROCESSES = 3          # set-ups per run; the timed budget is split across them
LOOP_WINDOW = 3        # reference loops on each side of an operation
CHILD_TIMEOUT_S = 150

# Workload sizes. Files hold METHODS methods each.
METHODS = 5
MINE_FILES, MINE_SUPPORT = 25, 8
UPDATE_BASE_FILES, UPDATE_BASE_SUPPORT, UPDATE_FRESH_FILES = 40, 12, 10
UPDATE_CAP = 50        # esdp's default --max-patterns
QUERY_FILES, QUERY_SUPPORT, QUERY_STATEMENTS = 100, 20, 102
GROUM_FILES, GROUM_SIGMA = 12, 8


def _setup_mine(work: Path, seed: int) -> dict:
    record = gen.write_inputs(work / "mine", seed, MINE_FILES, METHODS)
    store = work / "mined.xml"
    return {"record": record, "corpus": work / "mine" / "corpus", "store": store,
            "calls": [["mine", "--corpus", str(work / "mine" / "corpus"), "--repo", str(store),
                       "--min-support", str(MINE_SUPPORT)]]}


def _setup_update(work: Path, seed: int) -> dict:
    # the base corpus lacks the first idiom, so the update inserts patterns
    # as well as re-scoring existing ones
    gen.write_inputs(work / "base", seed, UPDATE_BASE_FILES, METHODS, without_idiom=0)
    fresh = gen.write_inputs(work / "fresh", seed + 1_000_003, UPDATE_FRESH_FILES, METHODS)
    pristine, store = work / "base.xml", work / "updated.xml"
    return {"record": fresh, "store": store, "restore": [str(pristine), str(store)],
            "pristine": pristine,
            "build": ["mine", "--corpus", str(work / "base" / "corpus"), "--repo", str(pristine),
                      "--min-support", str(UPDATE_BASE_SUPPORT)],
            "calls": [["update", "--adaptive", "--corpus", str(work / "fresh" / "corpus"),
                       "--repo", str(store)]]}


def _setup_query(work: Path, seed: int) -> dict:
    record = gen.write_inputs(work / "corpus", seed, QUERY_FILES, METHODS, QUERY_STATEMENTS)
    store = work / "store.xml"
    queries = []
    for q in record["queries"]:
        argv = ["query", "--repo", str(store), "--top", str(q["top"]), "--pick", "1"]
        for var, type_name in sorted(q["vars"].items()):
            argv += ["--var", f"{var}={type_name}"]
        for name in q["imports"]:
            argv += ["--import", name]
        queries.append(argv + [q["statement"]])
    return {"record": record, "store_read": store, "calls": queries,
            "build": ["mine", "--corpus", str(work / "corpus" / "corpus"), "--repo", str(store),
                      "--min-support", str(QUERY_SUPPORT)]}


def _setup_groum(work: Path, seed: int) -> dict:
    record = gen.write_inputs(work / "groum", seed, GROUM_FILES, METHODS)
    return {"record": record,
            "calls": [["groum", "--corpus", str(work / "groum" / "corpus"),
                       "--sigma", str(GROUM_SIGMA)]]}


def _check_mine(spec: dict, outputs: list[tuple[int, bytes]], seed: int) -> list[str]:
    methods = spec["record"]["methods"]
    problems = checks.check_extraction(methods, str(spec["corpus"]))
    for _, data in outputs:
        _, _, store = data.partition(b"\0")
        problems += checks.check_mined_store(methods, store, MINE_SUPPORT, seed)
    return problems


def _check_update(spec: dict, outputs: list[tuple[int, bytes]], seed: int) -> list[str]:
    base = spec["pristine"].read_bytes()
    problems = []
    for _, data in outputs:
        _, _, store = data.partition(b"\0")
        problems += checks.check_updated_store(base, spec["record"]["methods"], store, UPDATE_CAP)
    return problems


def _check_query(spec: dict, outputs: list[tuple[int, bytes]], seed: int) -> list[str]:
    _, patterns = checks.read_store(spec["store_read"].read_bytes())
    queries = spec["record"]["queries"]
    problems = []
    for j, data in outputs:
        problems += checks.check_query_output(patterns, queries[j], data.decode("utf-8"))
    tiers = sorted({checks.query_tier(patterns, q) for q in queries})
    if tiers != [0, 1, 2, 3]:
        problems.append(f"the statements reach search tiers {tiers}, not all of 0-3")
    return problems


def _check_groum(spec: dict, outputs: list[tuple[int, bytes]], seed: int) -> list[str]:
    problems = []
    for _, data in outputs:
        problems += checks.check_groum_output(spec["record"]["methods"], data.decode("utf-8"),
                                              GROUM_SIGMA, seed)
    return problems


WORKLOADS = {
    "mine-corpus": (_setup_mine, _check_mine),
    "update-adaptive": (_setup_update, _check_update),
    "query-cold": (_setup_query, _check_query),
    "groum-mine": (_setup_groum, _check_groum),
}

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_p90_ms": "ms"}


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _scaled_ops(result: dict) -> list[tuple[dict, float]]:
    """(operation, scale) pairs: scale turns its seconds into reference seconds."""
    ops = result["ops"]
    loops = [ops[0]["l0"]] + [op["l1"] for op in ops]
    scaled = []
    for i, op in enumerate(ops):
        window = loops[max(0, i + 1 - LOOP_WINDOW): i + 1 + LOOP_WINDOW]
        scaled.append((op, REFERENCE_LOOP_S / statistics.median(window)))
    return scaled


def _run_processes(spec: dict, work: Path, seconds: float, trace: bool) -> list[dict]:
    env = dict(os.environ, SOURCE_DATE_EPOCH="0")
    # the workload's calls are dealt out to the processes: each process
    # repeats its share, and together they make every call at least once
    calls = list(enumerate(spec["calls"]))
    results = []
    for p in range(PROCESSES):
        keep = work / f"out{p}"
        keep.mkdir()
        job = {"root": str(ROOT), "round": calls[p::PROCESSES] or calls, "trace": trace,
               "budget": seconds / PROCESSES, "min_rounds": 2 if trace else 1,
               "store": str(spec["store"]) if spec.get("store") else None,
               "restore": spec.get("restore"), "keep": str(keep), "build": spec.get("build")}
        job_file = work / f"job{p}.json"
        job_file.write_text(json.dumps(job), encoding="utf-8")
        result_file = work / f"result{p}.json"
        loop = reference_loop()
        spawned = time.perf_counter()
        if spec.get("build"):
            subprocess.run([sys.executable, str(HERE / "worker.py"), "build", str(job_file)],
                           env=env, check=True, timeout=CHILD_TIMEOUT_S)
        subprocess.run([sys.executable, str(HERE / "worker.py"), "run", str(job_file),
                        str(result_file)], env=env, check=True, timeout=CHILD_TIMEOUT_S)
        result = json.loads(result_file.read_text(encoding="utf-8"))
        result["setup_raw"] = result["t_first"] - spawned
        result["setup_scale"] = REFERENCE_LOOP_S / statistics.median([loop, result["loop_first"]])
        result["keep"] = keep
        results.append(result)
    return results


def _end_to_end(results: list[dict]) -> tuple[dict, dict]:
    times = [op["t"] * scale for r in results for op, scale in _scaled_ops(r)]
    raw = [op["t"] for r in results for op in r["ops"]]
    setups = [r["setup_raw"] * r["setup_scale"] for r in results]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in results) / 1024,
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p90_ms": _percentile(times, 90) * 1000,
    }
    loops = [op["l1"] for r in results for op in r["ops"]]
    info = {"operations": len(times), "raw_op_p50_ms": statistics.median(raw) * 1000,
            "raw_op_p90_ms": _percentile(raw, 90) * 1000,
            "raw_setup_s": [round(r["setup_raw"], 4) for r in results],
            "reference_loop_ms": statistics.median(loops) * 1000}
    return metrics, info


def _per_layer(results: list[dict]) -> tuple[dict, dict]:
    from trace_layers import COUNT_LAYERS, TIME_LAYERS

    traced = [(op, scale) for r in results for op, scale in _scaled_ops(r) if op["traced"]]
    plain = [op["t"] * scale for r in results for op, scale in _scaled_ops(r) if not op["traced"]]
    metrics = {}
    units = {}
    for layer in TIME_LAYERS:
        factor = 1000 if layer.endswith("_ms") else 1
        metrics[layer] = statistics.median(op["layers"][layer] * scale * factor
                                           for op, scale in traced)
        units[layer] = "ms" if factor == 1000 else "s"
    for layer in COUNT_LAYERS:
        metrics[layer] = statistics.median_low(op["layers"][layer] for op, _ in traced)
        units[layer] = "bytes" if layer.endswith("_bytes") else "count"
    traced_ms = statistics.median(op["t"] * scale for op, scale in traced)
    metrics["trace.overhead_pct"] = (traced_ms / statistics.median(plain) - 1) * 100
    units["trace.overhead_pct"] = "%"
    return metrics, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "esdp" / "cli.py").is_file():
        print(f"no esdp sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    setup, check = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = setup(work, args.seed)
        results = _run_processes(spec, work, args.seconds, bool(args.trace))
        ops = [op for r in results for op in r["ops"]]
        failed = sum(op["status"] != 0 for op in ops)
        # every distinct output of a call that succeeded, with the index of
        # the call that made it
        distinct = {}
        for r in results:
            for op in r["ops"]:
                if op["status"] == 0 and op["digest"] not in distinct:
                    distinct[op["digest"]] = (op["op"], r["keep"] / r["outputs"][op["digest"]])
        outputs = [(j, path.read_bytes()) for j, path in distinct.values()]
        problems = check(spec, outputs, args.seed)
        for problem in problems[:20]:
            print(f"CHECK FAILED: {problem}")
        if args.trace:
            metrics, units = _per_layer(results)
        else:
            metrics, info = _end_to_end(results)
            units = END_TO_END
            print(f"{args.workload} seed {args.seed}: {json.dumps(info)}")
        print(f"backend {results[0]['backend']}, python {sys.version.split()[0]}, "
              f"{len(outputs)} distinct outputs checked")
        print(json.dumps({
            "correct": not problems,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
