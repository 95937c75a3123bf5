"""One benchmark process: builds a starting store, or runs timed operations.

    python3 perfbench/worker.py build JOB.json
    python3 perfbench/worker.py run JOB.json RESULT.json

Both import esdp from the checkout's ``src`` and call ``esdp.cli.main`` in
process, the path a user's ``esdp`` command takes. ``run`` makes one
untimed warm-up call, then times whole rounds of calls until its budget is
spent. A round is a list of [index, argv] pairs; the index names the call in
the workload's list, for the checks. Before and after every call it times
the reference loop below, so that the parent can scale each call to a fixed
machine speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def reference_loop() -> float:
    """Seconds taken by a fixed integer loop (10.5 ms on an idle 2-core
    x86-64 container with Python 3.11).

    It imports nothing from esdp and allocates nothing inside the loop (all
    values stay within CPython's cached small ints), so no setting the
    program changes can move it; only the speed of the machine does.
    """
    start = time.perf_counter()
    x = 0
    inner = range(250)
    for _ in range(4):
        for _ in range(240):
            for i in inner:
                x = (x ^ i) & 127
                x = (x + 1) & 127
    return time.perf_counter() - start


def _import_esdp(root: Path):
    sys.path.insert(0, str(root / "src"))
    import esdp.cli

    if not Path(esdp.cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"esdp imported from {esdp.cli.__file__}, not from {root / 'src'}")
    return esdp.cli


def _call(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


def build(job: dict) -> None:
    cli = _import_esdp(Path(job["root"]))
    status, text = _call(cli.main, job["build"])
    if status != 0:
        raise SystemExit(f"building the starting store failed ({status}): {text}")


def run(job: dict, result_path: Path) -> None:
    root = Path(job["root"])
    cli = _import_esdp(root)
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).parent))
        from trace_layers import Tracer

        tracer = Tracer()
    restore = job.get("restore")        # [pristine store, store the call updates]
    store = Path(job["store"]) if job.get("store") else None
    keep = Path(job["keep"])

    def prepare() -> None:
        if restore:
            Path(restore[1]).write_bytes(Path(restore[0]).read_bytes())

    prepare()
    status, _ = _call(cli.main, job["round"][0][1])   # warm-up, untimed
    if status != 0:
        raise SystemExit(f"warm-up call failed with status {status}")

    ops: list[dict] = []
    outputs: dict[str, str] = {}
    loop = reference_loop()
    first = None
    rounds = 0
    while True:
        for j, (index, argv) in enumerate(job["round"]):
            prepare()
            # traced and untraced calls alternate, each call of a round
            # taking turns from one round to the next
            traced = tracer is not None and (rounds + j) % 2 == 0
            if traced:
                tracer.install()
            started = time.perf_counter()
            if first is None:
                first = started
            try:
                status, text = _call(cli.main, argv)
            except Exception as exc:  # an operation that raises counts as failed
                status, text = -1, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            layers = None
            if traced:
                layers = tracer.collect(elapsed)
                tracer.uninstall()
            after = reference_loop()
            data = text.encode("utf-8")
            if store is not None and status == 0:
                data += b"\0" + store.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if digest not in outputs:
                path = keep / f"{len(outputs)}.out"
                path.write_bytes(data)
                outputs[digest] = path.name
            ops.append({"op": index, "t": elapsed, "l0": loop, "l1": after, "status": status,
                        "digest": digest, "traced": traced, "layers": layers})
            loop = after
        rounds += 1
        if rounds >= job["min_rounds"] and time.perf_counter() - first >= job["budget"]:
            break
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result_path.write_text(json.dumps({
        "t_first": first, "loop_first": ops[0]["l0"], "ops": ops, "outputs": outputs,
        "maxrss_kb": maxrss_kb, "backend": sys.modules["esdp.kernels"].BACKEND,
    }), encoding="utf-8")


if __name__ == "__main__":
    mode, job_file = sys.argv[1], Path(sys.argv[2])
    job = json.loads(job_file.read_text(encoding="utf-8"))
    if mode == "build":
        build(job)
    elif mode == "run":
        run(job, Path(sys.argv[3]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
