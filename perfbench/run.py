"""macdpoly benchmark: times the grid, basis and rank4 workloads through the public API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --selftest              # tracer and output-gate self-tests

One process runs one workload, single-threaded, as a closed loop with one
caller.  Every iteration re-imports the package and builds a fresh
context (timed as ``setup_s``), then runs the workload body (timed as
``run_s``), then checks every output against digests recorded in
``reference.json``.  Iterations repeat until ``--seconds`` of body time is
spent; ``run_s`` and ``setup_s`` are medians.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (see tracer.py) plus the tracing
overhead.  RATIONALE.md says why the workloads and metrics are these.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (seed, commit, quartiles, fail ratio, machine).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "macdpoly"
MIN_SETUPS = 5
SETUP_SECONDS_PER_ITERATION = 0.25

sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def fresh_import():
    """Drop every loaded macdpoly module and import the package anew."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return pkg


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Gate:
    """Counts checked outputs and the ones that differ from the reference."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, outputs: dict[str, tuple[str, bool]]) -> None:
        for key, want in self.reference.items():
            self.attempted += 1
            text, ok = outputs.get(key, (None, False))
            if not ok or text is None or digest(text) != want:
                self.failed += 1
                if len(self.mismatches) < 10:
                    self.mismatches.append(key)
        for key in outputs.keys() - self.reference.keys():
            self.attempted += 1
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append(f"unexpected output {key}")


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def set_up(workload, traced: bool):
    """Import the package afresh and run the workload's set-up, timed."""
    gc.collect()
    t0 = time.perf_counter()
    mp = fresh_import()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    state = workload.setup(mp)
    return mp, tracer, state, time.perf_counter() - t0


def measure(workload, seconds: float, trace: bool, gate: Gate) -> dict:
    clock = time.perf_counter
    mp = fresh_import()  # untimed: the first import may compile bytecode
    warm = workload.warm_up(mp)
    if warm is not None:
        gate.check(workload.outputs(warm))
    setups: list[float] = []
    runs: list[float] = []
    traced_runs: list[float] = []
    layers: list[dict] = []
    while True:
        traced = trace and len(runs) > len(traced_runs)
        # Cheap set-ups repeat before each body, so their samples spread over the run.
        spent = 0.0
        while not spent or (not traced and spent < SETUP_SECONDS_PER_ITERATION):
            mp = tracer = state = None
            mp, tracer, state, took = set_up(workload, traced)
            spent += took
            if not traced:
                setups.append(took)
        t1 = clock()
        raw = workload.body(mp, state)
        t2 = clock()
        gate.check(workload.outputs(raw))
        raw = None
        if traced:
            traced_runs.append(t2 - t1)
            layers.append(tracer.metrics())
        else:
            runs.append(t2 - t1)
        if trace and not traced_runs:
            continue
        all_runs = runs + traced_runs
        if sum(all_runs) + statistics.median(all_runs) / 2 >= seconds:
            break
    while not trace and len(setups) < MIN_SETUPS:
        mp = tracer = state = None
        setups.append(set_up(workload, False)[3])
    result = {
        "run_s": summary(runs),
        "setup_s": summary(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result["traced_run_s"] = summary(traced_runs)
        result["layers"] = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        result["layers"]["trace.overhead_s"] = (
            result["traced_run_s"]["median"] - result["run_s"]["median"])
        counts = [{k: v for k, v in m.items() if k.endswith((".calls", ".entries"))}
                  for m in layers]
        result["counts_repeat"] = all(c == counts[0] for c in counts)
    return result


def commit_id() -> str | None:
    """The checked-out commit read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_one(args) -> int:
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("MACD_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    gate = Gate(reference)
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        result = measure(workload, args.seconds, bool(args.trace), gate)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            tmp_root.rmdir()
    fail_ratio = gate.failed / gate.attempted
    detail = {**meta, **result, "fail_ratio": fail_ratio, "attempted": gate.attempted,
              "failed": gate.failed, "mismatches": gate.mismatches}
    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_units(name)}
                   for name, value in result["layers"].items()}
    else:
        values = {"run_s": result["run_s"]["median"], "setup_s": result["setup_s"]["median"],
                  "peak_rss_mib": result["peak_rss_mib"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process, one after another, and print a table."""
    print(f"{'workload':8} {'run_s':>10} {'setup_s':>10} {'peak_rss_mib':>14} {'fail_ratio':>11}")
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:8} failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
            status = 1
            continue
        detail = json.loads(lines[-2])["detail"]
        m = json.loads(lines[-1])["metrics"]
        print(f"{name:8} {m['run_s']['value']:8.3f} s {m['setup_s']['value']:8.3f} s "
              f"{m['peak_rss_mib']['value']:10.1f} MiB {detail['fail_ratio']:11.4f}")
        if detail["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check tracer coverage, exact counts and the output gate")
    args = parser.parse_args(argv)
    if args.selftest:
        import selftest
        return selftest.main(SRC)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
