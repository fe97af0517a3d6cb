"""Self-tests of the benchmark's tracer and output gate.

    python3 perfbench/run.py --selftest

* coverage: after the tracer is installed, no macdpoly namespace or class
  still reaches an unwrapped boundary; reflected aliases are counted; one
  norm(lam, ctx) on a fresh context is exactly one inner_product call.
* gate: a changed output, a missing output, an extra output and a failed
  verdict each count as one failure.
* per workload, two traced processes with the same seed: no failed check
  in either process (each checks an untraced and a traced iteration
  against the same reference, so tracing changes no output), identical
  call counts for every boundary, and on basis linalg.self_s below 5% of
  the traced run_s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
from tracer import Tracer
from workloads import WORKLOADS

SEED = 11


class Checks:
    def __init__(self):
        self.failures = 0

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        print(f"{'PASS' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"), flush=True)
        self.failures += not ok


def coverage(checks: Checks) -> None:
    mp = run.fresh_import()
    tracer = Tracer()
    tracer.install()
    uncovered = tracer.uncovered()
    checks.expect("every binding of every boundary is wrapped", not uncovered,
                  "; ".join(uncovered))
    # A boundary whose function was deleted reads 0 calls; that is a code
    # change to report, not a tracer fault.
    for spec in tracer.missing:
        print(f"NOTE boundary target {spec} no longer exists")

    def calls(layer, boundary):
        return tracer.stats[(layer, boundary)][0]

    x = mp.q_power(1)
    before = calls("exact", "scalar_ops")
    _ = 1 + x, 2 * x  # the __radd__ and __rmul__ class aliases
    got = calls("exact", "scalar_ops") - before
    checks.expect("reflected ExactScalar operators are counted", got == 2,
                  f"{got} of 2 calls counted")
    p = mp.LaurentPoly.q_term(1)
    before = calls("exact", "poly_mul"), calls("exact", "poly_add")
    _ = 2 * p, 1 + p
    checks.expect("reflected LaurentPoly operators are counted",
                  (calls("exact", "poly_mul"), calls("exact", "poly_add"))
                  == (before[0] + 1, before[1] + 1))

    ctx = mp.MacdonaldContext(3, 2)
    before = calls("core", "inner_product"), calls("core", "norm")
    mp.norm(mp.fundamental_weight(3, 1), ctx)
    got = calls("core", "inner_product") - before[0], calls("core", "norm") - before[1]
    checks.expect("one norm call on a fresh context is one inner_product call",
                  got == (1, 1), f"(inner_product, norm) calls = {got}")


def gate(checks: Checks) -> None:
    reference = {"a": run.digest("x"), "b": run.digest("y")}
    cases = {
        "a changed output": {"a": ("x", True), "b": ("z", True)},
        "a missing output": {"a": ("x", True)},
        "an extra output": {"a": ("x", True), "b": ("y", True), "c": ("w", True)},
        "a failed verdict": {"a": ("x", False), "b": ("y", True)},
    }
    for name, outputs in cases.items():
        g = run.Gate(reference)
        g.check(outputs)
        checks.expect(f"gate counts {name} as one failure", g.failed == 1,
                      f"failed = {g.failed}")
    g = run.Gate(reference)
    g.check({"a": ("x", True), "b": ("y", True)})
    checks.expect("gate passes matching outputs", (g.attempted, g.failed) == (2, 0))


def traced_run(name: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", name,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=run.ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def repeat_counts(checks: Checks) -> None:
    for name in WORKLOADS:
        (d1, r1), (d2, r2) = traced_run(name), traced_run(name)
        for i, r in enumerate((r1, r2), 1):
            checks.expect(f"{name}: traced process {i} matches the reference outputs",
                          r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                          f"{r['failed']} of {r['attempted']} failed")
        c1, c2 = ({k: v["value"] for k, v in r["metrics"].items()
                   if k.endswith((".calls", ".entries"))} for r in (r1, r2))
        diff = sorted(k for k in c1 if c1[k] != c2.get(k))
        checks.expect(f"{name}: call counts repeat exactly across processes",
                      c1 and c1 == c2, ", ".join(diff))
        if name == "basis":
            share = r1["metrics"]["linalg.self_s"]["value"] / d1["traced_run_s"]["median"]
            checks.expect("basis: linalg.self_s is under 5% of run_s", share < 0.05,
                          f"share = {share:.3f}")


def main(src: Path) -> int:
    if not (src / run.PACKAGE / "__init__.py").is_file():
        print(f"error: no {run.PACKAGE} sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    checks = Checks()
    coverage(checks)
    gate(checks)
    repeat_counts(checks)
    print(f"selftest: {checks.failures} failure(s)")
    return 1 if checks.failures else 0
