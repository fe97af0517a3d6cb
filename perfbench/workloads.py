"""The benchmark workloads: what each times and which outputs it checks.

Each workload has three steps, all given the freshly imported package:

* ``warm_up`` runs once per process, untimed;
* ``setup`` is timed as ``setup_s`` and returns the state ``body`` needs;
* ``body`` is timed as ``run_s``; its raw result is turned into checked
  outputs by ``outputs`` after the clock stops.

``outputs`` maps a stable key to ``(text, ok)``: ``text`` is compared by
digest with ``reference.json`` and ``ok`` carries the program's own verdict
(identity equal, exit code 0).  The seed only reorders requests, so the
same keys and texts come out for every seed.  The reasons for choosing
these workloads are in RATIONALE.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path


class Grid:
    """`macdpoly grid --n 3 --k 2 --max-size 3 --format json` with a warm cache."""

    name = "grid"

    def __init__(self, seed: int, tmp: Path):
        self.cache_dir = tmp / "cache"
        self.argv = ["grid", "--n", "3", "--k", "2", "--max-size", "3",
                     "--format", "json", "--cache-dir", str(self.cache_dir)]

    def _run_cli(self, mp):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mp.cli.run(self.argv)
        return code, out.getvalue()

    def warm_up(self, mp):
        """One cold run fills this process's cache directory."""
        return self._run_cli(mp)

    def setup(self, mp):
        ctx = mp.MacdonaldContext(3, 2)
        mp.load_cache(ctx, self.cache_dir / "macd-n3-k2.json")

    def body(self, mp, state):
        return self._run_cli(mp)

    @staticmethod
    def outputs(raw):
        code, stdout = raw
        out = {"stdout": (stdout, code == 0)}
        for i, rep in enumerate(json.loads(stdout)["reports"]):
            ok = rep["equal"] and "error" not in rep
            out[f"report{i:03d}"] = (json.dumps(rep, sort_keys=True), ok)
        return out


class Basis:
    """Cold construction of P_lam for every dominant |lam| <= 8 at (n, k) = (3, 2)."""

    name = "basis"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.cache_file = tmp / "macd-n3-k2.json"

    def warm_up(self, mp):
        return None

    def setup(self, mp):
        lams = mp.dominant_weights_up_to(3, 8)
        random.Random(self.seed).shuffle(lams)
        return mp.MacdonaldContext(3, 2), lams

    def body(self, mp, state):
        ctx, lams = state
        coeffs = {lam: mp.macdonald_coeffs(lam, ctx) for lam in lams}
        mp.save_cache(ctx, self.cache_file)
        return mp.scalar_to_str, coeffs

    @staticmethod
    def outputs(raw):
        to_str, coeffs = raw
        out = {}
        for lam, cs in coeffs.items():
            lines = [f"{mu}: {to_str(cs[mu])}" for mu in sorted(cs, key=lambda w: w.coords)]
            out[str(lam)] = ("\n".join(lines), True)
        return out


class Rank4:
    """Eigenvalue and Pieri checks on a fresh (n, k) = (4, 2) context.

    Runs by name only: BENCHMARK.json leaves it out because its run_s
    spread past the bound (RATIONALE.md, Noise).
    """

    name = "rank4"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def warm_up(self, mp):
        return None

    def setup(self, mp):
        n = 4
        lams = [mp.Weight.zero(n)] + [mp.fundamental_weight(n, r) for r in range(1, n)]
        requests = [("eigenvalue", {"lambda": lam, "r": r}) for lam in lams for r in range(1, n)]
        requests.append(("eigenvalue", {"lambda": mp.Weight((2, 0, 0, 0)), "r": 1}))
        requests += [("pieri", {"mu": mu, "r": r})
                     for mu in mp.dominant_weights_up_to(n, 2) for r in range(1, n)]
        random.Random(self.seed).shuffle(requests)
        return mp.MacdonaldContext(n, 2), requests

    def body(self, mp, state):
        ctx, requests = state
        return [(name, params, mp.verify(name, params, ctx)) for name, params in requests]

    @staticmethod
    def outputs(raw):
        out = {}
        for name, params, rep in raw:
            key = f"{name} " + " ".join(f"{k}={params[k]}" for k in sorted(params))
            out[key] = (rep.to_json(), rep.equal and rep.error is None)
        return out


WORKLOADS = {cls.name: cls for cls in (Grid, Basis, Rank4)}
