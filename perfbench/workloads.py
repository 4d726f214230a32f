"""Seeded request generation for the four workloads.

A run replays whole batches. A batch is a fixed amount of work whose values
(beta ranges, point counts, decoherence rates, order) come from
(workload, seed, batch index); its size does not depend on the seed, so batch
wall times are comparable across seeds and commits. The program sees only the
generated argv or API arguments.

Every request uses README-documented flags or public API names only: never
--steps-per-pi, --jobs or GEOROBUST_SEED_GRID, so solver and integrator
rewrites land without edits here.
"""

from __future__ import annotations

import math
import os
import random

from checks import FAMILIES, GATES, feasible

PAIRS = [(f, g) for f in FAMILIES for g in GATES]
FEASIBLE = [p for p in PAIRS if feasible(*p)]

# mix: the request mix, printed with every result; predicted: the layer
# expected to dominate the traced time; pairs: schedules built at setup;
# batches_per_process: 1 where no solver state may carry over between batches.
WORKLOADS = {
    "closed-sweep": {
        "mix": "one sweep-beta per feasible (family, gate) pair, 19 per batch; "
               "beta range within +-0.1, 11-41 points; solver cache warm",
        "predicted": "pulses",
        "pairs": FEASIBLE,
        "batches_per_process": None,
        "min_batches": 1,
        "trace_batches": 8,
    },
    "open-sweep": {
        "mix": "one sweep-grid per family (NOT), 5 per batch; one seeded beta, "
               "gamma 0 plus one log-uniform gamma in 1e-5..1e-2",
        "predicted": "lindblad",
        "pairs": [(f, "not") for f in FAMILIES],
        "batches_per_process": None,
        "min_batches": 3,
        "trace_batches": 1,
    },
    "solve": {
        "mix": "one cold build --out per (family, gate) pair, all 25 in seeded "
               "order, each pair once per process; 6 are refusals (exit 2 or 4)",
        "predicted": "gates",
        "pairs": [],
        "batches_per_process": 1,
        "min_batches": 1,
        "trace_batches": 1,
    },
    "perturbative": {
        "mix": "per feasible pair: check-src, d_matrix, d_matrix with a custom "
               "detuning V(t), magnus_terms; 76 requests per batch in seeded order",
        "predicted": "robustness",
        "pairs": FEASIBLE,
        "batches_per_process": None,
        "min_batches": 1,
        "trace_batches": 2,
    },
}


def _rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{batch}")


def _decimal(x: float) -> float:
    """x rounded to 6 decimals: argv carries it as a plain decimal, since
    argparse reads "-1e-05" as an option, not a negative number."""
    return float(f"{x:.6f}")


def _cli(rid, op, family, gate, argv, out=None, **params):
    return {"id": rid, "kind": "cli", "op": op, "family": family, "gate": gate,
            "argv": argv, "out": out, **params}


def batch_requests(workload: str, seed: int, batch: int, out_dir: str) -> list[dict]:
    """The requests of one batch; output files go under out_dir."""
    rng = _rng(workload, seed, batch)
    reqs: list[dict] = []

    def out(ext):
        return os.path.join(out_dir, f"b{batch}-r{len(reqs)}.{ext}")

    if workload == "closed-sweep":
        for fam, gate in rng.sample(FEASIBLE, len(FEASIBLE)):
            lo, hi = _decimal(-0.1 * rng.random()), _decimal(0.1 * rng.random())
            n = rng.randint(11, 41)
            path = out("csv")
            reqs.append(_cli(len(reqs), "sweep-beta", fam, gate, [
                "sweep-beta", "--families", fam, "--gate", gate, "--beta-min", f"{lo:.6f}",
                "--beta-max", f"{hi:.6f}", "--beta-points", str(n), "--out", path],
                out=path, betas=[lo, hi, n], gammas=[0.0]))
    elif workload == "open-sweep":
        for fam in rng.sample(FAMILIES, len(FAMILIES)):
            beta = _decimal(rng.uniform(-0.1, 0.1))
            gamma = float(f"{10 ** rng.uniform(-5, -2):.4g}")
            path = out("csv")
            reqs.append(_cli(len(reqs), "sweep-grid", fam, "not", [
                "sweep-grid", "--families", fam, "--gate", "not", "--beta-min", f"{beta:.6f}",
                "--beta-max", f"{beta:.6f}", "--beta-points", "1", "--gamma", f"0,{gamma!r}",
                "--out", path], out=path, betas=[beta, beta, 1], gammas=[0.0, gamma]))
    elif workload == "solve":
        for fam, gate in rng.sample(PAIRS, len(PAIRS)):
            path = out("txt")
            reqs.append(_cli(len(reqs), "build", fam, gate, [
                "build", "--family", fam, "--gate", gate, "--out", path], out=path))
    elif workload == "perturbative":
        for fam, gate in FEASIBLE:
            reqs.append(_cli(0, "check-src", fam, gate, [
                "check-src", "--families", fam, "--gate", gate]))
            base = {"kind": "api", "family": fam, "gate": gate}
            reqs.append({**base, "op": "d_matrix"})
            reqs.append({**base, "op": "d_matrix_custom", "detuning": [
                rng.uniform(0.05, 0.2), rng.uniform(0.0, 0.1),
                rng.uniform(0.2, 1.0), rng.uniform(0.0, 2 * math.pi)]})
            reqs.append({**base, "op": "magnus_terms", "beta": rng.uniform(0.005, 0.02)})
        rng.shuffle(reqs)
        for rid, req in enumerate(reqs):
            req["id"] = rid
    else:
        raise KeyError(workload)
    for req in reqs:
        if "betas" in req:
            lo, hi, n = req["betas"]
            req["betas"] = linspace(lo, hi, n)
    return reqs


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """The documented beta grid: n evenly spaced points from lo to hi."""
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]
