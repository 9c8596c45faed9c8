"""Seeded inputs for the benchmark workloads, built without momentmorse.

Every input is a spec document in the command line's JSON format, made from
``random.Random("<workload>:<seed>:<index>")`` alone, so the parent and the
changed program receive byte-identical inputs.  Targets are labelled empty,
singular or regular by the independent oracle in ``oracle.py``.

    python3 bench/gen.py --seed 1 --jobs 20 --out DIR

writes DIR/<workload>/<index>.json for every workload and DIR/mix.json with
the count of each target kind.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction

import oracle

# exact-scan: rank-3 specs, a fresh spec per job.  m cycles so that every run
# has the same mix of sizes; with half the jobs at m = 7, both the median and
# the tail (ten jobs from the top of about 30) fall among the m = 7 jobs and
# not on the border between two sizes.
EXACT_RANK = 3
EXACT_M_CYCLE = (6, 7, 8, 7)

# chamber-sweep: a few rank-2 specs per run, each swept over many targets
SWEEP_RANK = 2
SWEEP_M = 8
SWEEP_SPECS = 6
SWEEP_KINDS = (oracle.REGULAR, oracle.SINGULAR, oracle.REGULAR, oracle.EMPTY,
               oracle.REGULAR, oracle.SINGULAR, oracle.REGULAR, oracle.REGULAR)

# certify: the C3 acceptance spec at CLI defaults, then small random specs
C3_DOC = {"rank": 2,
          "weights": [{"weight": [1, 0], "multiplicity": 1},
                      {"weight": [0, 1], "multiplicity": 1},
                      {"weight": [1, -1], "multiplicity": 1}],
          "shift": ["-3", "1"], "target": ["0", "0"]}
# (rank, multiplicities), cycled so that every run has the same mix of sizes.
# Random specs are rank 1: at specgen's target scale, random rank-2 specs
# cost 1-7 s each, mostly in flows to far targets, and some fail (a false
# verify FAIL, flows past the deadline; see test_bench.py).  A workload must
# not fail, and their spread decided the run's throughput; C3 keeps rank 2
# in every run.
CERTIFY_SHAPES = ((1, (2, 1)), (1, (1, 1, 1)), (1, (1, 2)), (1, (1, 1)))
CERTIFY_SAMPLES = 10
CERTIFY_POINTS = 5

WORKLOADS = ("exact-scan", "chamber-sweep", "certify")


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def polarized_spec(rng: random.Random, rank: int, m: int, mults=None,
                   box: int = 3) -> dict:
    """m distinct integer weights on the positive side of a random functional,
    spanning R^rank, with the given multiplicities (else random 1 or 2) and a
    small integer shift."""
    while True:
        eta = [rng.randint(1, 3) for _ in range(rank)]
        grid = [()]
        for _ in range(rank):
            grid = [v + (e,) for v in grid for e in range(-box, box + 1)]
        pool = [v for v in grid if sum(a * b for a, b in zip(v, eta)) > 0]
        weights = rng.sample(pool, m)
        if oracle.rank_of([tuple(map(Fraction, w)) for w in weights]) < rank:
            continue
        shift = [rng.randint(-2, 2) for _ in range(rank)]
        if mults is None:
            mults = [rng.randint(1, 2) for _ in weights]
        return {"rank": rank,
                "weights": [{"weight": list(w), "multiplicity": k}
                            for w, k in zip(weights, mults)],
                "shift": [str(e) for e in shift]}


def _combination(rng: random.Random, doc: dict, indices, sign: int = 1):
    point = [Fraction(e) for e in doc["shift"]]
    for i in indices:
        c = sign * Fraction(rng.randint(1, 9), rng.randint(1, 4))
        point = [p + c * e for p, e in zip(point, doc["weights"][i]["weight"])]
    return point


def target_of_kind(rng: random.Random, doc: dict, kind: str):
    """A target whose level the oracle classifies as ``kind``.

    regular: shift + a positive combination of all weights (redrawn in the
    rare case it lands on a wall); singular: shift + a positive combination
    of rank - 1 weights, or the shift itself; empty: shift minus a positive
    combination, which a polarized spec cannot reach.
    """
    m, rank = len(doc["weights"]), doc["rank"]
    while True:
        if kind == oracle.REGULAR:
            target = _combination(rng, doc, range(m))
        elif kind == oracle.SINGULAR:
            size = rng.randint(0, rank - 1)
            target = _combination(rng, doc, rng.sample(range(m), size))
        else:
            target = _combination(rng, doc, rng.sample(range(m), rng.randint(1, m)), -1)
        if oracle.Level(doc, target).kind() == kind:
            return target


def exact_scan_job(seed: int, index: int) -> dict:
    rng = _rng("exact-scan", seed, index)
    m = EXACT_M_CYCLE[index % len(EXACT_M_CYCLE)]
    doc = polarized_spec(rng, EXACT_RANK, m)
    doc["target"] = [str(e) for e in target_of_kind(rng, doc, oracle.REGULAR)]
    return doc


def sweep_specs(seed: int) -> list[dict]:
    return [polarized_spec(_rng("chamber-sweep", seed, -1 - k), SWEEP_RANK, SWEEP_M)
            for k in range(SWEEP_SPECS)]


def sweep_job(seed: int, index: int, specs: list[dict]) -> dict:
    """Spec ``index mod SWEEP_SPECS`` at a fresh target of the cycled kind."""
    rng = _rng("chamber-sweep", seed, index)
    doc = dict(specs[index % len(specs)])
    kind = SWEEP_KINDS[index % len(SWEEP_KINDS)]
    doc["target"] = [str(e) for e in target_of_kind(rng, doc, kind)]
    return doc


def certify_job(seed: int, index: int) -> dict:
    """C3 at index 0; afterwards a small polarized spec at a regular target."""
    if index == 0:
        return dict(C3_DOC)
    rng = _rng("certify", seed, index)
    rank, mults = CERTIFY_SHAPES[(index - 1) % len(CERTIFY_SHAPES)]
    doc = polarized_spec(rng, rank, len(mults), mults)
    doc["target"] = [str(e) for e in target_of_kind(rng, doc, oracle.REGULAR)]
    return doc


def jobs(workload: str, seed: int):
    """Endless stream of job inputs for a workload."""
    specs = sweep_specs(seed) if workload == "chamber-sweep" else None
    index = 0
    while True:
        if workload == "exact-scan":
            yield exact_scan_job(seed, index)
        elif workload == "chamber-sweep":
            yield sweep_job(seed, index, specs)
        else:
            yield certify_job(seed, index)
        index += 1


def dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=20)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    mix = {}
    for workload in WORKLOADS:
        folder = os.path.join(args.out, workload)
        os.makedirs(folder, exist_ok=True)
        kinds = {oracle.EMPTY: 0, oracle.SINGULAR: 0, oracle.REGULAR: 0}
        stream = jobs(workload, args.seed)
        for index in range(args.jobs):
            doc = next(stream)
            kinds[oracle.Level(doc).kind()] += 1
            with open(os.path.join(folder, f"{index}.json"), "w") as fh:
                fh.write(dump(doc))
        mix[workload] = kinds
    with open(os.path.join(args.out, "mix.json"), "w") as fh:
        fh.write(json.dumps(mix, sort_keys=True, indent=1) + "\n")
    print(json.dumps(mix, sort_keys=True))


if __name__ == "__main__":
    main()
