"""Workload definitions and the seeded instance generators they draw from.

Every workload owns a fixed pool of instances, each identified by a pool
index that seeds its generator.  A run's seed picks which pool members it
solves and in which order, so the same seed always gives the same inputs, and
every input the benchmark can ever solve has a checked-in reference bound
trace (see `references/`).
"""

from dataclasses import dataclass

import numpy as np

from homrf import build_model, close_j, gen_potts_2x2, gen_stereo_second_order

# Solver settings shared by every workload: the library and CLI defaults.
EPS = 1e-7
REUSE = "after"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str  # "stereo", "potts" or "nested"
    params: dict  # keyword arguments of the generator
    pool: int  # number of distinct instances the seed draws from
    instance_seconds: float  # nominal cost of one instance; sizes the batch
    passes: int  # TRW-S pass budget; the eps stop may end a solve earlier
    setup_reps: int  # parse/build/init repetitions per instance for setup_s
    oracle: bool = False  # exhaustive oracle and baselines per instance

    def batch_size(self, seconds):
        """Instances per run: the run's seconds over the nominal instance
        cost, at least one and at most the pool."""
        return max(1, min(self.pool, round(seconds / self.instance_seconds)))

    def pick(self, seed, seconds):
        """Pool indices a run solves, in order; a pure function of the seed."""
        rng = np.random.default_rng([0x5EED, seed])
        k = self.batch_size(seconds)
        return [int(i) for i in rng.choice(self.pool, size=k, replace=False)]

    def make(self, index):
        """Model and edge structure of one pool instance."""
        if self.generator == "stereo":
            return gen_stereo_second_order(seed=index, **self.params)
        if self.generator == "potts":
            return gen_potts_2x2(seed=index, **self.params)
        return nested_instance(np.random.default_rng([0x4E57, index]), **self.params)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stereo-32",
            why="stereo 32x32, 8 labels, weight 15, singleton seps, 20-pass TRW-S budget: "
            "heaviest set-up (parse, superlinear chain build) and largest bound share",
            generator="stereo",
            params=dict(width=32, height=32, labels=8, smooth_weight=15.0, separators="singleton"),
            pool=8,
            instance_seconds=6.5,
            passes=20,
            setup_reps=1,
        ),
        Workload(
            name="potts-32",
            why="Potts 2x2 32x32, 4 labels, pairwise weight 0.5, pair seps, TRW-S to the eps "
            "stop: time to a solution where the message part of a pass dominates",
            generator="potts",
            params=dict(
                width=32,
                height=32,
                labels=4,
                block_weight=0.5,
                variant="pairwise",
                separators="pair",
            ),
            pool=5,
            instance_seconds=5.0,
            passes=500,
            setup_reps=1,
        ),
        Workload(
            name="nested-mix",
            why="many small random nested higher-order models (6-9 nodes, <=4 labels, arity<=4) "
            "with oracle and baselines: per-call overhead, the set-up counterweight",
            generator="nested",
            params=dict(min_nodes=6, max_nodes=9, max_labels=4, max_arity=4),
            pool=640,
            instance_seconds=0.04,
            passes=500,
            setup_reps=3,
            oracle=True,
        ),
    )
}


def nested_instance(rng, min_nodes, max_nodes, max_labels, max_arity):
    """Random model with unaries on every node and higher-order factors with
    all singleton marginalization edges; most factors of arity >= 3 also get
    an explicit sub-pair factor and the edge into it."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    labels = [int(x) for x in rng.integers(2, max_labels + 1, size=n)]

    seen = {(v,) for v in range(n)}
    scopes = []
    wanted = int(rng.integers(2, n))
    for _ in range(40):
        if len(scopes) == wanted:
            break
        arity = int(rng.integers(2, min(max_arity, n) + 1))
        scope = tuple(sorted(rng.choice(n, size=arity, replace=False).tolist()))
        if scope not in seen:
            seen.add(scope)
            scopes.append(scope)

    nested = []
    for scope in list(scopes):
        if len(scope) >= 3 and rng.random() < 0.8:
            i = int(rng.integers(0, len(scope) - 1))
            pair = scope[i : i + 2]
            if pair not in seen:
                seen.add(pair)
                scopes.append(pair)
            nested.append((scope, pair))

    factors = [((v,), rng.uniform(-2, 2, size=labels[v])) for v in range(n)]
    for scope in scopes:
        size = int(np.prod([labels[v] for v in scope]))
        factors.append((scope, rng.uniform(-2, 2, size=size)))
    model = build_model(labels, factors)

    edges = set()
    for fid, scope in enumerate(model.scopes):
        if len(scope) >= 2:
            edges.update((fid, model.factor_id((v,))) for v in scope)
    edges.update((model.factor_id(owner), model.factor_id(pair)) for owner, pair in nested)
    return model, close_j(model.scopes, edges)
