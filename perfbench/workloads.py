"""Seeded input generators for the three benchmark workloads.

Every workload is a pure function of its seed. The program under test only
ever receives the generated JSON documents or ``Skeleton`` values. Each
generator has a shape check that raises ``ShapeError`` when the input does
not have the structure its workload exists to exercise; the benchmark stops
on that error rather than resizing or re-seeding the input.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from kgraphkms import Skeleton, check_assumptions, decompose
from kgraphkms.dumbbell import matrices_3, sample_commuting3

# Per-call times vary by about ±15% on a shared 2-core VM, so a run needs
# about ten samples of each operation for a steady median. At n = 40 a
# chain `phase` call takes about 4.5 s and at n = 32 about 3.5 s, too long
# for that; n = 20 (about 1.2 s) keeps every property the workload exists
# for.
CHAIN_N = 20
CHAIN_OFFSETS = (0, 1, 3, 7)
# 18 x 3 = 54 vertices rather than 90, for the same reason: a 90-vertex
# `phase` call takes about 3 s, a 54-vertex one about 1 s.
CYCLE_LENGTH = 18
# Fixed multiset of cycle weights: a directed weighted cycle's spectrum
# depends only on the product of its weights, so shuffling them changes
# the input without changing the spectrum the power iteration works on.
CYCLE_WEIGHTS = (1, 2, 3) * (CYCLE_LENGTH // 3)
# Base factor block; the seed only relabels its vertices, which is a
# permutation similarity and leaves the spectrum unchanged as well.
BLOCK_BASE = ((1, 1, 0), (0, 1, 2), (1, 0, 1))
DUMBBELL_COUNT = 400
CLI_DOCS = 4
FUZZ_COUNT = 500
# The k-th fuzz child of every run fuzzes with seed FUZZ_SEED + k, whatever
# the run's seed. The work per fuzz seed varies by about 20% and chain and
# cycle-product runs make only about three fuzz calls, so seeds drawn per
# run would carry that input variance into fuzz_s. Like the cycle-product
# spectra, the fuzz inputs are therefore the same in every run.
FUZZ_SEED = 1

WORKLOADS = ("chain", "cycle-product", "dumbbell-batch")


class ShapeError(RuntimeError):
    """A generated input lacks the structure its workload depends on."""


@dataclass(frozen=True)
class Workload:
    """Generated inputs for one run.

    ``graphs`` is what the in-process library pass analyses; ``cli_graphs``
    (a subset of ``graphs``) go to the CLI as JSON documents.
    """

    name: str
    graphs: tuple[Skeleton, ...]
    cli_graphs: tuple[Skeleton, ...]


def chain_skeleton(n: int, offset: int) -> Skeleton:
    """Chain-n: ``A1 = M + M^2``, ``A2 = 2M + M^2`` for bidiagonal ``M``.

    ``M[i][i] = offset + 2 + i`` and ``M[i][i+1] = 1``. The diagonal grows
    along the chain, which is what makes every vertex its own recursion
    piece; a shuffled diagonal would collapse the recursion.
    """
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m[i, i] = offset + 2 + i
        if i + 1 < n:
            m[i, i + 1] = 1
    sq = m @ m
    labels = tuple(f"c{i}" for i in range(n))
    return Skeleton(labels, ((m + sq).tolist(), (2 * m + sq).tolist()))


def cycle_product_skeleton(seed: int) -> Skeleton:
    """Colours ``X+Y`` and ``XY+X+2Y`` with ``X = A (x) I`` and ``Y = I (x) B``.

    ``A`` is a weighted directed cycle and ``B`` a small irreducible block.
    ``X`` and ``Y`` commute, so any two polynomials in them do; both colours
    are irreducible because their support contains that of ``X + Y``.
    """
    rng = random.Random(seed)
    weights = list(CYCLE_WEIGHTS)
    rng.shuffle(weights)
    a = np.zeros((CYCLE_LENGTH, CYCLE_LENGTH), dtype=np.int64)
    for i, w in enumerate(weights):
        a[(i + 1) % CYCLE_LENGTH, i] = w
    perm = list(range(len(BLOCK_BASE)))
    rng.shuffle(perm)
    b = np.array(BLOCK_BASE, dtype=np.int64)[np.ix_(perm, perm)]
    x = np.kron(a, np.eye(len(b), dtype=np.int64))
    y = np.kron(np.eye(CYCLE_LENGTH, dtype=np.int64), b)
    labels = tuple(f"p{i}" for i in range(len(x)))
    return Skeleton(labels, ((x + y).tolist(), (x @ y + x + 2 * y).tolist()))


def generate(name: str, seed: int) -> Workload:
    """Build the inputs of workload ``name`` from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "chain":
        skel = chain_skeleton(CHAIN_N, rng.choice(CHAIN_OFFSETS))
        return Workload(name, (skel,), (skel,))
    if name == "cycle-product":
        skel = cycle_product_skeleton(rng.randrange(2**31))
        return Workload(name, (skel,), (skel,))
    if name == "dumbbell-batch":
        params = sample_commuting3(rng.randrange(2**31), DUMBBELL_COUNT)
        graphs = tuple(Skeleton(("u", "v", "w"), matrices_3(p)) for p in params)
        picks = sorted(rng.sample(range(len(graphs)), CLI_DOCS))
        return Workload(name, graphs, tuple(graphs[i] for i in picks))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def check_shape(work: Workload) -> None:
    """Raise ``ShapeError`` unless the inputs have their workload's structure.

    The chain's piece count needs a phase diagram, so it is checked by
    ``check_chain_pieces`` on the first diagram the benchmark computes.
    """
    if work.name == "chain":
        (skel,) = work.graphs
        comps = decompose(skel).components
        if len(comps) != skel.n or not check_assumptions(skel).all_pass:
            raise ShapeError(f"chain: {len(comps)} components for n={skel.n}")
    elif work.name == "cycle-product":
        (skel,) = work.graphs
        comps = decompose(skel).components
        if len(comps) != 1 or not check_assumptions(skel).all_pass:
            raise ShapeError(f"cycle-product: {len(comps)} components, want 1 passing")
    else:
        for i, skel in enumerate(work.graphs):
            if not check_assumptions(skel).all_pass:
                raise ShapeError(f"dumbbell-batch: graph {i} fails the assumptions")


def check_chain_pieces(work: Workload, diagram) -> None:
    if work.name == "chain" and len(diagram.pieces) != work.graphs[0].n:
        raise ShapeError(
            f"chain: {len(diagram.pieces)} recursion pieces, want {work.graphs[0].n}"
        )


def document(skel: Skeleton) -> str:
    """Input JSON document for ``skel`` with preferred dynamics."""
    return json.dumps(
        {
            "vertices": list(skel.vertex_labels),
            "k": skel.k,
            "matrices": [[list(row) for row in m] for m in skel.matrices],
            "dynamics": {"type": "preferred"},
            "rationally_independent": True,
        }
    )
