"""Shared helpers: instance generators and tiny independent oracles.

The oracles here deliberately use different algorithms from the library
(full product enumeration over all k parts instead of blocked-set
pruning) so that agreement is meaningful.
"""

import itertools
import random

import pytest

from balhyp.core import KPartiteHypergraph
from balhyp.models import sample_hknp


def random_instance(master: int, i: int, k: int, n: int, density: float = 0.3):
    """Deterministic pseudo-random n-balanced instance via the sampler."""
    p = min(density, 1.0)
    return sample_hknp(k, n, p, (master, i))


def cap_max_degree(h: KPartiteHypergraph, dmax: int) -> KPartiteHypergraph:
    """Drop edges (lexicographically largest through an offending vertex
    first) until every degree is at most dmax.  Deterministic."""
    edges = sorted(h.edges)
    deg = {}
    for e in edges:
        for j, idx in enumerate(e):
            deg[(j, idx)] = deg.get((j, idx), 0) + 1
    changed = True
    while changed:
        changed = False
        worst = None
        for key, d in sorted(deg.items()):
            if d > dmax and (worst is None or d > deg[worst]):
                worst = key
        if worst is None:
            break
        j, idx = worst
        victim = max(e for e in edges if e[j] == idx)
        edges.remove(victim)
        for jj, ii in enumerate(victim):
            deg[(jj, ii)] -= 1
        changed = True
    return KPartiteHypergraph(h.part_sizes, edges)


def oracle_alpha_b(h: KPartiteHypergraph) -> int:
    """Exhaustive max balanced-independent-set side, by direct product
    enumeration over all k parts (no pruning)."""
    edge_set = set(h.edges)
    for s in range(min(h.part_sizes), 0, -1):
        for combo in itertools.product(
            *(itertools.combinations(range(sz), s) for sz in h.part_sizes)
        ):
            members = [set(part) for part in combo]
            if not any(
                all(e[j] in members[j] for j in range(h.k)) for e in edge_set
            ):
                return s
    return 0


def oracle_exists_bis(h: KPartiteHypergraph, s: int) -> bool:
    if s == 0:
        return True
    return oracle_alpha_b(h) >= s


def mixed_instances(master: int, count: int, ks=(2, 3), n_max: int = 6):
    """A deterministic stream of assorted small instances."""
    pick = random.Random(master)
    out = []
    for i in range(count):
        k = pick.choice(ks)
        n = pick.randint(2, n_max)
        density = pick.choice([0.0, 0.1, 0.25, 0.5, 0.9])
        out.append(random_instance(master, i, k, n, density))
    return out


def product_instances(master: int, rounds: int, ks=(2, 3, 4), n_max: int = 4):
    """Seeded instances, per round and k: edgeless, density 0.3 and 0.7,
    and complete; part sizes drawn independently from 1..n_max, so most
    are unbalanced.  Edges come in lexicographic order."""
    pick = random.Random(master)
    out = []
    for _ in range(rounds):
        for k in ks:
            for density in (0.0, 0.3, 0.7, 1.0):
                sizes = [pick.randint(1, n_max) for _ in range(k)]
                edges = [
                    t for t in itertools.product(*map(range, sizes))
                    if pick.random() < density
                ]
                out.append(KPartiteHypergraph(sizes, edges))
    return out


@pytest.fixture
def tmp_text(tmp_path):
    def write(name: str, text: str):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write
