"""Seeded random model builders for the benchmark's inputs.

Every builder takes a `random.Random` and draws from it in a fixed
order, so one seed always yields the same models.  Models are built
with xbool's own constructors; the benchmark only ever hands the CLI the
files these models are serialized to.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from xbool.models import (
    DecisionList,
    DecisionSet,
    DecisionTree,
    DtInner,
    DtLeaf,
    Obdd,
    ObddNode,
)


def feature_names(n: int, prefix: str = "x") -> List[str]:
    return [f"{prefix}{i:02d}" for i in range(n)]


def rand_tree(rng, feats: Sequence[str], leaves: int, ordered: bool = False,
              min_depth: int = 0) -> DecisionTree:
    """Tree with exactly `leaves` leaves and no repeated test on a path.

    Grown by splitting a uniformly chosen leaf that still has a feature
    left to test, so the size (and with it the cost of every query on
    the tree) is fixed while the shape varies with the seed.  Leaves
    above `min_depth` are split first, so no path is shorter.  With
    `ordered`, every path tests features in the order given.
    """
    feats = tuple(feats)
    # open leaf: (path of (feature, bit), features it may still test)
    grown = [((), feats)]
    inner: List[Tuple[Tuple, str]] = []
    while len(grown) < leaves:
        open_ = [i for i, (_, avail) in enumerate(grown) if avail]
        shallow = [i for i in open_ if len(grown[i][0]) < min_depth]
        open_ = shallow or open_
        if not open_:
            raise ValueError(f"{len(feats)} features cannot hold {leaves} leaves")
        path, avail = grown.pop(open_[rng.randrange(len(open_))])
        # ordered paths skip at most two features per test, or they run dry
        at = rng.randrange(min(3, len(avail)) if ordered else len(avail))
        f = avail[at]
        rest = avail[at + 1 :] if ordered else avail[:at] + avail[at + 1 :]
        inner.append((path, f))
        grown.append((path + ((f, 0),), rest))
        grown.append((path + ((f, 1),), rest))
    ids = {path: f"n{i}" for i, (path, _) in enumerate(inner)}

    def name(path) -> str:
        return ids.get(path) or "l" + "".join(str(b) for _, b in path)

    nodes: Dict[str, object] = {}
    for path, f in inner:
        nodes[name(path)] = DtInner(f, name(path + ((f, 0),)), name(path + ((f, 1),)))
    for path, _ in grown:
        nodes[name(path)] = DtLeaf(rng.randint(0, 1))
    return DecisionTree(nodes, name(()))


def _prune(nodes: Dict[str, ObddNode], source: str, order) -> Obdd:
    keep = set()
    stack = [source]
    while stack:
        nid = stack.pop()
        if nid in ("t0", "t1") or nid in keep:
            continue
        keep.add(nid)
        stack.append(nodes[nid].zero)
        stack.append(nodes[nid].one)
    return Obdd({k: v for k, v in nodes.items() if k in keep}, source, "t0", "t1", order)


def _arcs(rng, below: List[str], nodes: int) -> List[Tuple[str, str]]:
    """Arc targets for one level: every node below gets a parent where the
    slots allow it, and no node sends both arcs to one child."""
    slots = list(below)
    if 2 * nodes < len(slots):
        slots = rng.sample(slots, 2 * nodes)
    slots += [rng.choice(below) for _ in range(2 * nodes - len(slots))]
    rng.shuffle(slots)
    arcs = []
    for i in range(nodes):
        zero, one = slots[2 * i], slots[2 * i + 1]
        if zero == one:
            # a lone node below can only pair with a sink (sparse diagrams)
            one = rng.choice([b for b in below if b != zero] or ["t0" if zero != "t0" else "t1"])
        arcs.append((zero, one))
    return arcs


def rand_complete_obdd(rng, order: Sequence[str], width: int) -> Obdd:
    """Complete diagram: every arc goes one level down, 2..width nodes a level."""
    order = tuple(order)
    nodes: Dict[str, ObddNode] = {}
    below = ["t0", "t1"]
    for lv in range(len(order) - 1, -1, -1):
        size = 1 if lv == 0 else rng.randint(2, width)
        layer = [f"c{lv}.{i}" for i in range(size)]
        for nid, (zero, one) in zip(layer, _arcs(rng, below, size)):
            nodes[nid] = ObddNode(order[lv], zero, one)
        below = layer
    return _prune(nodes, below[0], order)


def rand_sparse_obdd(rng, order: Sequence[str], width: int) -> Obdd:
    """Diagram where about a third of the 0-arcs skip a level, so it is
    not complete."""
    order = tuple(order)
    nodes: Dict[str, ObddNode] = {}
    below: List[str] = ["t0", "t1"]
    deeper: List[str] = []
    for lv in range(len(order) - 1, -1, -1):
        size = 1 if lv == 0 else rng.randint(1, width)
        layer = [f"s{lv}.{i}" for i in range(size)]
        for nid, (zero, one) in zip(layer, _arcs(rng, below, size)):
            if deeper and rng.random() < 0.3:
                zero = rng.choice(deeper)
            if zero == one:
                zero = "t1" if one == "t0" else "t0"
            nodes[nid] = ObddNode(order[lv], zero, one)
        deeper = [b for b in below if b not in ("t0", "t1")]
        below = layer
    return _prune(nodes, below[0], order)


def rand_term(rng, feats, lo: int, hi: int) -> List[Tuple[str, int]]:
    chosen = rng.sample(list(feats), rng.randint(lo, hi))
    return [(f, rng.randint(0, 1)) for f in chosen]


def rand_set(rng, feats, terms: int, lo: int, hi: int) -> DecisionSet:
    return DecisionSet([rand_term(rng, feats, lo, hi) for _ in range(terms)], rng.randint(0, 1))


def rand_list(rng, feats, rules: int, lo: int, hi: int) -> DecisionList:
    body = [(rand_term(rng, feats, lo, hi), rng.randint(0, 1)) for _ in range(rules)]
    return DecisionList(body + [([], rng.randint(0, 1))])


def rand_mcc_graph(rng, n: int, k: int, density: float) -> Dict:
    """Multicolored-clique graph in the JSON shape `xbool generate` reads."""
    parts = [i % k for i in range(n)]
    rng.shuffle(parts)
    verts = [[f"v{i}", parts[i]] for i in range(n)]
    edges = [
        [u, v]
        for (u, pu), (v, pv) in itertools.combinations(verts, 2)
        if pu != pv and rng.random() < density
    ]
    return {"vertices": verts, "edges": edges}


def rand_example(rng, feats) -> Dict[str, int]:
    return {f: rng.randint(0, 1) for f in sorted(feats)}
