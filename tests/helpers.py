"""Shared test machinery: seeded random model builders and independent
brute-force checkers that the library results are compared against."""

import hashlib
import itertools
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from xbool.models import (
    DecisionList,
    DecisionSet,
    DecisionTree,
    DtInner,
    DtLeaf,
    Ensemble,
    Obdd,
    ObddNode,
    classify,
    complete_obdd,
    model_features,
)
from xbool import circuits
from xbool.writer import dumps_model
from xbool.circuits import Circuit, Gate
from xbool.gadgets import MccInstance, vertex_feature
from xbool.explain import ExplanationQuery, Witness, is_explanation, oracle_min


def all_examples(feats: Sequence[str]):
    feats = tuple(feats)
    for bits in itertools.product((0, 1), repeat=len(feats)):
        yield dict(zip(feats, bits))


def models_equal(a, b, feats) -> bool:
    return all(classify(a, e) == classify(b, e) for e in all_examples(feats))


# ---------------------------------------------------------------------------
# Random models


def rand_dt(rng, feats: Sequence[str], split: float = 0.75) -> DecisionTree:
    """Random tree without repeated features along any path."""
    counter = itertools.count()
    nodes = {}

    def build(avail: Tuple[str, ...]) -> str:
        nid = f"n{next(counter)}"
        if avail and rng.random() < split:
            f = avail[rng.randrange(len(avail))]
            rest = tuple(g for g in avail if g != f)
            nodes[nid] = DtInner(f, build(rest), build(rest))
        else:
            nodes[nid] = DtLeaf(rng.randint(0, 1))
        return nid

    root = build(tuple(feats))
    return DecisionTree(nodes, root)


def rand_dt_with_repeats(rng, feats: Sequence[str], depth: int = 4) -> DecisionTree:
    """Random tree that may test a feature again below itself."""
    counter = itertools.count()
    nodes = {}

    def build(left: int) -> str:
        nid = f"n{next(counter)}"
        if left == 0 or rng.random() < 0.3:
            nodes[nid] = DtLeaf(rng.randint(0, 1))
        else:
            nodes[nid] = DtInner(rng.choice(feats), build(left - 1), build(left - 1))
        return nid

    root = build(depth)
    return DecisionTree(nodes, root)


def chain_dt(depth: int, along: int = 1, repeat: bool = False) -> DecisionTree:
    """Tree whose inner nodes n0..n{depth-1} form one path along the
    `along` arcs, node i testing x{i:05d}; every other arc ends in a leaf
    of class 0 and the path's end in class 1.  With `repeat`, the last
    node tests the root's feature again."""
    nodes = {}
    for i in range(depth):
        feature = "x00000" if repeat and i == depth - 1 and i else f"x{i:05d}"
        onward = f"n{i + 1}" if i + 1 < depth else "end"
        off = f"l{i}"
        nodes[off] = DtLeaf(0)
        nodes[f"n{i}"] = DtInner(feature, *((off, onward) if along else (onward, off)))
    nodes["end"] = DtLeaf(1)
    return DecisionTree(nodes, "n0")


def chain_obdd(depth: int) -> Obdd:
    """Diagram reading x00000.. in order whose 1-arcs form one path into
    t1; every 0-arc skips to t0."""
    order = tuple(f"x{i:05d}" for i in range(depth))
    nodes = {
        f"c{i}": ObddNode(f, "t0", f"c{i + 1}" if i + 1 < depth else "t1")
        for i, f in enumerate(order)
    }
    return Obdd(nodes, "c0", "t0", "t1", order)


def rand_partial(rng, feats) -> Dict[str, int]:
    return {f: rng.randint(0, 1) for f in feats if rng.random() < 0.5}


def rand_ordered_dt(rng, feats: Sequence[str], split: float = 0.8) -> DecisionTree:
    """Random tree whose every path tests features in the given order."""
    counter = itertools.count()
    nodes = {}

    def build(lo: int) -> str:
        nid = f"n{next(counter)}"
        if lo < len(feats) and rng.random() < split:
            at = rng.randrange(lo, len(feats))
            nodes[nid] = DtInner(feats[at], build(at + 1), build(at + 1))
        else:
            nodes[nid] = DtLeaf(rng.randint(0, 1))
        return nid

    root = build(0)
    return DecisionTree(nodes, root)


def rand_term(rng, feats: Sequence[str], max_len: int) -> List[Tuple[str, int]]:
    size = rng.randint(1, max(1, min(max_len, len(feats))))
    chosen = rng.sample(list(feats), size)
    return [(f, rng.randint(0, 1)) for f in chosen]


def rand_ds(rng, feats, max_terms: int = 4, max_len: int = 3) -> DecisionSet:
    terms = [rand_term(rng, feats, max_len) for _ in range(rng.randint(0, max_terms))]
    return DecisionSet(terms, rng.randint(0, 1))


def rand_dl(rng, feats, max_rules: int = 5, max_len: int = 3) -> DecisionList:
    rules = [
        (rand_term(rng, feats, max_len), rng.randint(0, 1))
        for _ in range(rng.randint(0, max_rules - 1))
    ]
    rules.append(([], rng.randint(0, 1)))
    return DecisionList(rules)


def rand_obdd(rng, feats: Sequence[str], width: int = 4) -> Obdd:
    """Random complete diagram with at most `width` nodes per level."""
    order = tuple(feats)
    n = len(order)
    nodes: Dict[str, ObddNode] = {}
    below: List[str] = ["t0", "t1"]
    for lv in range(n - 1, -1, -1):
        layer = []
        for idx in range(1 if lv == 0 else rng.randint(1, width)):
            nid = f"n{lv}.{idx}"
            nodes[nid] = ObddNode(order[lv], rng.choice(below), rng.choice(below))
            layer.append(nid)
        below = layer
    source = below[0] if n else rng.choice(("t0", "t1"))
    keep = set()
    stack = [source]
    while stack:
        nid = stack.pop()
        if nid in ("t0", "t1") or nid in keep:
            continue
        keep.add(nid)
        stack.append(nodes[nid].zero)
        stack.append(nodes[nid].one)
    return Obdd(
        {k: v for k, v in nodes.items() if k in keep}, source, "t0", "t1", order
    )


def rand_sparse_obdd(rng, feats: Sequence[str]) -> Obdd:
    """Random diagram whose arcs may skip levels (not complete)."""
    order = tuple(feats)
    n = len(order)
    layers: List[List[str]] = [[] for _ in range(n)]
    nodes: Dict[str, ObddNode] = {}
    for lv in range(n - 1, -1, -1):
        targets = ["t0", "t1"] + [nid for L in layers[lv + 1 :] for nid in L]
        for idx in range(1 if lv == 0 else rng.randint(0, 2)):
            nid = f"n{lv}.{idx}"
            nodes[nid] = ObddNode(order[lv], rng.choice(targets), rng.choice(targets))
            layers[lv].append(nid)
    source = layers[0][0] if n and layers[0] else rng.choice(("t0", "t1"))
    keep = set()
    stack = [source]
    while stack:
        nid = stack.pop()
        if nid in ("t0", "t1") or nid in keep:
            continue
        keep.add(nid)
        stack.append(nodes[nid].zero)
        stack.append(nodes[nid].one)
    return Obdd(
        {k: v for k, v in nodes.items() if k in keep}, source, "t0", "t1", order
    )


def random_circuit(rng, inputs: Sequence[str], gates: int) -> Circuit:
    """Random valid DAG over `inputs`: `gates` AND/OR/NOT/MAJ gates, each
    reading one to three earlier gates or inputs (repeats allowed), then
    an output gate reading every gate nothing else reads."""
    table = {f: Gate("IN") for f in inputs}
    readable, unread = list(inputs), []
    for i in range(gates):
        srcs = rng.choices(readable, k=rng.randint(1, 3))
        gid = f"g{i}"
        table[gid] = _random_gate(rng, srcs)
        unread = [g for g in unread if g not in srcs] + [gid]
        readable.append(gid)
    table["out"] = _random_gate(rng, unread or [rng.choice(readable)])
    return Circuit(table, "out")


def _random_gate(rng, srcs: Sequence[str]) -> Gate:
    kinds = ("AND", "OR", "MAJ", "NOT") if len(srcs) == 1 else ("AND", "OR", "MAJ")
    kind = rng.choice(kinds)
    threshold = rng.randint(1, len(srcs) + 1) if kind == "MAJ" else None
    return Gate(kind, tuple(srcs), threshold)


def six_compiled(rng, feats):
    """One random model per compiler, with its compiler."""
    def three(make):
        return Ensemble([make(rng, feats) for _ in range(3)])

    return [
        (circuits.compile_dt, rand_dt(rng, feats)),
        (circuits.compile_dl, rand_dl(rng, feats)),
        (circuits.compile_obdd, rand_obdd(rng, feats)),
        (circuits.compile_dt_ensemble, three(rand_dt)),
        (circuits.compile_dl_ensemble, three(rand_dl)),
        (circuits.compile_obdd_ensemble_ordered, three(rand_obdd)),
    ]


def compiled_digest(rounds: int = 8) -> str:
    """sha256 of every compiler's JSON, Graphviz and truth table for both
    classes over a seeded corpus.  One feature set is named like builder
    gates (@0, @0~, @1), so gate ids must step around them."""
    rng = random.Random(191)
    h = hashlib.sha256()
    for feats in (("x0", "x1", "x2", "x3", "x4"), ("@0", "@0~", "@1", "x")):
        for _ in range(rounds):
            for compile_fn, model in six_compiled(rng, feats):
                if not model_features(model):
                    continue
                for c in (0, 1):
                    circuit = compile_fn(model, c)
                    h.update(circuits.dumps_circuit(circuit).encode())
                    h.update(circuits.circuit_to_dot(circuit).encode())
                    h.update(b"%x\n" % circuits.circuit_table(circuit))
    return h.hexdigest()


def writer_digest(rounds: int = 12) -> str:
    """sha256 of `dumps_model` over a seeded corpus of every family: trees
    with and without repeated tests, one-leaf trees, complete and sparse
    diagrams, diagram constants, rule sets and lists, and ensembles of
    trees and of diagrams under a shared order."""
    rng = random.Random(307)
    feats = ("a", "b", "c", "d")
    corpus = []
    for _ in range(rounds):
        trees = [rand_dt(rng, feats), rand_dt_with_repeats(rng, feats), rand_ordered_dt(rng, feats)]
        diagrams = [rand_obdd(rng, feats), rand_sparse_obdd(rng, feats)]
        corpus += trees + diagrams + [rand_ds(rng, feats), rand_dl(rng, feats)]
        corpus.append(Ensemble(trees))
        corpus.append(Ensemble(diagrams[:1] * 3, shared_order=feats + ("e",)))
    for label in (0, 1):
        corpus.append(DecisionTree({f"l{label}": DtLeaf(label)}, f"l{label}"))
        for order in ((), feats):
            corpus.append(Obdd({}, f"t{label}", "t0", "t1", order))
    h = hashlib.sha256()
    for model in corpus:
        h.update(dumps_model(model).encode())
    return h.hexdigest()


def eval_digest(rounds: int = 4) -> str:
    """sha256 of `eval_circuit` at every point of a seeded corpus, each
    result by its repr so a bool or float would show: all six compilers
    for both classes, random hand-built circuits, MAJ gates over repeated
    inputs at every threshold up to len+1, and outputs that are an input
    or a NOT of one."""
    rng = random.Random(211)
    feats = tuple(f"x{i}" for i in range(5))
    corpus = []
    for _ in range(rounds):
        for compile_fn, model in six_compiled(rng, feats):
            if model_features(model):
                corpus += [compile_fn(model, 0), compile_fn(model, 1)]
    for _ in range(60):
        corpus.append(random_circuit(rng, feats[: rng.randint(1, 5)], rng.randint(0, 12)))
    for size in range(1, 4):
        names = feats[:size]
        ins = {f: Gate("IN") for f in names}
        for srcs in (names, names + names[:1], names[:1] * 3):
            for t in range(1, len(srcs) + 2):
                corpus.append(Circuit({**ins, "o": Gate("MAJ", srcs, t)}, "o"))
    ins = {f: Gate("IN") for f in feats[:3]}
    corpus.append(Circuit(ins, "x1"))
    corpus.append(Circuit({**ins, "o": Gate("NOT", ("x1",))}, "o"))
    h = hashlib.sha256()
    for c in corpus:
        names = c.inputs()
        for i in range(1 << len(names)):
            e = {f: i >> j & 1 for j, f in enumerate(names)}
            h.update(repr(circuits.eval_circuit(c, e)).encode())
        h.update(b"\n")
    return h.hexdigest()


def rand_example(rng, feats) -> Dict[str, int]:
    return {f: rng.randint(0, 1) for f in feats}


def graft_unpruned(ens: Ensemble) -> DecisionTree:
    """The full leaf-wise product of a tree ensemble, repeated tests and
    contradictory paths included: the reference the pruned graft must
    equal once `simplify_dt` has cleaned it up."""
    trees = ens.elements
    majority = len(trees) // 2 + 1
    counter = itertools.count()
    leaves = {}
    inner = {}
    root_slot = {}
    work = [(0, trees[0].start, 0, root_slot, "root")]
    while work:
        ti, nid, votes, slot, key = work.pop()
        node = trees[ti].nodes[nid]
        while isinstance(node, DtLeaf):
            votes += node.label
            ti += 1
            if ti == len(trees):
                break
            node = trees[ti].nodes[trees[ti].start]
        fresh = f"n{next(counter)}"
        slot[key] = fresh
        if isinstance(node, DtLeaf):
            leaves[fresh] = DtLeaf(1 if votes >= majority else 0)
        else:
            fields = {}
            inner[fresh] = (node.feature, fields)
            work.append((ti, node.one, votes, fields, "one"))
            work.append((ti, node.zero, votes, fields, "zero"))
    nodes = dict(leaves)
    for fresh, (feature, fields) in inner.items():
        nodes[fresh] = DtInner(feature, fields["zero"], fields["one"])
    return DecisionTree(nodes, root_slot["root"])


# ---------------------------------------------------------------------------
# JSON documents for fuzzing


def json_paths(value, prefix=()):
    """The path of every value inside a JSON document, the root first."""
    yield prefix
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from json_paths(inner, prefix + (key,))
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield from json_paths(inner, prefix + (i,))


def with_replaced(value, path, new):
    """A copy of the document with the value at `path` replaced by `new`."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = with_replaced(value[path[0]], path[1:], new)
    return copy


# ---------------------------------------------------------------------------
# Brute-force reference checks


def min_hitting_set(universe, sets) -> Optional[int]:
    universe = list(universe)
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            chosen = set(combo)
            if all(chosen & set(s) for s in sets):
                return size
    return None


def has_multicolored_clique(g: MccInstance) -> bool:
    parts = [g.part_members(i) for i in range(g.k)]
    if any(not p for p in parts):
        return False
    for combo in itertools.product(*parts):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
            return True
    return False


def random_mcc(rng, n: int, k: int, density: float = 0.5) -> MccInstance:
    labels = [i % k for i in range(n)]
    rng.shuffle(labels)
    verts = [(f"v{i}", labels[i]) for i in range(n)]
    part = dict(verts)
    edges = [
        (u, v)
        for (u, _), (v, _) in itertools.combinations(verts, 2)
        if part[u] != part[v] and rng.random() < density
    ]
    return MccInstance(verts, edges)


def zero_example(model) -> Dict[str, int]:
    return {f: 0 for f in model_features(model)}


def hom_bruteforce(model) -> bool:
    """True iff the model is homogeneous (every example matches e0)."""
    feats = sorted(model_features(model))
    e0 = {f: 0 for f in feats}
    c = classify(model, e0)
    return all(classify(model, e) == c for e in all_examples(feats))


def p_hom_bruteforce(model, k: int) -> bool:
    """True iff some example with at most k ones flips the class of e0."""
    feats = sorted(model_features(model))
    e0 = {f: 0 for f in feats}
    c = classify(model, e0)
    for size in range(0, min(k, len(feats)) + 1):
        for combo in itertools.combinations(feats, size):
            e = dict(e0)
            for f in combo:
                e[f] = 1
            if classify(model, e) != c:
                return True
    return False


def hom_statements(model) -> List[bool]:
    """The nine equivalent homogeneity formulations, each evaluated
    through the public query machinery rather than one shared shortcut."""
    feats = sorted(model_features(model))
    e0 = {f: 0 for f in feats}
    c = classify(model, e0)
    empty_set = Witness(features=())
    empty_tau = Witness(assignment=())
    return [
        hom_bruteforce(model),
        is_explanation(model, ExplanationQuery("lAXp", "subset", e0), empty_set),
        oracle_min(model, ExplanationQuery("lCXp", "subset", e0)) is None,
        is_explanation(model, ExplanationQuery("gAXp", "subset", c), empty_tau),
        is_explanation(model, ExplanationQuery("gCXp", "subset", 1 - c), empty_tau),
        oracle_min(model, ExplanationQuery("lAXp", "cardinality", e0, k=0)) is not None,
        oracle_min(model, ExplanationQuery("lCXp", "cardinality", e0, k=len(feats)))
        is None,
        oracle_min(model, ExplanationQuery("gAXp", "cardinality", c, k=0)) is not None,
        oracle_min(model, ExplanationQuery("gCXp", "cardinality", 1 - c, k=0))
        is not None,
    ]


def gaxp_within(tree: DecisionTree, k: int) -> bool:
    """Branch over accepting paths: a size-k class-0 abductive assignment
    exists iff k contradictions can cut every path to a 1-leaf."""
    paths = []
    stack = [(tree.start, [])]
    while stack:
        nid, alpha = stack.pop()
        node = tree.nodes[nid]
        if isinstance(node, DtLeaf):
            if node.label == 1:
                paths.append(dict(alpha))
            continue
        stack.append((node.zero, alpha + [(node.feature, 0)]))
        stack.append((node.one, alpha + [(node.feature, 1)]))

    def cut(tau: Dict[str, int], depth: int) -> bool:
        for path in paths:
            if all(tau.get(f, v) == v for f, v in path.items()):
                if depth == 0:
                    return False
                for f, v in path.items():
                    if f not in tau:
                        tau2 = dict(tau)
                        tau2[f] = 1 - v
                        if cut(tau2, depth - 1):
                            return True
                return False
        return True

    return cut({}, k)
