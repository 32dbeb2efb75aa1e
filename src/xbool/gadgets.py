"""Deterministic generators for structurally hard explanation instances.

Each generator encodes a combinatorial problem (multicolored clique,
hitting set, DNF tautology) into a model whose explanation queries
answer the original question.  Constructions are seedless: identical
inputs give identical models, so generated files are golden-testable.
Each building block is written once: `_constant` builds every constant
model, `_HOM_GADGETS` holds each family's two `gen_maj_hom` gadgets,
`MccInstance.non_edges` lists the non-adjacent pairs, and every printed
query is written by `explain.query_to_json`.  The `generate` and `bench`
subcommands live at the end, so an `explain` or `verify` process never
compiles them.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .dt import DecisionTree, DtInner, DtLeaf, _emit_tree
from .ensemble import Ensemble
from .errors import BudgetExceeded, DeadlineExceeded, ModelError, SharedFeature
from .explain import ExplanationQuery, query_from_json, query_to_json
from .models import (
    DEFAULT_NODE_CAP,
    Example,
    Parameters,
    _bit,
    _load_text,
    _pairs,
    _wrong_type,
    classify,
    dumps_canonical,
    loads_model,
    measure_parameters,
    model_features,
    model_from_json,
)
from .obdd import Obdd, ObddNode, complete_obdd
from .obdd_product import obdd_ensemble_product
from .rules import DecisionSet
from .writer import dumps_model


class MccInstance:
    """Vertex-colored graph for multicolored-clique reductions.

    Vertices come with their part index; edges must join different
    parts (the coloring is proper).  Input order is preserved and
    drives every generator's naming and iteration order.
    """

    def __init__(
        self,
        vertices: Sequence[Tuple[str, int]],
        edges: Sequence[Tuple[str, str]] = (),
    ):
        names = []
        part: Dict[str, int] = {}
        for name, idx in vertices:
            name = str(name)
            if name in part:
                raise ModelError(f"duplicate vertex {name!r}")
            if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
                raise ModelError(f"part of {name!r} must be a non-negative integer")
            names.append(name)
            part[name] = idx
        if not names:
            raise ModelError("graph needs at least one vertex")
        k = max(part.values()) + 1
        if k > len(names):
            # bounds every generator's output by the graph's size
            raise ModelError(f"part index {k - 1} needs at least {k} vertices")
        pos = {v: i for i, v in enumerate(names)}
        near: Dict[str, Dict[str, None]] = {v: {} for v in names}
        ordered = []
        for u, v in edges:
            u, v = str(u), str(v)
            if u not in part or v not in part:
                raise ModelError(f"edge ({u!r}, {v!r}) uses an unknown vertex")
            if u == v:
                raise ModelError(f"self-loop at {u!r}")
            if part[u] == part[v]:
                raise ModelError(f"edge ({u!r}, {v!r}) stays inside one part")
            if v not in near[u]:
                near[u][v] = near[v][u] = None
                ordered.append((u, v) if pos[u] < pos[v] else (v, u))
        self.vertices: Tuple[str, ...] = tuple(names)
        self.part = part
        self.k = k
        self.edges: Tuple[Tuple[str, str], ...] = tuple(ordered)
        # each vertex's neighbours, in input order
        self._adjacent = {v: dict.fromkeys(sorted(hood, key=pos.__getitem__))
                          for v, hood in near.items()}

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adjacent[u]

    def part_members(self, i: int) -> Tuple[str, ...]:
        return tuple(v for v in self.vertices if self.part[v] == i)

    def neighbors(self, v: str) -> Tuple[str, ...]:
        return tuple(self._adjacent[v])

    def non_edges(self) -> List[Tuple[str, str]]:
        """The pairs of vertices no edge joins, in input order."""
        pairs = itertools.combinations(self.vertices, 2)
        return [(u, v) for u, v in pairs if not self.has_edge(u, v)]


def mcc_to_json(g: MccInstance) -> Dict:
    return {
        "vertices": [[v, g.part[v]] for v in g.vertices],
        "edges": [[u, v] for u, v in g.edges],
    }


def mcc_from_json(data: Mapping) -> MccInstance:
    """Graph from its JSON object; every shape error is a ModelError."""
    if not isinstance(data, dict):
        raise _wrong_type("the graph", dict, data)
    return MccInstance(
        _pairs(data.get("vertices", []), "the graph's vertices"),
        _pairs(data.get("edges", []), "the graph's edges"),
    )


def _check_k(g: MccInstance, k: Optional[int], at_least: int = 1) -> int:
    if k is None:
        k = g.k
    if k != g.k:
        raise ModelError(f"graph has {g.k} parts, not {k}")
    if g.k < at_least:
        raise ModelError(f"need at least {at_least} parts")
    return g.k


def _check_budget(k) -> None:
    # the rule and message of `ExplanationQuery`'s budget
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ModelError(f"budget must be a non-negative integer, got {k!r}")


def _non_negative(name: str, value: int) -> None:
    if value < 0:
        raise ModelError(f"{name} must be non-negative, got {value}")


def vertex_feature(v: str) -> str:
    return f"f.{v}"


def _constant(family: str, label: int, order: Sequence[str] = ()):
    """The model of `family` that answers `label` everywhere; a diagram
    reads `order`."""
    if family == "dt":
        leaf = "o" if label else "z"
        return DecisionTree({leaf: DtLeaf(label)}, leaf)
    if family == "ds":
        return DecisionSet([], label)
    return Obdd({}, f"t{label}", "t0", "t1", order)


# ---------------------------------------------------------------------------
# Decision trees unfolded from states
#
# `dt._emit_tree` unfolds the trees of the tree reductions straight
# from two kinds of state, each a plain tuple:
#   (_TRIE, order, rows, depth, ends): the examples a path agrees with.
#     Each row is the set of features its example sets to 1.  The state
#     splits the rows on order[depth]; no row left is a 0-leaf, and at full
#     depth the state `ends` gives for the first row carries on, or else
#     the path ends in a 1-leaf.  Every path tests a prefix of the order,
#     so the tree is ordered and repeat-free.
#   (_FAN, base, leaves, height, index, pos): a complete tree of the given
#     height (at least 1) whose node at preorder `index` tests
#     aux{base + index} and whose leaf at position `pos` from the left is
#     the state leaves[pos].

_TRIE, _FAN = "trie", "fan"
_REJECT = (_TRIE, (), (), 0, None)  # no rows: a 0-leaf


def _expand(s):
    while True:
        if s[0] is _TRIE:
            _, order, rows, depth, ends = s
            if not rows:
                return 0
            if depth == len(order):
                s = ends.get(rows[0])
                if s is None:
                    return 1
                continue
            f = order[depth]
            depth += 1
            # most nodes hold one row (every T[i][j] ends in such chains),
            # and a loop splits a few rows faster than two comprehensions
            if len(rows) == 1:
                if f in rows[0]:
                    return f, _REJECT, (_TRIE, order, rows, depth, ends)
                return f, (_TRIE, order, rows, depth, ends), _REJECT
            zero, one = [], []
            for r in rows:
                (one if f in r else zero).append(r)
            return f, (_TRIE, order, zero, depth, ends), (_TRIE, order, one, depth, ends)
        _, base, leaves, height, index, pos = s
        if height == 1:
            return f"aux{base + index}", leaves[pos], leaves[pos + 1]
        half = 1 << (height - 1)
        return (
            f"aux{base + index}",
            (_FAN, base, leaves, height - 1, index + 1, pos),
            (_FAN, base, leaves, height - 1, index + half, pos + half),
        )


def _unfold(start) -> DecisionTree:
    return _emit_tree(start, _expand)


def _accepting(order: Tuple[str, ...], rows) -> DecisionTree:
    return _unfold((_TRIE, order, list(rows), 0, {}))


def dt_from_examples(examples: Sequence[Example], order: Sequence[str]) -> DecisionTree:
    """Ordered tree classifying exactly the listed examples positively.

    Examples must be total over the order.  Leaf count stays within
    2 * len(examples) * len(order) + 1.
    """
    order = tuple(order)
    rows = [frozenset(f for f, z in _bits(e, order).items() if z) for e in examples]
    return _accepting(order, rows)


def _bits(e: Example, order: Tuple[str, ...]) -> Dict[str, int]:
    """`e` on the features of `order`, each of which it must set to 0 or 1."""
    for f in order:
        if f not in e:
            raise ModelError(f"example does not assign feature {f!r}")
        if e[f] not in (0, 1):
            raise ModelError(f"example value for {f!r} must be 0 or 1")
    return {f: int(e[f]) for f in order}


# ---------------------------------------------------------------------------
# Hitting set -> smallest local abductive set on a tree


def gen_hitting_set_laxp(
    universe: Sequence, sets: Sequence[Sequence], k: Optional[int] = None
) -> Tuple[DecisionTree, Dict[str, int], int]:
    """Tree accepting one example per set; hitting sets of the family
    and abductive sets for the all-zero example coincide size for size."""
    ground = [str(u) for u in universe]
    if len(set(ground)) != len(ground):
        raise ModelError("universe has duplicates")
    if not sets:
        raise ModelError("need at least one set")
    if k is None:
        k = len(ground)
    _check_budget(k)
    order = tuple(f"f{u}" for u in ground)
    rows = []
    for s in sets:
        members = {str(u) for u in s}
        if not members:
            raise ModelError("sets must be non-empty")
        if not members <= set(ground):
            raise ModelError("set element outside the universe")
        rows.append(frozenset(f"f{u}" for u in members))
    tree = _accepting(order, rows)
    e0 = {f: 0 for f in order}
    return tree, e0, k


# ---------------------------------------------------------------------------
# Multicolored clique -> small global abductive set on a tree


def _pair_state(g: MccInstance, i: int, j: int) -> tuple:
    """Start state of the tree T[i][j] of `gen_mcc_gaxp_dt`: a trie over
    part i accepting its all-zero row, where the unit row of a vertex v
    carries on into a trie over v's part-j neighbours accepting only
    their all-zero row."""
    members = g.part_members(i)
    ends = {}
    for v in members:
        hood = tuple(vertex_feature(u) for u in g.neighbors(v) if g.part[u] == j)
        ends[frozenset((vertex_feature(v),))] = (_TRIE, hood, [frozenset()], 0, {})
    order = tuple(vertex_feature(v) for v in members)
    return (_TRIE, order, [frozenset(), *ends], 0, ends)


def _pair_leaves(g: MccInstance, i: int, j: int) -> int:
    """Leaves of the tree T[i][j], counted without building it: with m
    vertices in part i, the p-th unit row ends in m - p + 1 leaves, the
    all-zero one in one, and each edge into part j adds a leaf."""
    members = g.part_members(i)
    m = len(members)
    cross = sum(g.part[u] == j for v in members for u in g.neighbors(v))
    return 1 + m * (m + 1) // 2 + cross


def gen_mcc_gaxp_dt(
    g: MccInstance,
    k: Optional[int] = None,
    max_k: int = 10,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Tuple[DecisionTree, int, int]:
    """Tree whose class-0 global abductive sets of size <= k mark cliques.

    The graph part sits in trees T[i][j]: accept when part i is all
    zero, or when exactly one of its vertices v is picked and none of
    v's part-j neighbours is.  A clique assignment cuts every accepting
    path.  Fresh auxiliary features fan the T[i][j] out 2^k times so no
    small abductive set can avoid them all without spending its budget
    on the graph features.
    """
    k = _check_k(g, k, at_least=2)
    _non_negative("max_k", max_k)
    _non_negative("node_cap", node_cap)
    if k > max_k:
        raise BudgetExceeded(f"k={k} exceeds the generator cap of {max_k}")
    pairs = [(i, j) for i in range(k) for j in range(k) if j != i]
    slots = len(pairs)
    depth = max(1, (slots - 1).bit_length()) if slots else 1
    per_fan = sum(_pair_leaves(g, i, j) for i, j in pairs) + (2**depth - slots)
    total = (2**k) * per_fan
    if total > node_cap:
        raise BudgetExceeded(f"{total} leaves exceed the cap of {node_cap}")
    # the 2^k lower fans hold the T[i][j] in turn, then 0-leaves; fresh
    # features are numbered lower fans first
    lower = [_pair_state(g, i, j) for i, j in pairs] + [_REJECT] * (2**depth - slots)
    inner = 2**depth - 1
    upper = [(_FAN, b * inner, lower, depth, 0, 0) for b in range(2**k)]
    return _unfold((_FAN, 2**k * inner, upper, k, 0, 0)), 0, k


# ---------------------------------------------------------------------------
# Multicolored clique -> homogeneity of a tree ensemble


def gen_mcc_dt_ensemble(g: MccInstance, k: Optional[int] = None) -> Ensemble:
    """Ensemble voting 1 exactly on multicolored cliques.

    One tree per part accepts the unit examples of that part, one tree
    per part pair accepts the edge examples across it, and constant-0
    trees pad the vote so a positive needs every non-constant tree.
    Element count is 2 * (k + C(k, 2)) - 1.
    """
    k = _check_k(g, k, at_least=2)
    elements = []
    for i in range(k):
        order = tuple(vertex_feature(v) for v in g.part_members(i))
        elements.append(_accepting(order, (frozenset((f,)) for f in order)))
    for i, j in itertools.combinations(range(k), 2):
        left, right = g.part_members(i), g.part_members(j)
        rows = (
            frozenset((vertex_feature(v), vertex_feature(u)))
            for v in left
            for u in right
            if g.has_edge(v, u)
        )
        elements.append(_accepting(tuple(vertex_feature(v) for v in left + right), rows))
    pad = k + k * (k - 1) // 2 - 1
    elements.extend(_constant("dt", 0) for _ in range(pad))
    return Ensemble(elements)


# ---------------------------------------------------------------------------
# Multicolored clique -> homogeneity of constant-size-element ensembles


# per family, the two gadgets of `gen_maj_hom`: 0 exactly when both
# features are set, and equal to the one feature
_HOM_GADGETS = {
    "dt": (
        lambda f1, f2: DecisionTree(
            {
                "a": DtInner(f1, "p", "b"),
                "b": DtInner(f2, "q", "r"),
                "p": DtLeaf(1),
                "q": DtLeaf(1),
                "r": DtLeaf(0),
            },
            "a",
        ),
        lambda f: DecisionTree({"a": DtInner(f, "p", "q"), "p": DtLeaf(0), "q": DtLeaf(1)}, "a"),
    ),
    "ds": (
        lambda f1, f2: DecisionSet([[(f1, 1), (f2, 1)]], 1),
        lambda f: DecisionSet([[(f, 1)]], 0),
    ),
    "obdd": (
        lambda f1, f2: Obdd(
            {"a": ObddNode(f1, "t1", "b"), "b": ObddNode(f2, "t1", "t0")},
            "a", "t0", "t1", (f1, f2),
        ),
        lambda f: Obdd({"a": ObddNode(f, "t0", "t1")}, "a", "t0", "t1", (f,)),
    ),
}


def gen_maj_hom(g: MccInstance, k: Optional[int] = None, family: str = "dt") -> Ensemble:
    """Constant-size-element ensemble that is non-constant iff the graph
    has a multicolored clique, discoverable within k flips of all-zero.

    Per non-edge a gadget that is 0 exactly when both its vertices are
    set, per vertex one equal to its vertex, and enough constant-0
    elements to put the vote threshold at (#non-edges) + k.
    """
    k = _check_k(g, k)
    # `family` comes from JSON params and may be unhashable
    if not isinstance(family, str) or family not in _HOM_GADGETS:
        raise ModelError(f"unknown family {family!r}")
    not_both, same = _HOM_GADGETS[family]
    pairs = g.non_edges()
    singles = [vertex_feature(v) for v in g.vertices]
    # never negative: a part of m vertices holds C(m, 2) >= m - 1
    # non-adjacent pairs and k is the part count, so the padding is at
    # least (n - k) - n + 2k - 1 = k - 1 >= 0
    pad = len(pairs) - len(singles) + 2 * k - 1
    elements = [not_both(vertex_feature(a), vertex_feature(b)) for a, b in pairs]
    elements += map(same, singles)
    elements += (_constant(family, 0) for _ in range(pad))
    return Ensemble(elements, shared_order=singles if family == "obdd" else None)


# ---------------------------------------------------------------------------
# DNF tautology and clique encodings on decision sets


def gen_taut_ds(terms: Sequence[Sequence[Tuple[str, int]]]) -> DecisionSet:
    """Set with the DNF's terms and default 0: it computes the formula,
    so the formula is a tautology iff the model is constant.  When the
    all-zero assignment falsifies the formula the instance is already a
    trivial non-tautology; the model still gets built."""
    return DecisionSet(terms, 0)


def gen_mcc_ds(g: MccInstance, k: Optional[int] = None) -> DecisionSet:
    """Positive exactly on multicolored cliques: a blocking term per
    non-adjacent vertex pair and an all-zero term per part."""
    k = _check_k(g, k)
    terms = [[(vertex_feature(a), 1), (vertex_feature(b), 1)] for a, b in g.non_edges()]
    for i in range(k):
        terms.append([(vertex_feature(v), 0) for v in g.part_members(i)])
    return DecisionSet(terms, 1)


def gen_mcc_ds_ensemble(g: MccInstance, k: Optional[int] = None) -> Ensemble:
    """2k+1 sets with terms of at most two literals; the vote is
    positive exactly on multicolored cliques."""
    k = _check_k(g, k)
    cross = [[(vertex_feature(a), 1), (vertex_feature(b), 1)] for a, b in g.non_edges()]
    elements = [DecisionSet(cross, 1)]
    for i in range(k):
        elements.append(
            DecisionSet([[(vertex_feature(v), 1)] for v in g.part_members(i)], 0)
        )
    elements.extend(_constant("ds", 0) for _ in range(k))
    return Ensemble(elements)


# ---------------------------------------------------------------------------
# Counter-style OBDD primitives

def _track_obdd(feats: Sequence[str], start: int, step, accept) -> Obdd:
    """Leveled diagram over feats: walk tracks via step(pos, track, bit),
    accept at the end iff the final track is in accept.  Only reachable
    track states are materialized, which keeps widths tight."""
    feats = tuple(feats)
    n = len(feats)
    if n == 0:
        return _constant("obdd", int(start in accept))
    nodes: Dict[str, ObddNode] = {}
    level: Set[int] = {start}
    for pos in range(n):
        nxt: Set[int] = set()
        for track in sorted(level):
            kids = []
            for bit in (0, 1):
                after = step(pos, track, bit)
                if pos + 1 == n:
                    kids.append("t1" if after in accept else "t0")
                else:
                    nxt.add(after)
                    kids.append(f"g{pos + 1}.{after}")
            nodes[f"g{pos}.{track}"] = ObddNode(feats[pos], kids[0], kids[1])
        level = nxt
    return Obdd(nodes, f"g0.{start}", "t0", "t1", feats)


def obdd_primitive(
    kind: str, features: Sequence[str], f: Optional[str] = None
) -> Obdd:
    """Width-3 counting diagrams used by the clique encodings.

    exactly_one / exists count set features with saturation at two;
    all_equal tracks all-zero vs all-one vs mismatch; iff_exists reads
    the extra feature f last and accepts iff it matches the exists bit.
    """
    feats = tuple(features)
    if len(set(feats)) != len(feats):
        raise ModelError("duplicate features")
    if kind == "iff_exists":
        if f is None:
            raise ModelError("iff_exists needs the extra feature")
        if f in feats:
            raise SharedFeature(f"{f!r} cannot appear in the counted set")
        n = len(feats)

        def step(pos, track, bit):
            if pos < n:
                after = min(track + bit, 2)
                return min(after, 1) if pos == n - 1 else after
            return 1 if bit == track else 0

        return _track_obdd(feats + (f,), 0, step, {1})
    if f is not None:
        raise ModelError(f"{kind} takes no extra feature")
    if not feats:
        raise ModelError(f"{kind} needs at least one feature")
    if kind == "exactly_one":
        return _track_obdd(feats, 0, lambda p, t, b: min(t + b, 2), {1})
    if kind == "exists":
        return _track_obdd(feats, 0, lambda p, t, b: min(t + b, 2), {1, 2})
    if kind == "all_equal":

        def step(pos, track, bit):
            if pos == 0:
                return bit
            return track if track != 2 and bit == track else 2

        return _track_obdd(feats, 0, step, {0, 1})
    raise ModelError(f"unknown primitive {kind!r}")


def obdd_conjoin(pieces: Sequence[Obdd]) -> Obdd:
    """Serial conjunction of feature-disjoint complete diagrams.

    Accepting one block continues into the next; rejecting drops onto a
    bypass track that rides every remaining level into the 0-sink, so
    completeness is preserved and width grows by at most one.
    """
    pieces = [complete_obdd(p) for p in pieces]
    seen: Set[str] = set()
    full_order: List[str] = []
    for p in pieces:
        for feat in p.order:
            if feat in seen:
                raise SharedFeature(f"feature {feat!r} appears in two pieces")
            seen.add(feat)
            full_order.append(feat)
    order = tuple(full_order)
    label = int(all(p.sink_label(p.source) == 1 for p in pieces if not p.order))
    pieces = [p for p in pieces if p.order]
    if not pieces or not label:
        return complete_obdd(_constant("obdd", label, order))
    offsets = []
    at = 0
    for p in pieces:
        offsets.append(at)
        at += len(p.order)
    total = at
    nodes: Dict[str, ObddNode] = {}
    first_bypass = len(pieces[0].order)
    for lv in range(first_bypass, total):
        follow = f"byp@{lv + 1}" if lv + 1 < total else "t0"
        nodes[f"byp@{lv}"] = ObddNode(order[lv], follow, follow)

    def landing(idx: int, sink_label: int) -> str:
        if sink_label == 1:
            if idx + 1 == len(pieces):
                return "t1"
            return f"b{idx + 1}.{pieces[idx + 1].source}"
        if idx + 1 == len(pieces):
            return "t0"
        return f"byp@{offsets[idx + 1]}"

    for idx, p in enumerate(pieces):
        for nid, node in p.nodes.items():
            kids = []
            for child in (node.zero, node.one):
                label = p.sink_label(child)
                if label is None:
                    kids.append(f"b{idx}.{child}")
                else:
                    kids.append(landing(idx, label))
            nodes[f"b{idx}.{nid}"] = ObddNode(node.feature, kids[0], kids[1])
    source = f"b0.{pieces[0].source}"
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


# ---------------------------------------------------------------------------
# Multicolored clique -> homogeneity of three majority-voted OBDDs


def gen_mcc_obdd_maj(g: MccInstance, k: Optional[int] = None) -> Ensemble:
    """Three diagrams over different orders whose majority is positive
    exactly on clique selections.

    The first checks that every feature group (a vertex with its k+1
    copies, an edge with its two directed copies) is set uniformly; the
    second, grouped the other way, checks one vertex per part, one edge
    per part pair, and that a vertex copy is set iff a selected edge
    leaves it toward that part; the third always votes no.  Positive
    examples carry exactly 3*C(k,2) + k*(k+2) ones.  A pair of parts
    without an edge (an empty part leaves one) admits no clique, so the
    verifier is then a constant no vote.
    """
    k = _check_k(g, k, at_least=2)
    fv = lambda a: f"v.{a}"
    fw = lambda a: f"w.{a}"
    fc = lambda a, j: f"c.{a}.{j}"
    fp = lambda a, b: f"p.{a}.{b}"
    fq = lambda a, b: f"q.{a}.{b}"
    uniform = []
    for a in g.vertices:
        group = (fv(a), fw(a)) + tuple(fc(a, j) for j in range(k))
        uniform.append(obdd_primitive("all_equal", group))
    for a, b in g.edges:
        uniform.append(obdd_primitive("all_equal", (fp(a, b), fq(a, b), fq(b, a))))
    o1 = obdd_conjoin(uniform)
    # a clique needs an edge across every pair of parts
    if len({frozenset((g.part[a], g.part[b])) for a, b in g.edges}) < k * (k - 1) // 2:
        return Ensemble([o1, _constant("obdd", 0), _constant("obdd", 0)])
    verify = [
        obdd_primitive("exactly_one", tuple(fw(a) for a in g.part_members(i)))
        for i in range(k)
    ]
    for i, j in itertools.combinations(range(k), 2):
        cross = tuple(fp(a, b) for a, b in g.edges if {g.part[a], g.part[b]} == {i, j})
        verify.append(obdd_primitive("exactly_one", cross))
    for a in g.vertices:
        for j in range(k):
            if j != g.part[a]:
                hood = tuple(fq(a, b) for b in g.neighbors(a) if g.part[b] == j)
                verify.append(obdd_primitive("iff_exists", hood, fc(a, j)))
    return Ensemble([o1, obdd_conjoin(verify), _constant("obdd", 0)])


# ---------------------------------------------------------------------------
# Agreement counter and the local-to-global lift


def obdd_agreement_counter(
    e: Example, k: int, order: Sequence[str], out_class: int = 1
) -> Obdd:
    """Classifies e' as out_class iff e and e' agree on at least k of
    the order's features; width stays within k+1."""
    order = tuple(order)
    if not 0 <= k <= len(order):
        raise ModelError(f"threshold {k} out of range for {len(order)} features")
    bits = _bits(e, order)

    def step(pos, track, bit):
        return min(track + (1 if bit == bits[order[pos]] else 0), k)

    # the counter saturates at k: class 1 accepts track k, class 0 the rest
    accept = {k} if _bit(out_class, "out_class") else set(range(k))
    return _track_obdd(order, 0, step, accept)


def gen_laxp_to_gaxp(
    o: Obdd, e: Example, k: int, node_cap: int = DEFAULT_NODE_CAP
) -> Tuple[Obdd, int, int]:
    """Product diagram turning a size-k local abductive query into the
    matching global one: majority of the original diagram, an
    agreement counter around e, and a constant drag vote for the other
    class.  Budgets above the feature count clamp to it, which keeps
    the equivalence tight."""
    if not isinstance(o, Obdd):
        raise ModelError("the lift takes a diagram")
    _check_budget(k)
    _non_negative("node_cap", node_cap)
    o = complete_obdd(o)
    c = classify(o, e)
    threshold = min(k, len(o.order))
    counter = obdd_agreement_counter(e, threshold, o.order, out_class=c)
    ens = Ensemble([o, counter, _constant("obdd", 1 - c)], shared_order=o.order)
    return obdd_ensemble_product(ens, node_cap), c, k


# ---------------------------------------------------------------------------
# The `generate` params table: each maker reads its gadget's params from
# the params object and returns (model, the query it is meant for or None)


def _query(kind: str, target, k: int) -> Dict:
    return query_to_json(ExplanationQuery(kind, "cardinality", target, k))


def _zero_query(model, k: Optional[int]) -> Dict:
    feats = model_features(model)
    return _query("lCXp", {f: 0 for f in feats}, len(feats) if k is None else k)


def _integer(params: Dict, key: str, default=None, required: bool = False):
    """Integer param `key`; unless `required`, `default` when it is
    absent, and an optional param (default None) may also be null."""
    value = params[key] if required else params.get(key, default)
    if type(value) is int or (value is None and default is None and not required):
        return value
    raise ModelError(f"param {key!r} must be an integer, got {value!r}")


def _count(params: Dict, key: str, default: int) -> int:
    value = _integer(params, key, default)
    _non_negative(f"param {key!r}", value)
    return value


def _array(params: Dict, key: str) -> list:
    value = params[key]
    if not isinstance(value, list):
        raise _wrong_type(f"param {key!r}", list, value)
    return value


def _make_hitting_set(params):
    sets = _array(params, "sets")
    for s in sets:
        if not isinstance(s, list):
            raise _wrong_type("each entry of param 'sets'", list, s)
    tree, e0, k = gen_hitting_set_laxp(
        _array(params, "universe"), sets, _integer(params, "k")
    )
    return tree, _query("lAXp", e0, k)


def _make_mcc_gaxp_dt(params):
    g = mcc_from_json(params["graph"])
    tree, target, k = gen_mcc_gaxp_dt(
        g,
        _integer(params, "k"),
        _count(params, "max_k", 10),
        _count(params, "node_cap", DEFAULT_NODE_CAP),
    )
    return tree, _query("gAXp", target, k)


def _clique(generate, *options, query: bool = True):
    """Maker for `generate(graph, k, **options)`: the graph, an optional
    integer `k` and each of the `options` given are read from the params,
    and the model is paired with the all-zero contrastive query of
    budget k unless `query` is False."""

    def make(params):
        g = mcc_from_json(params["graph"])
        given = {key: params[key] for key in options if key in params}
        model = generate(g, _integer(params, "k"), **given)
        return model, _zero_query(model, g.k) if query else None

    return make


def _make_taut_ds(params):
    ds = gen_taut_ds([_pairs(t, "a term") for t in _array(params, "terms")])
    return ds, _zero_query(ds, None)


def _make_laxp_to_gaxp(params):
    raw = params["model"]
    model = loads_model(_load_text(raw)) if isinstance(raw, str) else model_from_json(raw)
    example = params["example"]
    if not isinstance(example, dict):
        raise _wrong_type("param 'example'", dict, example)
    prod, target, k = gen_laxp_to_gaxp(
        model,
        example,
        _integer(params, "k", required=True),
        _count(params, "node_cap", DEFAULT_NODE_CAP),
    )
    return prod, _query("gAXp", target, k)


GENERATORS = {
    "hitting_set": _make_hitting_set,
    "mcc_gaxp_dt": _make_mcc_gaxp_dt,
    "mcc_dt_ensemble": _clique(gen_mcc_dt_ensemble),
    "maj_hom": _clique(gen_maj_hom, "family"),
    "taut_ds": _make_taut_ds,
    "mcc_ds": _clique(gen_mcc_ds, query=False),
    "mcc_ds_ensemble": _clique(gen_mcc_ds_ensemble),
    "mcc_obdd_maj": _clique(gen_mcc_obdd_maj),
    "laxp_to_gaxp": _make_laxp_to_gaxp,
}


# ---------------------------------------------------------------------------
# The `generate` and `bench` subcommands


def cmd_generate(args) -> int:
    from .cli import _structured, _write_stdout

    maker = GENERATORS.get(args.gadget)
    if maker is None:
        raise ModelError(
            f"unknown gadget {args.gadget!r}; available: {', '.join(sorted(GENERATORS))}"
        )
    params = _structured(args.params)
    if not isinstance(params, dict):
        raise _wrong_type("the params", dict, params)
    try:
        model, query = maker(params)
    except KeyError as missing:
        raise ModelError(f"params object misses {missing}") from None
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model))
    summary: Dict = {"gadget": args.gadget, "kind": model.kind}
    if query is not None:
        summary["query"] = query
    _write_stdout(dumps_canonical(summary))
    return 0


_BENCH_COLUMNS = ("instance", *Parameters.__slots__, "witness_size", "route", "status", "time_ms")


def _bench_row(path: str, q: ExplanationQuery, args) -> Dict:
    from .cli import _load_model, _with_timeout, run_explain

    row: Dict = {"instance": os.path.basename(path)}

    def solve():
        model = _load_model(path)
        row.update(measure_parameters(model).to_json())
        witness, row["route"] = run_explain(
            model, q, args.route, args.cap_nodes, args.guard_features
        )
        row["status"] = "ok" if witness is not None else "none"
        if witness is not None:
            row["witness_size"] = witness.size

    started = time.perf_counter()
    try:
        _with_timeout(solve, args.timeout_ms)
    except DeadlineExceeded:
        row = {"instance": row["instance"], "status": "timeout"}
    except Exception as err:
        row["status"] = "error"
        row["route"] = type(err).__name__
    row["time_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return row


def cmd_bench(args) -> int:
    """One row per corpus file, run in name order, each under its own deadline."""
    import csv
    import io

    from .cli import _emit, _structured

    q = query_from_json(_structured(args.query))
    files = sorted(f for f in os.listdir(args.corpus) if f.endswith(".json"))
    rows = [_bench_row(os.path.join(args.corpus, f), q, args) for f in files]
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=_BENCH_COLUMNS, lineterminator="\n", restval=""
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _emit(buffer.getvalue(), args.out)
    return 0
