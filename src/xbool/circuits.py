"""Boolean circuits with majority gates, and model-to-circuit compilers.

A compiled circuit computes the indicator [model(e) = target class].
Each compiler also reports a closed-form width bound derived from the
model's measured parameters; the bound is metadata for cost estimates,
nothing in here computes an actual decomposition.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ModelError, TooLarge, UnassignedInput
from .dt import DecisionTree, _leaf_paths, dt_mnl, simplify_dt
from .explain import DEFAULT_GUARD, ExplanationQuery, Witness
from .models import (
    DecisionList,
    Ensemble,
    Example,
    _bit,
    _require,
    _strings,
    _wrong_type,
    dl_size,
    dumps_canonical,
)
from .obdd import Obdd, _rebase, _restriction, obdd_width
from .records import Frozen
from .tables import TableOracle, at_least, feature_mask

GATE_KINDS = ("IN", "AND", "OR", "NOT", "MAJ")


class Gate(Frozen):
    __slots__ = ("kind", "inputs", "threshold")

    def __init__(
        self, kind: str, inputs: Tuple[str, ...] = (), threshold: Optional[int] = None
    ):
        self._fill(kind, inputs, threshold)


class Circuit:
    """Gate DAG with a designated output and compile-time metadata.

    Unused IN gates are legal (a model may ignore a feature); every
    other non-output gate must feed something.  The cycle check's
    topological order is kept, so evaluation is one straight-line pass.
    """

    def __init__(
        self,
        gates: Mapping[str, Gate],
        output: str,
        source_kind: str = "circuit",
        target_class: int = 1,
        reported_width_bound: Optional[int] = None,
    ):
        gates = dict(gates)
        if output not in gates:
            raise ModelError(f"output {output!r} is not a gate")
        users: Dict[str, List[str]] = {gid: [] for gid in gates}
        for gid, gate in gates.items():
            if gate.kind not in GATE_KINDS:
                raise ModelError(f"unknown gate kind {gate.kind!r}")
            if gate.kind == "MAJ":
                t = gate.threshold
                if isinstance(t, bool) or not isinstance(t, int) or not (
                    1 <= t <= len(gate.inputs) + 1
                ):
                    raise ModelError(f"MAJ gate {gid!r} has a bad threshold")
            elif gate.threshold is not None:
                raise ModelError(f"gate {gid!r} cannot carry a threshold")
            if gate.kind == "IN":
                if gate.inputs:
                    raise ModelError(f"IN gate {gid!r} cannot have inputs")
                continue
            if gate.kind == "NOT" and len(gate.inputs) != 1:
                raise ModelError(f"NOT gate {gid!r} needs exactly one input")
            if not gate.inputs:
                raise ModelError(f"gate {gid!r} needs at least one input")
            for src in gate.inputs:
                if src not in gates:
                    raise ModelError(f"gate {gid!r} reads missing gate {src!r}")
                users[src].append(gid)
        for gid, gate in gates.items():
            if gid != output and gate.kind != "IN" and not users[gid]:
                raise ModelError(f"gate {gid!r} feeds nothing")
        # Cycle check: count how often each gate is still waiting on an
        # input.  The order it finds is kept as the program, one step per
        # non-IN gate: (gate, its inputs, the ones that switch it on or
        # None for NOT, the inputs no later step reads).
        pending = {gid: len(g.inputs) for gid, g in gates.items()}
        unread = {gid: len(readers) for gid, readers in users.items()}
        ready = [gid for gid, n in pending.items() if n == 0]
        steps = []
        reached = len(ready)
        while ready:
            gid = ready.pop()
            for user in users[gid]:
                pending[user] -= 1
                if pending[user] == 0:
                    ready.append(user)
                    reached += 1
            gate = gates[gid]
            if gate.kind == "IN":
                continue
            spent = []
            for src in gate.inputs:
                unread[src] -= 1
                if not unread[src]:
                    spent.append(src)
            if gate.kind == "AND":
                need = len(gate.inputs)
            elif gate.kind == "OR":
                need = 1
            else:
                need = gate.threshold  # None for NOT
            steps.append((gid, gate.inputs, need, tuple(spent)))
        if reached != len(gates):
            raise ModelError("circuit contains a cycle")
        self.gates: Dict[str, Gate] = gates
        self.output = output
        self.source_kind = source_kind
        self.target_class = _bit(target_class, "target class")
        self.reported_width_bound = reported_width_bound
        self._steps = tuple(steps)
        self._inputs = tuple(sorted(g for g, gate in gates.items() if gate.kind == "IN"))
        self._read = tuple(g for g in self._inputs if users[g] or g == output)

    def inputs(self) -> Tuple[str, ...]:
        return self._inputs

    def maj_count(self) -> int:
        return sum(1 for gate in self.gates.values() if gate.kind == "MAJ")


def eval_circuit(c: Circuit, alpha: Example) -> int:
    """One pass over the gates in topological order.  alpha must assign
    every IN gate; the inputs the output depends on must be bits."""
    for gid in c._inputs:
        if gid not in alpha:
            raise UnassignedInput(f"input {gid!r} is not assigned")
    value: Dict[str, int] = {}
    for gid in c._read:
        bit = alpha[gid]
        if bit not in (0, 1):
            raise ModelError(f"input {gid!r} must be 0 or 1")
        value[gid] = 1 if bit else 0
    get = value.__getitem__
    for gid, srcs, need, _ in c._steps:
        if need is None:
            value[gid] = 1 - get(srcs[0])
        else:
            value[gid] = 1 if sum(map(get, srcs)) >= need else 0
    return value[c.output]


def circuit_table(c: Circuit) -> int:
    """The circuit over all 2^n points at once, as one 2^n-bit int.

    Bit i is the output at the point where input j (in sorted order)
    takes bit j of i.  The program runs once: NOT, OR and AND are one
    big-int operation per input, MAJ a bit-sliced counter.  A value is
    dropped after its last reader, so memory is the number of live
    values times 2^n bits.  Callers bound n.
    """
    n = len(c._inputs)
    full = (1 << (1 << n)) - 1
    position = {gid: j for j, gid in enumerate(c._inputs)}
    value: Dict[str, int] = {}

    def read(gid: str) -> int:
        if gid not in value:  # an input's mask is made at its first reader
            value[gid] = feature_mask(position[gid], n)
        return value[gid]

    for gid, srcs, need, spent in c._steps:
        if need is None:
            out = full ^ read(srcs[0])
        elif need == 1:
            out = 0
            for src in srcs:
                out |= read(src)
        elif need == len(srcs):
            out = full
            for src in srcs:
                out &= read(src)
        else:
            out = at_least([read(src) for src in srcs], need, full)
        for src in spent:
            del value[src]
        value[gid] = out
    return read(c.output)


class _Builder:
    """Shared gate table; duplicate structures collapse onto one gate."""

    def __init__(self, features: Sequence[str]):
        if not features:
            raise ValueError("cannot compile a model without features")
        self.order = tuple(sorted(features))
        self.gates: Dict[str, Gate] = {f: Gate("IN") for f in self.order}
        self._cache: Dict[Tuple, str] = {}
        self._counter = itertools.count()

    def add(self, kind: str, inputs: Sequence[str], threshold: Optional[int] = None) -> str:
        key = (kind, tuple(inputs), threshold)
        if key in self._cache:
            return self._cache[key]
        gid = f"@{next(self._counter)}"
        while gid in self.gates:
            gid += "~"
        self.gates[gid] = Gate(kind, tuple(inputs), threshold)
        self._cache[key] = gid
        return gid

    def lit(self, feature: str, value: int) -> str:
        return feature if value == 1 else self.add("NOT", (feature,))

    def true_gate(self) -> str:
        f = self.order[0]
        return self.add("OR", (f, self.lit(f, 0)))

    def false_gate(self) -> str:
        f = self.order[0]
        return self.add("AND", (f, self.lit(f, 0)))

    def finish(self, output: str, source_kind: str, c: int, bound: int) -> Circuit:
        # drop internal gates the output never reads; IN gates stay
        live = set()
        stack = [output]
        while stack:
            gid = stack.pop()
            if gid in live:
                continue
            live.add(gid)
            stack.extend(self.gates[gid].inputs)
        kept = {
            gid: gate
            for gid, gate in self.gates.items()
            if gid in live or gate.kind == "IN"
        }
        return Circuit(kept, output, source_kind, c, bound)


def _dt_indicator(b: _Builder, t: DecisionTree, c: int) -> str:
    """Gate computing [t(e) = c]: OR over minority-class leaf paths."""
    labels = [label for _, label in t.leaves()]
    minority = 0 if labels.count(0) <= labels.count(1) else 1
    disjuncts = []
    for alpha, label in _leaf_paths(t):
        if label != minority:
            continue
        lits = tuple(b.lit(f, alpha[f]) for f in sorted(alpha))
        disjuncts.append(b.add("AND", lits) if lits else b.true_gate())
    core = b.add("OR", tuple(disjuncts)) if disjuncts else b.false_gate()
    return core if c == minority else b.add("NOT", (core,))


def compile_dt(t: DecisionTree, c: int) -> Circuit:
    t = simplify_dt(t)
    b = _Builder(sorted(t.features()))
    out = _dt_indicator(b, t, c)
    return b.finish(out, "dt", c, 3 * 2 ** dt_mnl(t))


def compile_dt_ensemble(ens: Ensemble, c: int) -> Circuit:
    if any(t.kind != "dt" for t in ens.elements):
        raise ModelError("expected an ensemble of decision trees")
    trees = [simplify_dt(t) for t in ens.elements]
    b = _Builder(sorted(ens.features()))
    votes = tuple(_dt_indicator(b, t, c) for t in trees)
    out = b.add("MAJ", votes, threshold=len(votes) // 2 + 1)
    bound = 3 * 2 ** sum(dt_mnl(t) for t in trees)
    return b.finish(out, "ensemble", c, bound)


def _dl_indicator(b: _Builder, dl: DecisionList, c: int) -> str:
    """Gate computing [dl(e) = c] via maximal same-class rule blocks.

    The list lands in class c iff some c-block fires while every earlier
    block of the other class stays silent.
    """
    blocks: List[Tuple[int, List[str]]] = []
    for rule in dl.rules:
        if rule.term:
            lits = tuple(b.lit(f, v) for f, v in sorted(rule.term))
            fire = b.add("AND", lits)
        else:
            fire = b.true_gate()
        if blocks and blocks[-1][0] == rule.label:
            blocks[-1][1].append(fire)
        else:
            blocks.append((rule.label, [fire]))
    fired = [b.add("OR", tuple(rules)) for _, rules in blocks]
    disjuncts = []
    for i, (label, _) in enumerate(blocks):
        if label != c:
            continue
        negs = tuple(
            b.add("NOT", (fired[j],))
            for j in range(i)
            if blocks[j][0] != c
        )
        disjuncts.append(b.add("AND", (fired[i],) + negs) if negs else fired[i])
    return b.add("OR", tuple(disjuncts)) if disjuncts else b.false_gate()


def compile_dl(dl: DecisionList, c: int) -> Circuit:
    b = _Builder(sorted(dl.features()))
    out = _dl_indicator(b, dl, c)
    return b.finish(out, "dl", c, 3 * 2 ** (3 * dl_size(dl)))


def compile_dl_ensemble(ens: Ensemble, c: int) -> Circuit:
    if any(dl.kind != "dl" for dl in ens.elements):
        raise ModelError("expected an ensemble of decision lists")
    b = _Builder(sorted(ens.features()))
    votes = tuple(_dl_indicator(b, dl, c) for dl in ens.elements)
    out = b.add("MAJ", votes, threshold=len(votes) // 2 + 1)
    bound = 3 * 2 ** (3 * sum(dl_size(dl) for dl in ens.elements))
    return b.finish(out, "ensemble", c, bound)


def _obdd_indicator(b: _Builder, o: Obdd, c: int) -> str:
    """Gate computing [o(e) = c]: per-vertex OR over arcs that reach t_c."""
    view = _restriction(o)
    o = view.model
    target = o.t1 if c == 1 else o.t0
    hit = view.hits(c)
    if o.source == target:
        return b.true_gate()
    if o.source not in hit:
        return b.false_gate()
    gate: Dict[str, str] = {}
    for nid in sorted(hit - {target}, key=lambda n: -o.level(n)):
        node = o.nodes[nid]
        parts = []
        for bit, child in ((0, node.zero), (1, node.one)):
            if child == target:
                parts.append(b.lit(node.feature, bit))
            elif child in hit:
                parts.append(b.add("AND", (b.lit(node.feature, bit), gate[child])))
        gate[nid] = b.add("OR", tuple(parts))
    return gate[o.source]


def compile_obdd(o: Obdd, c: int) -> Circuit:
    b = _Builder(sorted(o.features()))
    out = _obdd_indicator(b, o, c)
    return b.finish(out, "obdd", c, 5 * obdd_width(o))


def compile_obdd_ensemble_ordered(ens: Ensemble, c: int) -> Circuit:
    order, elems = _rebase(ens)
    b = _Builder(sorted(order))
    votes = tuple(_obdd_indicator(b, el, c) for el in elems)
    out = b.add("MAJ", votes, threshold=len(votes) // 2 + 1)
    width = max(obdd_width(el) for el in ens.elements)
    bound = 3 * 2 ** (len(elems) * 5 * width)
    return b.finish(out, "ensemble", c, bound)


def circuit_explain_bruteforce(
    c: Circuit, q: ExplanationQuery, guard: int = DEFAULT_GUARD
) -> Optional[Witness]:
    """Exhaustive minimum witness over the circuit's input features.

    The circuit encodes [model(e) = target_class]; undoing that
    indicator recovers the model's labels, so results line up with the
    generic oracle run on the original model.
    """
    names = c.inputs()
    if len(names) > guard:
        raise TooLarge(f"{len(names)} inputs exceed the guard of {guard}")
    table = circuit_table(c)
    if c.target_class == 0:
        table ^= (1 << (1 << len(names))) - 1
    return TableOracle(names, table, guard=guard).minimum(q)


def circuit_to_json(c: Circuit) -> Dict:
    gates = []
    for gid, gate in c.gates.items():
        row: Dict = {"id": gid, "kind": gate.kind}
        if gate.inputs:
            row["inputs"] = list(gate.inputs)
        if gate.threshold is not None:
            row["threshold"] = gate.threshold
        gates.append(row)
    return {
        "gates": gates,
        "output": c.output,
        "meta": {
            "source_kind": c.source_kind,
            "target_class": c.target_class,
            "reported_width_bound": c.reported_width_bound,
        },
    }


def circuit_from_json(data: Mapping) -> Circuit:
    """Circuit from its JSON object; every shape error is a ModelError."""
    if not isinstance(data, dict):
        raise _wrong_type("a circuit", dict, data)
    gates: Dict[str, Gate] = {}
    for row in _require(data, "gates", list, "circuit"):
        if not isinstance(row, dict):
            raise _wrong_type("a gate", dict, row)
        gid = _require(row, "id", str, "gate")
        if gid in gates:
            raise ModelError(f"gate id {gid!r} appears twice")
        inputs = _strings(row.get("inputs", []), f"the inputs of gate {gid!r}")
        gates[gid] = Gate(_require(row, "kind", str, "gate"), tuple(inputs), row.get("threshold"))
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise _wrong_type("the circuit's meta", dict, meta)
    return Circuit(
        gates,
        _require(data, "output", str, "circuit"),
        meta.get("source_kind", "circuit"),
        meta.get("target_class", 1),
        meta.get("reported_width_bound"),
    )


def dumps_circuit(c: Circuit) -> str:
    return dumps_canonical(circuit_to_json(c))


def circuit_to_dot(c: Circuit) -> str:
    """Graphviz rendering; inputs as boxes, the output node double-drawn."""
    lines = ["digraph circuit {"]
    for gid, gate in sorted(c.gates.items()):
        label = gate.kind if gate.kind != "MAJ" else f"MAJ>={gate.threshold}"
        if gate.kind == "IN":
            label = gid
        shape = "box" if gate.kind == "IN" else "ellipse"
        extra = ", peripheries=2" if gid == c.output else ""
        lines.append(f'  "{gid}" [label="{label}", shape={shape}{extra}];')
    for gid, gate in sorted(c.gates.items()):
        for src in gate.inputs:
            lines.append(f'  "{src}" -> "{gid}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
