"""Boolean circuits with majority gates, and model-to-circuit compilers.

A compiled circuit computes the indicator [model(e) = target class].
The six compilers share one skeleton, `_compile`: one indicator gate per
member, under a majority vote for an ensemble.  Each also reports a
closed-form width bound derived from the model's measured parameters.
Nothing in here computes a decomposition; the tests check the bound
against the width of a min-degree elimination order of the gate graph,
an upper bound on its treewidth.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter, not_, truth
from typing import TYPE_CHECKING, Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ModelError, TooLarge, UnassignedInput
from .dt import DecisionTree, DtLeaf, dt_mnl, simplify_dt
from .explain import DEFAULT_GUARD, ExplanationQuery, Witness
from .models import Example, _bit, _require, _strings, _wrong_type, dumps_canonical
from .obdd import Obdd, _restriction, obdd_width
from .obdd_product import _rebase
from .records import Frozen
from .rules import DecisionList, dl_size
from .tables import TableOracle, at_least, feature_mask

if TYPE_CHECKING:
    from .ensemble import Ensemble

GATE_KINDS = ("IN", "AND", "OR", "NOT", "MAJ")
_BIT = (0, 1)


class Gate(Frozen):
    __slots__ = ("kind", "inputs", "threshold")

    def __init__(
        self, kind: str, inputs: Tuple[str, ...] = (), threshold: Optional[int] = None
    ):
        self._fill(kind, inputs, threshold)


_NO_INPUTS = "gate {!r} needs at least one input"


class Circuit:
    """Gate DAG with a designated output and compile-time metadata.

    Unused IN gates are legal (a model may ignore a feature); every
    other non-output gate must feed something.  A circuit is kept as a
    straight-line program, one step per non-IN gate in a topological
    order: (gate, its inputs, the ones that switch it on or None for
    NOT, the inputs no later step reads), in post-order from the output.
    A compiled circuit builds its `Gate` records only when `gates` is
    first read.  Either kind builds the slot kernel `eval_circuit` runs
    on at its first evaluation, so compiling and `circuit_table` never
    pay for it.
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
        read = set()
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
                raise ModelError(_NO_INPUTS.format(gid))
            for src in gate.inputs:
                if src not in gates:
                    raise ModelError(f"gate {gid!r} reads missing gate {src!r}")
            read.update(gate.inputs)
        for gid, gate in gates.items():
            if gid != output and gate.kind != "IN" and gid not in read:
                raise ModelError(f"gate {gid!r} feeds nothing")
        inputs = tuple(sorted(g for g, gate in gates.items() if gate.kind == "IN"))
        rows = [(gid, g.kind, g.inputs, g.threshold) for gid, g in gates.items() if g.kind != "IN"]
        self._program(gates, rows, inputs, output, source_kind, target_class, reported_width_bound)
        # `_program` marks a gate seen when it pushes it, so it skips a back
        # edge: a cycle shows as a step that reads a gate not yet made, or
        # as a row the output never reaches, which feeds something and so
        # sits on or behind a cycle.
        made = set(inputs)
        for gid, srcs, _, _ in self._steps:
            if not made.issuperset(srcs):
                break
            made.add(gid)
        if len(made) < len(gates):
            raise ModelError("circuit contains a cycle")

    def _program(self, gates, rows, inputs, output, source_kind, target_class, bound) -> None:
        """Refuse a malformed meta, then set every field from `rows`,
        (gate, kind, inputs, threshold).  The rows the output reads keep
        their order, which fixes a compiled circuit's JSON and Graphviz
        bytes; the steps run them in post-order from the output, each
        gate's inputs from the last, so a subterm's values are mostly
        spent before the next one's are made.  A back pass marks each
        value's last reader, where it is spent; `gates` is None for a
        compiled circuit until read."""
        if not isinstance(source_kind, str):
            raise _wrong_type("the circuit's meta field 'source_kind'", str, source_kind)
        if bound is not None and (type(bound) is not int or bound < 0):
            raise ModelError("the circuit's meta field 'reported_width_bound' must be null "
                             f"or a non-negative integer, got {bound!r}")
        row_of = {row[0]: row for row in rows}
        order, seen = [], {output, *inputs}
        stack = [(row_of[output], reversed(row_of[output][2]))] if output in row_of else []
        while stack:
            row, srcs = stack[-1]
            for src in srcs:
                if src not in seen:
                    seen.add(src)
                    row = row_of[src]
                    stack.append((row, reversed(row[2])))
                    break
            else:
                order.append(stack.pop()[0])
        read, steps = {output}, []
        for gid, kind, srcs, threshold in reversed(order):
            spent = []
            for src in srcs:
                if src not in read:  # once, even if read twice here
                    read.add(src)
                    spent.append(src)
            if kind == "AND":
                need = len(srcs)
            else:
                need = 1 if kind == "OR" else threshold  # None for NOT
            steps.append((gid, srcs, need, tuple(spent)))
        self._gates: Optional[Dict[str, Gate]] = gates
        self._kernel: Optional[Tuple] = None
        self._rows = tuple(row for row in rows if row[0] in seen)
        self._steps = tuple(reversed(steps))
        self._inputs = inputs
        self._read = tuple(f for f in inputs if f in read)  # the inputs anything reads
        self.output = output
        self.source_kind = source_kind
        self.target_class = _bit(target_class, "target class")
        self.reported_width_bound = bound

    @property
    def gates(self) -> Dict[str, Gate]:
        if self._gates is None:
            gates = {f: Gate("IN") for f in self._inputs}
            for gid, kind, srcs, threshold in self._rows:
                gates[gid] = Gate(kind, srcs, threshold)
            self._gates = gates
        return self._gates

    def inputs(self) -> Tuple[str, ...]:
        return self._inputs

    def _build_kernel(self) -> Tuple:
        """The program over integer slots, for `eval_circuit`.  The slots
        hold the read inputs, then their negations, then one value per
        remaining step, so a NOT of an input is no step of its own.  A
        step is (test, getter of its input slots): `all` for AND, `any`
        for OR, `not_` for NOT, at-least-`need` for MAJ, repeats counted.
        A one-input step reads its slot twice, so every getter but NOT's
        returns a tuple and the same rules hold with `need` doubled."""
        read = self._read
        slot = {f: i for i, f in enumerate(read)}
        negated = {f: len(read) + i for i, f in enumerate(read)}
        steps = []
        for gid, srcs, need, _ in self._steps:
            if need is None and srcs[0] in negated:
                slot[gid] = negated[srcs[0]]
                continue
            if need is None:
                steps.append((not_, itemgetter(slot[srcs[0]])))
            else:
                if len(srcs) == 1:
                    srcs, need = srcs * 2, need * 2
                test = (any if need == 1 else all if need == len(srcs)
                        else partial(_count_at_least, need))
                steps.append((test, itemgetter(*map(slot.__getitem__, srcs))))
            slot[gid] = 2 * len(read) + len(steps) - 1
        self._kernel = (tuple(steps), slot[self.output])
        return self._kernel

    def maj_count(self) -> int:
        return sum(1 for row in self._rows if row[1] == "MAJ")


def _count_at_least(need: int, values: Tuple[bool, ...]) -> bool:
    return sum(values) >= need


def eval_circuit(c: Circuit, alpha: Example) -> int:
    """The circuit at one point, on the kernel the circuit builds at its
    first evaluation.  alpha must assign every IN gate (the first missing
    one in sorted order is named); the inputs the output depends on must
    be bits (likewise the first that is not)."""
    steps, out = c._kernel or c._build_kernel()
    if not all(map(alpha.__contains__, c._inputs)):
        for gid in c._inputs:
            if gid not in alpha:
                raise UnassignedInput(f"input {gid!r} is not assigned")
    bits = [*map(alpha.__getitem__, c._read)]
    if not all(map(_BIT.__contains__, bits)):
        for gid, bit in zip(c._read, bits):
            if bit not in _BIT:
                raise ModelError(f"input {gid!r} must be 0 or 1")
    value = [*map(truth, bits), *map(not_, bits)]
    push = value.append
    for test, get in steps:
        push(test(get(value)))
    return 1 if value[out] else 0


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
    """Shared gate table; duplicate structures collapse onto one gate.

    Gates are rows (gate, kind, inputs, threshold) in insertion order.
    A gate is added only after its inputs, so that order is topological
    and `finish` reads the program straight off it.
    """

    def __init__(self, features: Collection[str]):
        if not features:
            raise ModelError("cannot compile a model without features")
        self.order = tuple(sorted(features))
        self._features = frozenset(self.order)
        self.rows: List[Tuple[str, str, Tuple[str, ...], Optional[int]]] = []
        self._cache: Dict[Tuple, str] = {}

    def add(self, kind: str, inputs: Sequence[str], threshold: Optional[int] = None) -> str:
        inputs = tuple(inputs)
        key = (kind, inputs, threshold)
        gid = self._cache.get(key)
        if gid is not None:
            return gid
        # row ids differ in their digits, so only a feature can collide
        gid = f"@{len(self.rows)}"
        while gid in self._features:
            gid += "~"
        if not inputs:
            raise ModelError(_NO_INPUTS.format(gid))
        self.rows.append((gid, kind, inputs, threshold))
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
        # the rows are the program as built: no shape check or sort to redo
        circuit = Circuit.__new__(Circuit)
        circuit._program(None, self.rows, self.order, output, source_kind, c, bound)
        return circuit


def _compile(model, c: int, universe, members, indicator, bound: int) -> Circuit:
    """The circuit of [model(e) = c] over the sorted `universe`: one
    `indicator` gate per member, under a majority vote when the model is
    an ensemble (a one-member ensemble too)."""
    b = _Builder(universe)
    votes = tuple(indicator(b, member, c) for member in members)
    out = b.add("MAJ", votes, len(votes) // 2 + 1) if model.kind == "ensemble" else votes[0]
    return b.finish(out, model.kind, c, bound)


def _elements(ens: Ensemble, kind: str, family: str) -> Tuple:
    if any(el.kind != kind for el in ens.elements):
        raise ModelError(f"expected an ensemble of {family}")
    return ens.elements


def _dt_indicator(b: _Builder, t: DecisionTree, c: int) -> str:
    """Gate computing [t(e) = c]: OR over the minority-class leaves' paths,
    walked in preorder with the 0-child first."""
    minority = 0 if 2 * sum(t.leaf_labels.values()) >= len(t.leaf_labels) else 1
    disjuncts = []
    stack = [(t.root, {})]
    while stack:
        nid, alpha = stack.pop()
        node = t.nodes[nid]
        if not isinstance(node, DtLeaf):
            one = dict(alpha)
            one[node.feature] = 1
            alpha[node.feature] = 0  # one copy per test: the 0-child takes this one
            stack.append((node.one, one))
            stack.append((node.zero, alpha))
        elif node.label == minority:
            # a path is empty only at a one-leaf tree, whose leaf is its
            # majority; `add` would refuse the empty AND
            disjuncts.append(b.add("AND", tuple(b.lit(f, alpha[f]) for f in sorted(alpha))))
    core = b.add("OR", tuple(disjuncts)) if disjuncts else b.false_gate()
    return core if c == minority else b.add("NOT", (core,))


def compile_dt(t: DecisionTree, c: int) -> Circuit:
    t = simplify_dt(t)
    return _compile(t, c, t.features(), (t,), _dt_indicator, 3 * 2 ** dt_mnl(t))


def compile_dt_ensemble(ens: Ensemble, c: int) -> Circuit:
    trees = [simplify_dt(t) for t in _elements(ens, "dt", "decision trees")]
    bound = 3 * 2 ** sum(map(dt_mnl, trees))
    return _compile(ens, c, ens.features(), trees, _dt_indicator, bound)


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
    return _compile(dl, c, dl.features(), (dl,), _dl_indicator, 3 * 2 ** (3 * dl_size(dl)))


def compile_dl_ensemble(ens: Ensemble, c: int) -> Circuit:
    lists = _elements(ens, "dl", "decision lists")
    bound = 3 * 2 ** (3 * sum(map(dl_size, lists)))
    return _compile(ens, c, ens.features(), lists, _dl_indicator, bound)


def _obdd_indicator(b: _Builder, o: Obdd, c: int) -> str:
    """Gate computing [o(e) = c]: per-vertex OR over arcs that reach t_c."""
    view = _restriction(o)
    o = view.model  # complete over a non-empty order, so its source is a node
    target = o.t1 if c == 1 else o.t0
    hit = view.hits(c)
    if o.source not in hit:
        return b.false_gate()
    gate: Dict[str, str] = {}
    for nid in reversed(view.parents_first()):
        if nid not in hit:
            continue
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
    return _compile(o, c, o.features(), (o,), _obdd_indicator, 5 * obdd_width(o))


def compile_obdd_ensemble_ordered(ens: Ensemble, c: int) -> Circuit:
    # the universe is the shared order, which may name features no
    # member reads; the bound reads the members as given, not rebased
    order, elems = _rebase(ens)
    bound = 3 * 2 ** (len(elems) * 5 * max(map(obdd_width, ens.elements)))
    return _compile(ens, c, order, elems, _obdd_indicator, bound)


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
    output = _require(data, "output", str, "circuit")
    return Circuit(gates, output, meta.get("source_kind", "circuit"),
                   meta.get("target_class", 1), meta.get("reported_width_bound"))


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
