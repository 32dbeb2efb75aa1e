"""Independent reference check for explain and verify answers.

Shares no code with xbool: models are read from their JSON files and
turned into truth tables, one Python int per model with bit i set when
example i is classified 1.  Example i gives feature j (the j-th name of
the sorted feature universe) the value (i >> j) & 1.  A partial
assignment is then a cube mask, and every question the benchmark asks
of an answer is a handful of big-int ANDs:

* lAXp(e, A): the cube of e on A holds a single class;
* lCXp(e, A): the cube of e off A meets the other class;
* gAXp(c, tau): the cube of tau holds class c only;
* gCXp(c, tau): the cube of tau misses class c.

All four are monotone in the witness, so delete-one checks decide
subset minimality, and smaller sizes are enumerated to decide
cardinality minimality.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Dict, List, Optional, Tuple


def _universe(data) -> List[str]:
    kind = data["kind"]
    if kind == "dt":
        return sorted({n["feature"] for n in data["nodes"].values() if "feature" in n})
    if kind == "ds":
        return sorted({f for term in data["terms"] for f, _ in term})
    if kind == "dl":
        return sorted({f for term, _ in data["rules"] for f, _ in term})
    if kind == "obdd":
        return sorted(data["order"])
    if kind == "ensemble":
        return sorted({f for el in data["elements"] for f in _universe(el)})
    raise ValueError(f"unknown model kind {kind!r}")


@functools.lru_cache(maxsize=None)
def _feature_masks(n: int) -> Tuple[int, ...]:
    """Mask j has bit i set exactly when bit j of i is set."""
    width = 1 << n
    masks = []
    for j in range(n):
        period = 2 << j
        mask = ((1 << (1 << j)) - 1) << (1 << j)
        while period < width:
            mask |= mask << period
            period *= 2
        masks.append(mask)
    return tuple(masks)


class Table:
    """Truth table of one model over its sorted feature universe."""

    def __init__(self, data: Dict):
        self.features = _universe(data)
        self.pos = {f: j for j, f in enumerate(self.features)}
        n = len(self.features)
        self.full = (1 << (1 << n)) - 1
        masks = _feature_masks(n)
        self.ones = {f: masks[j] for f, j in self.pos.items()}
        self.zeros = {f: self.full ^ masks[j] for f, j in self.pos.items()}
        self.t1 = self._table(data)
        self.t0 = self.full ^ self.t1

    def lit(self, f: str, v: int) -> int:
        return self.ones[f] if v else self.zeros[f]

    def cube(self, assignment) -> int:
        m = self.full
        for f, v in assignment:
            m &= self.lit(f, v)
        return m

    def of_class(self, c: int) -> int:
        return self.t1 if c else self.t0

    def label(self, e: Dict[str, int]) -> int:
        i = sum(1 << j for f, j in self.pos.items() if e[f])
        return (self.t1 >> i) & 1

    # -- truth tables per family

    def _table(self, data) -> int:
        kind = data["kind"]
        if kind == "dt":
            nodes = data["nodes"]
            out = 0
            stack = [(data["root"], self.full)]
            while stack:
                nid, m = stack.pop()
                node = nodes[nid]
                if "leaf" in node:
                    if node["leaf"]:
                        out |= m
                    continue
                f = node["feature"]
                stack.append((node["zero"], m & self.lit(f, 0)))
                stack.append((node["one"], m & self.lit(f, 1)))
            return out
        if kind == "ds":
            fires = 0
            for term in data["terms"]:
                fires |= self.cube(term)
            return fires if data["default"] == 0 else self.full ^ fires
        if kind == "dl":
            out, rest = 0, self.full
            for term, label in data["rules"]:
                hit = rest & self.cube(term)
                if label:
                    out |= hit
                rest &= self.full ^ hit
            return out
        if kind == "obdd":
            value = {data["t0"]: 0, data["t1"]: self.full}
            level = {f: i for i, f in enumerate(data["order"])}
            nodes = data["nodes"]
            for nid in sorted(nodes, key=lambda x: -level[nodes[x]["feature"]]):
                node = nodes[nid]
                f = node["feature"]
                value[nid] = (self.lit(f, 0) & value[node["zero"]]) | (
                    self.lit(f, 1) & value[node["one"]]
                )
            return value[data["source"]]
        if kind == "ensemble":
            return self._majority([self._table(el) for el in data["elements"]])
        raise ValueError(f"unknown model kind {kind!r}")

    def _majority(self, tables: List[int]) -> int:
        # bit-sliced vote counter, then compare against the threshold
        planes: List[int] = []
        for t in tables:
            carry = t
            for i in range(len(planes)):
                planes[i], carry = planes[i] ^ carry, planes[i] & carry
                if not carry:
                    break
            if carry:
                planes.append(carry)
        need = len(tables) // 2 + 1
        greater, equal = 0, self.full
        for i in range(len(planes) - 1, -1, -1):
            if need >> i & 1:
                equal &= planes[i]
            else:
                greater |= equal & planes[i]
                equal &= self.full ^ planes[i]
        if need >> len(planes):
            return 0
        return greater | equal


# ---------------------------------------------------------------------------
# The four definitions on a table


def holds(t: Table, q: Dict, witness) -> bool:
    kind = q["kind"]
    if kind in ("lAXp", "lCXp"):
        e = q["target"]
        other = t.of_class(1 - t.label(e))
        names = set(witness)
        if kind == "lAXp":
            fixed = [(f, e[f]) for f in names]
        else:
            if not names:
                return False
            fixed = [(f, e[f]) for f in t.features if f not in names]
        return bool(t.cube(fixed) & other) == (kind == "lCXp")
    cube = t.cube(witness.items())
    c = q["target"]
    if kind == "gAXp":
        return not cube & t.of_class(1 - c)
    return not cube & t.of_class(c)


def _drop(witness, f):
    if isinstance(witness, dict):
        return {g: v for g, v in witness.items() if g != f}
    return [g for g in witness if g != f]


def subset_minimal(t: Table, q: Dict, witness) -> bool:
    return holds(t, q, witness) and not any(
        holds(t, q, _drop(witness, f)) for f in witness
    )


def exists_of_size(t: Table, q: Dict, size: int) -> bool:
    names = t.features
    for combo in itertools.combinations(names, size):
        if q["kind"] in ("lAXp", "lCXp"):
            if holds(t, q, list(combo)):
                return True
            continue
        for values in itertools.product((0, 1), repeat=size):
            if holds(t, q, dict(zip(combo, values))):
                return True
    return False


# ---------------------------------------------------------------------------
# Checking one answer


def check_explain(t: Table, q: Dict, witness) -> Optional[str]:
    """None when the answer is right, else the reason it is wrong."""
    kind = q["kind"]
    local = kind in ("lAXp", "lCXp")
    n = len(t.features)
    if witness is not None:
        if local != isinstance(witness, list):
            return "witness has the wrong shape"
        if any(f not in t.pos for f in witness):
            return "witness names a feature outside the model"
        if not holds(t, q, witness):
            return "witness is not valid"
    if q["minimality"] == "subset":
        if witness is None:
            # lAXp always has the full set; the others need the wanted class
            if kind == "lAXp":
                return "no witness, but the full feature set always is one"
            if kind == "lCXp":
                full = t.of_class(1 - t.label(q["target"]))
            else:
                full = t.of_class(q["target"] if kind == "gAXp" else 1 - q["target"])
            return "no witness, but one exists" if full else None
        return None if subset_minimal(t, q, witness) else "witness is not subset-minimal"
    k = q["k"]
    start = 1 if kind == "lCXp" else 0
    if witness is None:
        for size in range(start, min(k, n) + 1):
            if exists_of_size(t, q, size):
                return f"no witness, but one of size {size} <= k exists"
        return None
    if len(witness) > k:
        return "witness exceeds the budget"
    for size in range(start, len(witness)):
        if exists_of_size(t, q, size):
            return f"witness of size {len(witness)} is not minimum; size {size} exists"
    return None


def verify_verdict(t: Table, q: Dict, witness) -> Tuple[bool, bool]:
    """(valid, minimal) as `xbool verify --minimal` must report them."""
    k = q.get("k")
    valid = (k is None or len(witness) <= k) and holds(t, q, witness)
    return valid, valid and subset_minimal(t, q, witness)


def load_table(path: str) -> Table:
    with open(path, encoding="utf-8") as fh:
        return Table(json.load(fh))
