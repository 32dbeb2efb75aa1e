"""Odd-size majority ensembles over elements of a single model family.

Loaded when a request first meets an ensemble (`models.model_from_json`).
A single tree or diagram request never compiles it.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Tuple

from .errors import EvenEnsemble, ModelError, NotOrdered
from .models import Example, Model, classify


def _is_subsequence(sub: Sequence[str], full: Sequence[str]) -> bool:
    it = iter(full)
    return all(any(x == y for y in it) for x in sub)


class Ensemble:
    """Odd-size majority vote over elements of a single model family."""

    kind = "ensemble"

    def __init__(self, elements: Sequence[Model], shared_order: Optional[Sequence[str]] = None):
        elements = tuple(elements)
        if not elements:
            raise ModelError("ensemble needs at least one element")
        if len(elements) % 2 == 0:
            raise EvenEnsemble(f"ensemble of {len(elements)} elements can tie")
        kinds = {el.kind for el in elements}
        if kinds - {"dt", "ds", "dl", "obdd"}:
            raise ModelError("ensemble elements must be plain models")
        if len(kinds) != 1:
            raise ModelError(f"ensemble mixes model kinds {sorted(kinds)}")
        if shared_order is not None:
            shared_order = tuple(str(f) for f in shared_order)
            if len(set(shared_order)) != len(shared_order):
                raise ModelError("shared order has duplicates")
            if kinds != {"obdd"}:
                raise ModelError("shared order only applies to OBDD ensembles")
            allowed = set(shared_order)
            for i, el in enumerate(elements):
                if not set(el.order) <= allowed:
                    raise ModelError(f"element {i} reads outside the shared order")
                if not _is_subsequence(el.order, shared_order):
                    raise NotOrdered(f"element {i} does not respect the shared order")
        self.elements: Tuple[Model, ...] = elements
        self.shared_order = shared_order

    def features(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for el in self.elements:
            out = out | el.features()
        return out

    def classify(self, e: Example) -> int:
        # each member through `models.classify`, the entry every caller uses
        votes = sum(classify(el, e) for el in self.elements)
        return 1 if votes >= len(self.elements) // 2 + 1 else 0
