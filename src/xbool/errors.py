"""Exception types shared across the package."""


class ModelError(ValueError):
    """A model value violates its structural invariants."""


class UndefinedFeature(ModelError):
    """An example or assignment misses (or adds garbage to) required features."""


class EvenEnsemble(ModelError):
    """Even-size ensembles leave majority ties undefined and are rejected."""


class NotOrdered(ModelError):
    """A path of an OBDD (or tree) violates the claimed feature order."""


class ContradictoryTerm(ModelError):
    """A term contains both (f=0) and (f=1)."""


class Homogeneous(Exception):
    """The model classifies every example the same way; no contrastive answer."""


class TooLarge(Exception):
    """Exhaustive verification was asked for more features than the guard allows."""


class BudgetExceeded(Exception):
    """A product or grafting construction would exceed the node cap."""


class DeadlineExceeded(Exception):
    """A run went past its `--timeout-ms` wall-clock deadline."""


class SharedFeature(ModelError):
    """Conjunction chaining requires pairwise disjoint feature sets."""


class UnassignedInput(KeyError):
    """Circuit evaluation hit an IN gate missing from the assignment."""
