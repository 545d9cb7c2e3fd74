"""Exception types used throughout the library."""


class HomrfError(Exception):
    """Base class for all homrf errors."""


class DuplicateNodeInScope(HomrfError):
    """A factor scope mentions the same node twice."""


class DuplicateFactor(HomrfError):
    """Two factors share the same scope; scopes identify factors."""


class NonFiniteCost(HomrfError):
    """A cost table or message contains NaN or infinity."""


class TableShapeMismatch(HomrfError):
    """A table's size does not match the product of its scope's label counts."""


class InvalidLabeling(HomrfError):
    """A labeling has the wrong length or an out-of-range label."""


class NotNested(HomrfError):
    """A marginalization edge (A, B) where scope(B) is not a strict subset of scope(A)."""


class InvalidMessageEdge(HomrfError):
    """A message was supplied on an edge outside the outer-to-separator edge set."""


class InvalidEdge(HomrfError):
    """Message send requested on an edge not present in the closed edge set."""


class FactorNotInTree(HomrfError):
    """The requested factor does not belong to the given subproblem."""


class NotASeparator(HomrfError):
    """Averaging requested for a factor that is not a separator."""


class MissingSeparatorFactor(HomrfError):
    """A required intersection or singleton separator factor is absent."""


class StateNotInitialized(HomrfError):
    """Solver state was not created through the proper initializer."""


class InvalidStepSize(HomrfError):
    """Subgradient step-size base must be finite and positive."""


class NotAtFixpoint(HomrfError):
    """A fixpoint mapping was applied to a vector that fails its agreement check."""


class TooLarge(HomrfError):
    """State space exceeds the exhaustive-search guard."""


class ParseError(HomrfError):
    """Malformed model file; the message carries the offending line number."""
