"""Error taxonomy.

Two families: precondition errors (bad or unsuitable input, CLI exit
code 2) and numerical errors (the computation could not be completed
reliably at the requested tolerances, CLI exit code 3).  Every concrete
error carries a stable ``code`` string for machine consumption.
"""


class SympindError(Exception):
    code = "ERROR"
    exit_code = 1


class PreconditionError(SympindError):
    """Input violates the documented preconditions."""

    exit_code = 2


class NumericalError(SympindError):
    """The computation is numerically unresolved at the given tolerances."""

    exit_code = 3


class ShapeError(PreconditionError):
    code = "SHAPE"


class DimensionMismatch(PreconditionError):
    code = "DIMENSION_MISMATCH"


class NotSymplectic(PreconditionError):
    code = "NOT_SYMPLECTIC"


class NotInSubgroup(PreconditionError):
    code = "NOT_IN_SUBGROUP"


class NegativeStratum(PreconditionError):
    code = "NEGATIVE_STRATUM"


class NonIsolated(PreconditionError):
    code = "NON_ISOLATED"


class ContainmentError(PreconditionError):
    code = "CONTAINMENT"


class RankDrift(PreconditionError):
    code = "RANK_DRIFT"


class JunctionMismatch(PreconditionError):
    code = "JUNCTION_MISMATCH"


class DegenerateEndpoint(PreconditionError):
    code = "DEGENERATE_ENDPOINT"


class DegenerateAsymptote(PreconditionError):
    code = "DEGENERATE_ASYMPTOTE"


class InvalidInput(PreconditionError):
    code = "INVALID_INPUT"


class UnresolvedCrossing(NumericalError):
    code = "UNRESOLVED_CROSSING"


class IrregularCrossing(NumericalError):
    code = "IRREGULAR_CROSSING"


class IntegratorBlowup(NumericalError):
    code = "INTEGRATOR_BLOWUP"


class SymplecticityLoss(NumericalError):
    code = "SYMPLECTICITY_LOSS"


class TruncationUnstable(NumericalError):
    code = "TRUNCATION_UNSTABLE"
