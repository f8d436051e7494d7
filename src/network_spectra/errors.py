"""Exception types and the size bound shared across the package."""

# The one bound on the exact routines, each counting its own blow-up:
# vertices for the exact determinant, edges for the 2^E forest enumerations,
# white vertices for the dimer-cover search.
SIZE_BOUND = 24


class NetworkSpectraError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NetworkSpectraError):
    """A network or move-program file is malformed."""


class GraphValidationError(NetworkSpectraError):
    """A graph failed a structural check."""


class NonTorusEuler(GraphValidationError):
    pass


class NonContractibleFace(GraphValidationError):
    pass


class BadRotation(GraphValidationError):
    pass


class ZeroEvaluationPoint(NetworkSpectraError):
    pass


class ZeroPolynomial(NetworkSpectraError):
    pass


class SingleVertexGraph(NetworkSpectraError):
    pass


class TooLarge(NetworkSpectraError):
    """An exact routine's input exceeds its size bound."""


def check_size(count: int, what: str, bound: int) -> None:
    if count > bound:
        raise TooLarge(f"{count} {what} exceeds the size bound {bound}")


class NotAMatching(NetworkSpectraError):
    pass


class NonClosingBoundary(NetworkSpectraError):
    pass


class AmbiguousCone(NetworkSpectraError):
    pass


class FanAmbiguity(NetworkSpectraError):
    pass


class NotAPolygonVertex(NetworkSpectraError):
    pass


class StrandNotOnEdgeFamily(NetworkSpectraError):
    pass


class BadDegree(NetworkSpectraError):
    pass


class LoopAtVertex(NetworkSpectraError):
    pass


class SingularDenominator(NetworkSpectraError):
    pass


class NotATriangle(NetworkSpectraError):
    pass


class IsomorphismMismatch(NetworkSpectraError):
    pass


class PathDependence(NetworkSpectraError):
    pass


class DegenerateFiber(NetworkSpectraError):
    pass


class CorankTwo(NetworkSpectraError):
    pass


class WrongDivisorCount(NetworkSpectraError):
    pass


class NonHarnackInput(NetworkSpectraError):
    pass


class NoConvergence(NetworkSpectraError):
    pass
