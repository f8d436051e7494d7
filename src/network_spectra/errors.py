"""Exception types and the size bound shared across the package.

A class exists only when code catches it by type or the CLI prints its name;
every other failure raises ``NetworkSpectraError`` with its own message.
"""

# The one bound on the exact routines, each counting its own blow-up:
# vertices for the exact determinant, edges for the 2^E forest enumerations,
# white vertices for the dimer-cover search.
SIZE_BOUND = 24


class NetworkSpectraError(Exception):
    """Base class for all errors raised by this package (CLI exit 1)."""


class InputError(NetworkSpectraError):
    """A network or move-program file is malformed, or a vertex or face id is
    out of range (CLI exit 2)."""


class GraphValidationError(NetworkSpectraError):
    """A graph failed a structural check."""


class TooLarge(NetworkSpectraError):
    """An exact routine's input exceeds its size bound."""


def check_size(count: int, what: str, bound: int) -> None:
    if count > bound:
        raise TooLarge(f"{count} {what} exceeds the size bound {bound}")


class SingularDenominator(NetworkSpectraError):
    """A Y-Delta move divides by zero at these conductances."""


class DegenerateFiber(NetworkSpectraError):
    """A fiber has no well-defined roots (z = 0, or an extreme coefficient vanishes)."""


class CorankTwo(NetworkSpectraError):
    """The Laplacian has a kernel of dimension two or more at a point."""


class NoConvergence(NetworkSpectraError):
    """A float iteration lost the branch it was following."""
