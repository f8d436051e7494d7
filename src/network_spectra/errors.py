"""Exception types and the size bound shared across the package.

A class exists only when code catches it by type or the CLI prints its name;
every other failure raises ``NetworkSpectraError`` with its own message.
"""

# The one bound on the exact enumerations, in edges: the 2^E forest enumerations
# and the dimer-cover search, whose white vertices are the edges.  No option or
# parameter overrides it.
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


def check_size(count: int, what: str) -> None:
    if count > SIZE_BOUND:
        raise TooLarge(f"{count} {what} exceeds the size bound {SIZE_BOUND}")


class SingularDenominator(NetworkSpectraError):
    """A Y-Delta move divides by zero at these conductances."""


class DegenerateFiber(NetworkSpectraError):
    """A fiber has no well-defined roots (z = 0, or an extreme coefficient vanishes)."""


class CorankTwo(NetworkSpectraError):
    """The Laplacian has a kernel of dimension two or more at a point."""
