"""Exception taxonomy for the immersions package.

Structural problems (a certificate that cannot even be interpreted, a
graph6 word that cannot be decoded) raise; semantic failures (a
well-formed certificate that violates a clause, a search that finds
nothing) are reported through return values instead.
"""


class Graph6Error(ValueError):
    """Malformed graph6 input; the message names the byte offset."""


class UnsupportedSizeError(ValueError):
    """Graph too large for the single-size-byte graph6 form (n > 62)."""


class DegenerateInputError(ValueError):
    """An operation that needs at least one vertex received the empty graph."""


class MalformedCertificateError(ValueError):
    """Certificate data that cannot be interpreted against the host graph.

    Distinct from verifier rejection: rejection means a well-formed
    certificate fails one of the immersion clauses.
    """


class PreconditionError(ValueError):
    """A documented operation precondition does not hold for the inputs."""


class IndependencePreconditionError(PreconditionError):
    """Independence number exceeds the required bound; carries a witness."""

    def __init__(self, message: str, witness: tuple[int, ...]):
        super().__init__(message)
        self.witness = witness


class SizeCapError(ValueError):
    """Exhaustive enumeration requested beyond its cap; sample instead."""
