"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class UdgError(Exception):
    """Base class for all library errors."""


class EmptyInstance(UdgError):
    """An operation requires a nonempty instance, graph or point set."""


class DuplicatePoint(UdgError):
    """Two vertices are represented by the same point."""

    def __init__(self, i: int, j: int):
        super().__init__(f"points {i} and {j} coincide")
        self.i = i
        self.j = j


class InvalidVertex(UdgError):
    """A vertex id is out of range or not where it must be."""


class StabilityViolated(UdgError):
    """The instance has three pairwise non-adjacent vertices."""

    def __init__(self, witness: tuple[int, int, int]):
        super().__init__(f"independent triple {witness}")
        self.witness = witness


class StructureViolation(UdgError):
    """An assembled set, matching or Gallai-Edmonds decomposition failed a
    structural check that valid input guarantees.

    Reaching this on an instance with stability <= 2 indicates a bug, never
    an expected runtime condition.
    """


class LimitExceeded(UdgError):
    """The graph is larger than a fixed brute-force limit of ``oracles``."""


class SnapFailure(UdgError):
    """Rounding the generated coordinates changed the intended adjacency."""


class ParseError(UdgError):
    """A text artifact could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
