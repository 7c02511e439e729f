"""Exception taxonomy shared by all modules.

Errors are reserved for contract violations (bad inputs, broken
preconditions, unrecoverable states). Quantities that merely degrade --
masked nodes, residuals above a gate -- travel as data, never as
exceptions.
"""


class IsoembedError(Exception):
    """Base class for all package errors."""


class OutOfDomain(IsoembedError):
    """Point lies outside the metric's rectangular domain."""


class NonPositiveMetric(IsoembedError):
    """A metric coefficient evaluated to a non-positive value."""


class GridTooSmall(IsoembedError):
    """Grid has too few samples for the requested stencil."""


class BadParameter(IsoembedError):
    """Scalar parameter outside its admissible range."""


class ValidityLoss(IsoembedError):
    """Solution lost validity everywhere before the march finished."""


class NoCertifiedRegion(IsoembedError):
    """Jacobian certificate failed at the initial node."""


class UncertifiedNode(IsoembedError):
    """Per-node operation requested at a node outside the certificate."""


class RankDeficient(IsoembedError):
    """Linear system rank below the value required for a unique solve."""


class FocalPoint(IsoembedError):
    """Geodesic-parallel chart folds (ruling factor reaches zero)."""


class ImageOutsideChart(IsoembedError):
    """Parameter-change image leaves the chart rectangle."""

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = list(nodes) if nodes is not None else []


class IoFailure(IsoembedError):
    """Report or mesh file could not be written/read."""
