"""Exception types shared across the package.

Every error raised by the library derives from :class:`QestgeoError`.
The CLI exits 2 on an :class:`InputError` (malformed or out-of-range
input) and 3 on a :class:`ContractError` (a violated numerical contract:
spectra out of range, rank collapse, transport breakdown) or any other
error, so a new class picks its exit code by picking its base.
"""

from __future__ import annotations


class QestgeoError(Exception):
    """Base class for all library errors."""


class InputError(QestgeoError):
    """The input is malformed or out of range; the CLI exits 2."""


class ContractError(QestgeoError):
    """A numerical contract is violated; the CLI exits 3."""


class SpaceMismatchError(QestgeoError):
    """Two vectors (or a vector and an operator) live on different spaces."""


class UnsupportedSpaceError(QestgeoError):
    """Operation requires a grid space (or a basis space) and got the other."""


class NonRealOverlapError(ContractError):
    """A pairwise overlap that must be real has a significant imaginary part.

    Attributes
    ----------
    pair : tuple
        Indices (a, b) of the offending vectors.
    imag : float
        Imaginary part of the offending overlap.
    """

    def __init__(self, message, pair=None, imag=None):
        super().__init__(message)
        self.pair = pair
        self.imag = imag


class DomainError(InputError):
    """Parameter point outside the model domain, or a finite-difference
    step would leave it."""


class ModelDefinitionError(ContractError):
    """A model produced a state violating its own contract (norm drift), or
    lifts whose Gram matrix is not finite."""


class RankDeficiencyError(ContractError):
    """Metric matrix is singular where an inverse is required.

    Attributes
    ----------
    null_directions : ndarray or None
        Columns spanning the (numerically) null subspace.
    """

    def __init__(self, message, null_directions=None):
        super().__init__(message)
        self.null_directions = null_directions


class SpectralConsistencyError(ContractError):
    """A curvature ratio exceeded 1 beyond tolerance; the model data are
    inconsistent with a pure-state family."""


class MeasurementDefinitionError(QestgeoError):
    """POVM elements are not PSD or do not resolve the identity."""


class SingularSupportError(ContractError):
    """A probability family has derivative mass on zero-probability
    outcomes, or the retained support loses probability mass."""


class RefinementError(ContractError):
    """Consecutive curve states stayed near-orthogonal after the maximum
    number of midpoint refinements.

    Attributes
    ----------
    segment : tuple or None
        The (theta_a, theta_b) endpoints of the offending segment.
    overlap : float or None
        Magnitude of the offending overlap.
    """

    def __init__(self, message, segment=None, overlap=None):
        super().__init__(message)
        self.segment = segment
        self.overlap = overlap


class ClosureError(InputError, ValueError):
    """A curve marked closed does not return to its starting ray.

    Also a :class:`ValueError`: the curve argument itself is invalid.
    """


class UndefinedPhaseError(ContractError):
    """Relative phase of two states is undefined (orthogonal endpoints)."""


class AnchorError(ContractError):
    """No sample state overlaps every other sample; phase alignment is
    inconclusive."""


class SpecFormatError(InputError):
    """A CLI input document violates its schema.

    Attributes
    ----------
    path : str or None
        Dotted path of the offending field, e.g. ``"params.grid.n"``.
    """

    def __init__(self, message, path=None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path
