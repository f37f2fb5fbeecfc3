"""Exception types shared across the package.

Two broad families matter for the CLI exit-code contract: ``DataError``
(malformed inputs, mismatched shapes, bad files) and ``NumericalError``
(degenerate spectra, non-finite values, failed numerical preconditions).
"""

from __future__ import annotations


class KpcaOodError(Exception):
    """Base class for all package-specific errors."""


class DataError(KpcaOodError):
    """Bad input data, file contents, or shape mismatches."""


class NumericalError(KpcaOodError):
    """Numerical precondition or computation failures."""


class NonSymmetricError(NumericalError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


class NonFiniteError(NumericalError):
    """NaN or Inf encountered where finite values are required."""


class InvalidBandwidthError(NumericalError):
    """Kernel bandwidth gamma must be strictly positive."""


class ZeroVectorError(DataError):
    """A (near-)zero row hit an operation that needs a direction.

    ``name`` is the input's name and ``row_index`` the row's index in it;
    the message is formed from the two.
    """

    def __init__(self, name: str, row_index: int):
        super().__init__(f"{name} row {row_index} has zero norm")
        self.name = name
        self.row_index = row_index


class DimMismatchError(DataError):
    """Input dimension does not match what a map/model expects."""


class DegenerateSpectrumError(NumericalError):
    """Total variance is numerically zero; nothing to decompose."""


class AllZeroSpectrumError(NumericalError):
    """Eigenvalue vector is all zeros; no component can be selected."""


class MissingResidualBasisError(KpcaOodError):
    """Residual-subspace scoring requested on a model fitted without one."""


class KTooLargeError(DataError):
    """Neighbor index k exceeds the number of stored training rows."""


class LengthMismatchError(DataError):
    """Paired vectors have different lengths."""


class IndexMismatchError(DataError):
    """Score CSV files do not agree on row indices."""


class EmptyScoresError(DataError):
    """A metric was asked to evaluate an empty score set."""


class InvalidSpecError(DataError):
    """Synthetic-data or feature-map specification is invalid."""


class FormatError(DataError):
    """Binary container has a bad magic, version, or truncated payload."""
