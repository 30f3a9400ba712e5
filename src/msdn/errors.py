"""Exception hierarchy shared by all msdn modules.

Each error class carries the process exit code the CLI uses when the
error escapes to the command line (usage 2, data 3, numeric 4, shape 5,
gradient 6).
"""


class MsdnError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ArgumentError(MsdnError, ValueError):
    """A value passed to a public operation violates its preconditions."""

    exit_code = 2


class DataError(MsdnError):
    """A dataset or container file is malformed or inconsistent."""

    exit_code = 3


class ContainerFormatError(DataError):
    """Container bytes or tensors are invalid: bad magic, unknown version,
    truncation, an unknown dtype, a missing tensor, ..."""


class DatasetValidationError(DataError):
    """A loaded or supplied dataset violates its structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "dataset invalid: " + "; ".join(self.violations)
        )


class NumericError(MsdnError):
    """A computation produced or encountered a non-finite value."""

    exit_code = 4


class ShapeError(MsdnError, ValueError):
    """Operands have incompatible shapes."""

    exit_code = 5


class GradientCheckError(MsdnError):
    """An analytic gradient disagrees with its finite-difference check."""

    exit_code = 6
