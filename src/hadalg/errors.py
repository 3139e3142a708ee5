"""Exception hierarchy shared by all modules.

Three families matter for the CLI exit-code contract:

* ``MathConditionError`` — a mathematical criterion failed (not invertible,
  not divisible, inconsistent system, ...).  These carry a witness.
* ``NumericalError`` — a numerical procedure could not certify its result.
* ``SchemaError`` — malformed input documents or incompatible operands.

Every error is a message plus named fields, readable as attributes; the
witness of a math failure is its fields, in the order they were given.
"""


def complex_json(v):
    """A complex (numpy's included) as an [re, im] pair, a list elementwise;
    any other value as it is."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, list):
        return [complex_json(x) for x in v]
    return v


class HadalgError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str = "", **fields):
        super().__init__(message)
        vars(self).update(fields)


# ---------------------------------------------------------------------------
# mathematical condition failures (CLI exit code 2)


class MathConditionError(HadalgError):
    """A decision procedure returned a definite negative answer."""

    def witness(self) -> dict:
        """The named fields (the public attributes), in the order set."""
        return {k: complex_json(v) for k, v in vars(self).items()
                if not k.startswith("_")}


class NotInvertible(MathConditionError):
    def __init__(self, index: int, value: complex):
        super().__init__(f"not invertible: |u({index})| = {abs(value)}",
                         index=index, value=value)


class NotDivisible(MathConditionError):
    def __init__(self, index: int):
        super().__init__(f"not divisible: divisor vanishes at index {index} "
                         "while the dividend does not", index=index)


class NotInIdeal(MathConditionError):
    def __init__(self, index: int):
        super().__init__(f"not in ideal: all generators vanish at index {index} "
                         "while the element does not", index=index)


class CoronaFails(MathConditionError):
    def __init__(self, index: int):
        super().__init__(f"corona condition fails: generator moduli sum to 0 "
                         f"at index {index}", index=index)


class Inconsistent(MathConditionError):
    """Ax = b has no solution; carries a certifying left-null vector."""

    def __init__(self, position: int, y):
        super().__init__(f"system inconsistent at coefficient position {position}",
                         position=position, y=y)


class NotInGL(MathConditionError):
    def __init__(self, position: int):
        super().__init__(f"matrix not invertible over the algebra: singular "
                         f"coefficient matrix at position {position}",
                         position=position)


class NotSL(MathConditionError):
    def __init__(self, position: int, det: complex):
        super().__init__(f"determinant differs from the unit at position "
                         f"{position}: {det}", position=position, det=det)


# ---------------------------------------------------------------------------
# numerical failures (CLI exit code 4)


class NumericalError(HadalgError):
    pass


class OverflowAtIndex(NumericalError):
    def __init__(self, index: int):
        # an index of thousands of digits has no decimal str (int max str digits)
        at = index if index.bit_length() <= 4096 else f">= 2^{index.bit_length() - 1}"
        super().__init__(f"weight value at index {at} exceeds the double range; "
                         "use log-space evaluation", index=index)


class BoundUnavailable(NumericalError):
    pass


class OffBranch(NumericalError):
    """A logarithm whose spectrum leaves the strip of its branch."""

    def __init__(self, position: int, margin: float):
        super().__init__(f"logarithm leaves its branch at position {position}: "
                         f"eigenvalue margin {margin:.3e} to the strip edges "
                         "is not positive", position=position, margin=margin)


class WindowTooLarge(NumericalError):
    """A joint window would span more positions than coeffseq.MAX_WINDOW."""


# ---------------------------------------------------------------------------
# input / usage errors (CLI exit code 3)


class SchemaError(HadalgError):
    pass


class WeightMismatch(SchemaError):
    pass


class DimensionMismatch(SchemaError):
    pass


class PointwiseDomainError(SchemaError):
    def __init__(self, index: int, message: str = "pointwise operation undefined"):
        super().__init__(f"{message} at index {index}", index=index)


class HorizonExceeded(SchemaError):
    def __init__(self, requested: int, horizon: int):
        super().__init__(f"index {requested} beyond horizon {horizon}",
                         requested=requested, horizon=horizon)


class InvalidArgument(SchemaError, ValueError):
    """A numeric argument outside its documented domain (say eps <= 0)."""
