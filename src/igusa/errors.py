"""Exceptions shared across the package, and the size guard that every
exhaustive enumeration passes before it starts."""

import sys
from math import log10

ENUMERATION_LIMIT = 10**8


class IgusaError(Exception):
    """Base class for all errors raised by this package."""


class PolynomialParseError(IgusaError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SizeGuardError(IgusaError):
    """An exhaustive enumeration would exceed the configured budget."""


def guard(base, what, exponent=1):
    """Refuse, before it starts, an enumeration of base**exponent steps
    over the limit; `what` names it in the message. A power too long for
    str() (4300 digits if unlimited) is refused unbuilt, by its digits."""
    digits = exponent * log10(base) if base > 1 else 0
    if digits >= (sys.get_int_max_str_digits() or 4300):
        raise SizeGuardError(f"{what} needs a {int(digits) + 1}-digit number "
                             f"of steps, over the limit {ENUMERATION_LIMIT}")
    work = base**exponent
    if work > ENUMERATION_LIMIT:
        raise SizeGuardError(
            f"{what} needs {work} steps, over the limit {ENUMERATION_LIMIT}")


class DegeneracyError(IgusaError):
    """A required non-degeneracy condition failed; carries the report."""

    def __init__(self, report):
        count = sum(len(points) for _, points in report.witnesses)
        super().__init__(f"non-degeneracy check failed: {count} witness(es)")
        self.report = report


class PoleEvaluationError(IgusaError):
    """Exact evaluation was requested at a root of the denominator."""


class InternalConsistencyError(IgusaError):
    """An invariant the formulas guarantee was violated; indicates a bug."""
