"""Exception hierarchy shared by all shiftlab modules."""


class ShiftlabError(Exception):
    """Base class for all shiftlab errors."""


class EmptyShift(ShiftlabError):
    """Trimming removed every symbol; the shift space is empty."""


class NotPrimitive(ShiftlabError):
    """Operation requires a primitive (mixing) transition matrix."""


class SymbolOutOfRange(ShiftlabError):
    """A word uses a symbol outside the alphabet."""


class NotAdmissible(ShiftlabError):
    """A word violates the transition constraints."""


class NotStronglyConnected(ShiftlabError):
    """Operation requires a strongly connected transition graph."""


class PeriodNotDetected(ShiftlabError):
    """No period or termination found within the expansion horizon."""


class ValidityExceeded(ShiftlabError):
    """Requested word length exceeds the digit stream's validity length."""


class RangeMismatch(ShiftlabError):
    """Potential table does not cover the words needed for this operation."""


class OutsideInterior(ShiftlabError):
    """Target average lies outside the open interval of attainable averages."""


class DegenerateInterval(ShiftlabError):
    """The interval of attainable averages is a single point."""


class EndpointSaturation(ShiftlabError):
    """The root of P'(q) = a lies beyond the |q| cap."""


class PressureOverflow(ShiftlabError):
    """|q| beyond the documented range for pressure evaluation."""


class NoProperSubshift(ShiftlabError):
    """Ambient graph has no proper strongly connected subgraph to build on."""


class IrregularityUnavailable(ShiftlabError):
    """The potential has a degenerate average interval (e.g. constant)."""


class CertificateMismatch(ShiftlabError):
    """A recomputed certificate fact disagrees with the stored one."""

    def __init__(self, fact: str, detail: str = ""):
        self.fact = fact
        self.detail = detail
        super().__init__(f"certificate fact failed: {fact}" + (f" ({detail})" if detail else ""))


class TooShort(ShiftlabError):
    """Orbit prefix is too short for the requested statistic."""


class SchemaError(ShiftlabError):
    """A JSON document does not match the expected schema."""


class UnreadableInput(ShiftlabError):
    """An input file cannot be read: missing, a directory, or not permitted."""
