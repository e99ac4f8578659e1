"""Exception types raised by the library."""


class JetconnError(Exception):
    """Base class for every domain error raised by jetconn."""


class ParseError(JetconnError):
    """Malformed expression text.

    ``position`` is the 1-based character offset the parser was looking at.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    """Identifier that names no variable of the symbol universe."""


class FunctionArityError(ParseError):
    """Function applied to the wrong number of arguments."""


class SizeLimitError(JetconnError):
    """A value past a size limit, such as a constant too long to print."""


class EvalError(JetconnError):
    """Numeric evaluation failure: division by zero, ln domain, missing variable."""


class SamplingError(JetconnError):
    """Probabilistic equality check could not find a single regular sample point."""


class DimensionMismatchError(JetconnError):
    """Objects with incompatible base/fiber dimensions were combined."""


class TransportError(JetconnError):
    """Integration aborted, e.g. the trajectory hit a singular point."""


class FrameVerificationError(JetconnError):
    """Numeric frame/coframe duality check failed at some sample point."""


class FormatError(JetconnError):
    """Input file does not match any known jetconn document layout."""
