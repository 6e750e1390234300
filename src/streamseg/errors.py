"""Exception hierarchy shared across the package."""


class StreamSegError(Exception):
    """Base class for all errors raised by this package."""


# -- frame / field validation ------------------------------------------------

class EmptyFrame(StreamSegError):
    pass


class InvalidPose(StreamSegError):
    pass


class NonFiniteCoordinate(StreamSegError):
    pass


class UnknownRawId(StreamSegError):
    pass


class LengthMismatch(StreamSegError):
    pass


class LabelOutOfRange(StreamSegError):
    pass


class ShapeMismatch(StreamSegError):
    pass


# -- spatial -----------------------------------------------------------------

class EmptyInput(StreamSegError):
    pass


class KTooLarge(StreamSegError):
    pass


# -- prototypes -------------------------------------------------------------

class NoSeenClasses(StreamSegError):
    pass


# -- model / training --------------------------------------------------------

class NoGroundTruth(StreamSegError):
    pass


class CheckpointMismatch(StreamSegError):
    pass


# -- stream I/O --------------------------------------------------------------

class ConfigInvalid(StreamSegError):
    @classmethod
    def check(cls, values, checks):
        """Raise for the first (name, holds, bound) that does not hold, naming values[name]."""
        for name, ok, bound in checks:
            if not ok:
                raise cls(f"{name} must be {bound}, got {values[name]}")


class IoFailure(StreamSegError):
    """A text file that is not UTF-8, or a sequence directory with no scans (not an OSError)."""


class MalformedRecord(StreamSegError):
    pass


class PoseCountMismatch(StreamSegError):
    pass
