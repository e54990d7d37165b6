"""Exception types shared across the toolkit."""


class QCalcError(Exception):
    """Base class for all toolkit errors."""


class SpectrumHit(QCalcError):
    """A kernel was requested at a point numerically inside the F-spectrum."""


class NoDecayMetadata(QCalcError):
    """A decay certificate cannot absorb the kernel's growth, so no truncation radii exist."""


class ToleranceNotMet(QCalcError):
    """Adaptive refinement hit its cap before reaching the requested tolerance."""


class ClassMismatch(QCalcError):
    """A function lacks the decay certificate required by the requested calculus."""


class NotIntrinsic(QCalcError):
    """An operation requiring an intrinsic (real-stem) function got a non-intrinsic one."""


class NotInjective(QCalcError):
    """The H-infinity construction needs an injective operator and this one is not."""


class UnsupportedKind(QCalcError):
    """A structural operation is not defined for this function node."""
