"""Exception types shared across the package."""


class UcdlError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(UcdlError, ValueError):
    """Operands have incompatible shapes, or a kernel does not fit its image."""


class NonFiniteValue(UcdlError, FloatingPointError):
    """A NaN or Inf appeared where finite values are required."""


class ZeroFilter(UcdlError, ValueError):
    """A filter kernel has (numerically) zero norm and cannot be normalized."""


class TraceMismatch(UcdlError, ValueError):
    """A recorded forward trace is inconsistent with the requested backward pass."""


class RoiTooLarge(UcdlError, ValueError):
    """The requested ROI exceeds the image dimensions."""


class ZeroReference(UcdlError, ValueError):
    """The reference image is identically zero, so a relative error is undefined."""
