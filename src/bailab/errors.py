"""Semantic exception types shared across the package."""


class BaiLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BaiLabError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ArgumentError(BaiLabError, ValueError):
    """An argument violates an operation's contract."""


class CapacityError(BaiLabError, RuntimeError):
    """A computation would exceed the configured state budget."""


class ConstructionError(BaiLabError, RuntimeError):
    """A constructed certificate failed its own verification.

    This signals an internal defect, not bad user input: every
    constructor is supposed to deliver only certificates that pass
    independent re-verification.
    """

