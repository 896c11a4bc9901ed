"""Exception types shared by all treegrow modules."""


class TreegrowError(Exception):
    """Base class for errors raised by this package."""


class DomainError(TreegrowError, ValueError):
    """An argument violates a documented precondition."""


class ParseError(DomainError):
    """Malformed textual input; the message names the offending token."""


class HorizonError(DomainError):
    """A computation asked for values beyond a declared finite horizon."""


class ZeroMassError(DomainError):
    """A distribution was requested from a weight family with zero total mass."""


class NotCoupleable(TreegrowError):
    """The monotone one-step coupling does not exist for the given laws.

    ``witness`` is the support point at which the interleaving inequalities
    between the two step laws fail.
    """

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"step laws cannot be coupled monotonically (fails at {witness})")


class Refused(TreegrowError):
    """A growth process refused to start because its hypothesis fails.

    ``witness`` is the first index at which the offspring weights violate
    log-concavity.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"offspring weights are not log-concave (first violation at index {witness})")
