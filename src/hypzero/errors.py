"""Exception types shared across the toolkit."""


class HypzeroError(Exception):
    """Base class for all toolkit errors."""


class DomainError(HypzeroError):
    """Input outside the mathematical domain of the operation."""


class SingularPointError(DomainError):
    """Evaluation requested at a branch point or pole."""


class RegionError(HypzeroError):
    """Operation requires z inside the admissible region."""


class AccuracyError(HypzeroError):
    """Requested tolerance could not be reached.

    Carries the achieved bound in ``achieved`` when available.
    """

    def __init__(self, msg, achieved=None):
        super().__init__(msg)
        self.achieved = achieved


class TracingError(HypzeroError):
    """Path tracing failed (Newton divergence, step collapse).

    ``diagnostics`` holds the last accepted point and step data.
    """

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


class IndeterminateRegionError(HypzeroError):
    """Region classification ended without reaching a terminal."""


class SelectionError(HypzeroError):
    """A filter (e.g. arcs restricted to a region) selected nothing."""


class ConfigError(HypzeroError):
    """Invalid experiment configuration."""
