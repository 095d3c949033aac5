"""Exception hierarchy shared across the engine.

The CLI maps these onto its exit-code taxonomy: user/data problems
(`ValidationError`, `ConfigError`) exit 1, runtime failures
(`GatewayError` and friends) exit 2.
"""

from __future__ import annotations


class MedcorrError(Exception):
    """Base class for all engine errors."""


class ValidationError(MedcorrError):
    """Invalid user-supplied data: malformed files, broken invariants."""


class ConfigError(MedcorrError):
    """Invalid configuration file or overrides."""


class GatewayError(MedcorrError):
    """Completion backend failure."""


class CacheMissError(GatewayError):
    """Replay backend has no entry for a request; the message names the
    canonical cache key, so fixture drift is diagnosable."""


class LiveRequestError(GatewayError):
    """Live HTTP backend failed after retries, or at once on a malformed
    response or a non-transient status, whose message carries a body excerpt."""


class CompletionParseError(MedcorrError):
    """A completion could not be parsed into the expected output fields."""


class PipelineStageError(MedcorrError):
    """A pipeline stage produced an unusable value (e.g. out-of-range line id)."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage
