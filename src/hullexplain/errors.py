"""Exception and warning types shared across the package."""


class InvalidInputError(ValueError):
    """Non-finite values, dimension mismatches, or out-of-range arguments."""


class ConfigError(ValueError):
    """Inconsistent or unusable run configuration."""


class PredictorIOError(RuntimeError):
    """A predictor failed or broke the `Predictor` contract."""


class DataFormatError(ValueError):
    """A data file could not be ingested; message carries row/column info."""


class DegenerateHullError(RuntimeError):
    """The point set does not support the requested hull operation."""


class DegenerateNormalizationError(RuntimeError):
    """Dual coefficients sum to zero; contribution weights are undefined."""


class TrainingError(RuntimeError):
    """Model training diverged; message names the failing step."""


class ConvergenceError(RuntimeError):
    """A numerical solver stopped without meeting its convergence criterion."""


class ExplainWarning(UserWarning):
    """Base class for warnings raised by explanation routines."""


class RankDeficiencyWarning(ExplainWarning):
    """Fewer extreme points than primal dimensions; recovery is a subspace fit."""


class DegenerateWeightWarning(ExplainWarning):
    """Sample weights collapsed numerically and were floored."""


class FlatCurveWarning(ExplainWarning):
    """A coordinate was constant across samples; its curve is identically zero."""


class UniformFallbackWarning(ExplainWarning):
    """All importances were zero; a uniform vector was returned instead."""
