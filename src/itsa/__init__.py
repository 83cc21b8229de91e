"""Interrupted time series analysis toolkit.

Measures the impact of a time-delimited intervention on an equally
spaced outcome series: segmented regression with confounder control,
autocorrelation diagnostics, ARX intervention models with
likelihood-ratio testing, and counterfactual effect estimation.
"""

from .arx import (
    ArxFit,
    ArxSpec,
    LrtResult,
    SelectionResult,
    fit_arx,
    fit_nested,
    likelihood_ratio_test,
    predict_arx,
    select_baseline,
)
from .dataset import (
    SegmentSummary,
    TimeSeriesDataset,
    load_case_study,
    parse_csv,
    summarize,
)
from .design import (
    DesignMatrix,
    InterventionSpec,
    build_design,
    recode_time,
)
from .diagnostics import (
    AcfResult,
    DwResult,
    LjungBoxResult,
    acf,
    durbin_watson,
    dw_p_value,
    ljung_box,
)
from .effect import EffectEstimate, EffectSeries, counterfactual_series, effect_at, effect_series
from .errors import DataError, DesignError, FitError, ItsaError
from .ols import OlsFit, fit_ols, gaussian_deviance

__version__ = "0.1.0"

__all__ = [
    "AcfResult",
    "ArxFit",
    "ArxSpec",
    "DataError",
    "DesignError",
    "DesignMatrix",
    "DwResult",
    "EffectEstimate",
    "EffectSeries",
    "FitError",
    "InterventionSpec",
    "ItsaError",
    "LjungBoxResult",
    "LrtResult",
    "OlsFit",
    "SegmentSummary",
    "SelectionResult",
    "TimeSeriesDataset",
    "acf",
    "build_design",
    "counterfactual_series",
    "durbin_watson",
    "dw_p_value",
    "effect_at",
    "effect_series",
    "fit_arx",
    "fit_nested",
    "fit_ols",
    "gaussian_deviance",
    "likelihood_ratio_test",
    "ljung_box",
    "load_case_study",
    "parse_csv",
    "predict_arx",
    "recode_time",
    "select_baseline",
    "summarize",
]
