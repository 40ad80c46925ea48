"""Multi-label losses and the samples-averaged F1 metric.

The asymmetric loss separates focusing exponents for positive and negative
labels and clips easy negatives:

    L = mean_i [ -y_i (1 - p_i)^g+ log(p_i)
                 - (1 - y_i) max(p_i - m, 0)^g- log(1 - p_i) ]

Probabilities are clamped to [1e-7, 1 - 1e-7] before any logarithm. At the
clip boundary the negative term is defined as exactly zero for every g-
(including g- = 0), which silences easy negatives the way the loss intends.
With g+ = g- = 0 and m = 0 the loss reduces to binary cross-entropy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ingest import preview_ids

PROB_EPS = 1e-7


@dataclass(frozen=True)
class AslParams:
    gamma_pos: float
    gamma_neg: float
    clip_m: float

    def __post_init__(self) -> None:
        if self.gamma_pos < 0 or self.gamma_neg < 0:
            raise ValueError("focusing exponents must be >= 0")
        if not 0.0 <= self.clip_m < 1.0:
            raise ValueError("clip_m must be in [0, 1)")


@dataclass(frozen=True)
class LabeledScores:
    """Binary targets with predicted probabilities, equal length."""

    y: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64)
        p = np.asarray(self.p, dtype=np.float64)
        if y.ndim != 1 or y.shape != p.shape:
            raise ValueError(f"y and p must be 1-D and equally long, got {y.shape} vs {p.shape}")
        if y.size and not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("y must be binary")
        if y.size and not np.all(np.isfinite(p)):
            raise ValueError("p must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "p", p)


def _clamped(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def asl_loss(data: LabeledScores, params: AslParams) -> float:
    """Mean asymmetric loss over all labels."""
    if data.y.size == 0:
        raise ValueError("empty input")
    y = data.y
    p = _clamped(data.p)
    pos = -y * (1.0 - p) ** params.gamma_pos * np.log(p)
    w = np.maximum(p - params.clip_m, 0.0)
    neg_focus = np.where(w > 0.0, w, 1.0) ** params.gamma_neg
    neg = np.where(w > 0.0, -(1.0 - y) * neg_focus * np.log1p(-p), 0.0)
    return float(np.mean(pos + neg))


def asl_grad(data: LabeledScores, params: AslParams) -> np.ndarray:
    """Analytic gradient of ``asl_loss`` with respect to each probability.

    The derivative is taken at the clamped probabilities. Where a negative
    entry sits exactly at the clip boundary with 0 < g- < 1, the loss has a
    nondifferentiable kink; those entries get subgradient 0 and a warning.
    """
    if data.y.size == 0:
        raise ValueError("empty input")
    y = data.y
    p = _clamped(data.p)
    n = p.size
    gp, gn, m = params.gamma_pos, params.gamma_neg, params.clip_m

    one_m_p = 1.0 - p
    pos_grad = gp * one_m_p ** (gp - 1.0) * np.log(p) - one_m_p**gp / p

    w = p - m
    active = w > 0.0
    neg_grad = np.zeros_like(p)
    if np.any(active):
        wa = w[active]
        pa = p[active]
        neg_grad[active] = -gn * wa ** (gn - 1.0) * np.log1p(-pa) + wa**gn / (1.0 - pa)

    if 0.0 < gn < 1.0 and np.any((w == 0.0) & (y == 0.0)):
        warnings.warn(
            "asl_grad evaluated exactly at p == clip_m with 0 < gamma_neg < 1; "
            "returning subgradient 0 at the kink",
            RuntimeWarning,
            stacklevel=2,
        )

    return (y * pos_grad + (1.0 - y) * neg_grad) / n


def bce_loss(data: LabeledScores) -> float:
    """Mean binary cross-entropy with the same probability clamping."""
    if data.y.size == 0:
        raise ValueError("empty input")
    y = data.y
    p = _clamped(data.p)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))


def check_same_surveys(truth, predicted) -> None:
    """Raise unless both collections hold the same, non-empty set of survey ids."""
    truth_ids = set(truth)
    pred_ids = set(predicted)
    if truth_ids != pred_ids:
        missing = preview_ids(truth_ids - pred_ids)
        extra = preview_ids(pred_ids - truth_ids)
        raise ValueError(f"survey id mismatch: missing from predictions {missing}, unexpected {extra}")
    if not truth_ids:
        raise ValueError("no surveys to score")


def mean_f1(tp, predicted, truth):
    """Mean per-survey F1 along the last, non-empty axis, from arrays of each survey's TP and predicted and true set sizes.

    A survey scores TP / (TP + (FP + FN) / 2), 0/0 scoring 1 (a correct empty answer); the scores
    are added one after another in axis order, so the mean is bit-reproducible."""
    denom = tp + ((predicted - tp) + (truth - tp)) / 2.0
    per_survey = np.divide(tp, denom, out=np.ones(denom.shape), where=denom > 0)
    return np.cumsum(per_survey, axis=-1)[..., -1] / per_survey.shape[-1]


def samples_f1(truth, predicted) -> float:
    """Mean per-survey F1 (``mean_f1``) of two mappings from the same survey ids to species sets, in survey-id order."""
    check_same_surveys(truth, predicted)
    sets = [(set(truth[sid]), set(predicted[sid])) for sid in sorted(truth)]
    tp, pred, true = np.array([(len(t & q), len(q), len(t)) for t, q in sets], dtype=np.int64).T
    return float(mean_f1(tp, pred, true))
