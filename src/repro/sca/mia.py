"""Mutual Information Analysis (MIA) — the information-theoretic
distinguisher.

The paper (Sec. III-C) contrasts TVLA's statistical assumptions with
"information-theoretic procedures [that] bound that error using fewer
statistical assumptions" at higher computational cost.  MIA is that
procedure as a key-recovery distinguisher: rank key guesses by the
estimated mutual information between the trace samples and the
predicted intermediate, with no linearity assumption between leakage
and model (unlike CPA's Pearson correlation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .cpa import _key_hypotheses


def _class_codes(labels: np.ndarray) -> Tuple[np.ndarray, int]:
    """Class index per entry of a (n_rows, n_traces) label matrix.

    Non-negative integer labels below the trace count index the class
    axis as they are; a class absent from a row leaves zero counts,
    which add nothing to the MI.  Other labels (negative, float or wide
    integers) are ranked within each row.  Either way the class axis is
    at most ``n_traces`` long, whatever the label values.
    """
    n_rows, n = labels.shape
    if np.issubdtype(labels.dtype, np.integer) and labels.min() >= 0:
        top = int(labels.max())
        if top < n:
            return labels.astype(np.intp, copy=False), top + 1
    order = np.argsort(labels, axis=1)
    ranked = np.take_along_axis(labels, order, axis=1)
    ranks = np.zeros((n_rows, n), dtype=np.intp)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=ranks[:, 1:])
    codes = np.empty_like(ranks)
    np.put_along_axis(codes, order, ranks, axis=1)
    return codes, int(ranks[:, -1].max()) + 1


def _mi_table(labels: np.ndarray, traces: np.ndarray,
              n_bins: int) -> np.ndarray:
    """Plug-in MI (bits) between every label row and every sample column.

    ``labels``: (n_rows, n_traces) discrete model values; ``traces``:
    (n_traces, n_samples).  Returns (n_rows, n_samples).  Each column is
    histogram-binned once, then one ``bincount`` over (row, class, bin)
    gives the joint histograms of all rows.  Columns are scored one at a
    time, so no temporary grows with the sample count.
    """
    codes, n_classes = _class_codes(labels)
    n_rows, n = codes.shape
    # flat offset of each trace's (row, class) slab of n_bins counts
    slabs = (np.arange(n_rows)[:, None] * n_classes + codes) * n_bins
    mi = np.empty((n_rows, traces.shape[1]))
    for sample, column in enumerate(traces.T):
        edges = np.histogram_bin_edges(column, bins=n_bins)
        binned = np.clip(np.digitize(column, edges[1:-1]), 0, n_bins - 1)
        joint = np.bincount((slabs + binned).ravel(),
                            minlength=n_rows * n_classes * n_bins)
        joint = joint.reshape(n_rows, n_classes, n_bins) / n
        p_label = joint.sum(axis=2, keepdims=True)
        p_bin = joint.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = joint / (p_label * p_bin)
            terms = np.where(joint > 0, joint * np.log2(ratio), 0.0)
        mi[:, sample] = terms.sum(axis=(1, 2))
    return mi


def mutual_information(samples: np.ndarray, labels: np.ndarray,
                       n_bins: int = 9) -> float:
    """Plug-in MI estimate (bits) between a 1-D sample and labels.

    Samples are histogram-binned; labels are discrete.  The plug-in
    estimator is biased upward for small N — callers compare guesses
    against each other, where the bias largely cancels.
    """
    samples = np.asarray(samples, dtype=float)
    labels = np.asarray(labels)
    return float(_mi_table(labels[None, :], samples[:, None], n_bins)[0, 0])


@dataclass
class MiaResult:
    """MIA key-recovery outcome."""

    scores: np.ndarray         # (n_keys,) peak MI per guess
    ranking: List[int]
    best_key: int
    best_mi: float

    def rank_of(self, true_key: int) -> int:
        """Position of the true key in the MI ranking (0 = recovered)."""
        return self.ranking.index(true_key)


def mia_attack(traces: np.ndarray, plaintexts: Sequence[int],
               hypothesis: Optional[Callable[[np.ndarray, int],
                                             np.ndarray]] = None,
               n_keys: int = 256,
               n_bins: int = 9) -> MiaResult:
    """Recover a key byte by maximizing sample/model mutual information.

    ``hypothesis(plaintexts, key)`` gives the predicted discrete
    intermediate per trace (default: HW of the first-round AES S-box
    output).  For each guess, the peak MI across trace samples is the
    score.  Inputs are checked as in :func:`~repro.sca.cpa.cpa_attack`.
    """
    traces, labels = _key_hypotheses(traces, plaintexts, hypothesis, n_keys)
    scores = np.maximum(_mi_table(labels, traces, n_bins).max(axis=1), 0.0)
    ranking = [int(k) for k in np.argsort(-scores)]
    return MiaResult(
        scores=scores,
        ranking=ranking,
        best_key=ranking[0],
        best_mi=float(scores[ranking[0]]),
    )


def perceived_information_gap(traces: np.ndarray,
                              plaintexts: Sequence[int],
                              true_key: int,
                              n_bins: int = 9) -> float:
    """MI(trace; true-key model) minus the mean over wrong keys.

    A direct information-theoretic leakage certificate: positive gap =
    the traces carry key-dependent information an attacker can exploit;
    ~zero = no first-order information at this estimator resolution.
    """
    result = mia_attack(traces, plaintexts, n_bins=n_bins)
    wrong = [result.scores[k] for k in range(256) if k != true_key]
    return float(result.scores[true_key] - np.mean(wrong))
