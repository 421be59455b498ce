"""Correlation Power Analysis (CPA) — the reference SCA attack [1].

CPA ranks key guesses by the Pearson correlation between measured
traces and a leakage hypothesis (here: Hamming weight of the
first-round AES S-box output).  The EDA role (paper Table I) is
*evaluation at design time*: running CPA against simulated traces tells
the designer how many traces an attacker would need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..crypto import SBOX
from .power_model import HW8


@dataclass
class CpaResult:
    """Outcome of a CPA key-byte recovery."""

    correlations: np.ndarray   # (n_keys, n_samples)
    ranking: List[int]         # key guesses, best first
    best_key: int
    best_corr: float
    best_sample: int

    def rank_of(self, true_key: int) -> int:
        """Position of the true key in the ranking (0 = recovered)."""
        return self.ranking.index(true_key)


def _pearson_rows(hypotheses: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Correlation of each hypothesis row with each trace sample.

    ``hypotheses``: (n_keys, n_traces); ``traces``: (n_traces, n_samples).
    Returns (n_keys, n_samples).
    """
    h = hypotheses - hypotheses.mean(axis=1, keepdims=True)
    t = traces - traces.mean(axis=0, keepdims=True)
    h_norm = np.sqrt((h ** 2).sum(axis=1, keepdims=True))
    t_norm = np.sqrt((t ** 2).sum(axis=0, keepdims=True))
    denom = h_norm @ t_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, (h @ t) / denom, 0.0)
    return corr


#: HW(SBOX[x]) for every byte x: the default model as one lookup table.
_SBOX_HW = HW8[np.asarray(SBOX, dtype=np.int64)]


def _key_hypotheses(traces: np.ndarray, plaintexts: Sequence[int],
                    hypothesis: Optional[Callable[[np.ndarray, int],
                                                  np.ndarray]],
                    n_keys: int) -> Tuple[np.ndarray, np.ndarray]:
    """Checked float traces and the (n_keys, n_traces) hypothesis matrix.

    Shared by every key-recovery distinguisher.  The default model
    (first-round AES S-box HW) is one table gather over all guesses and
    accepts only byte plaintexts and at most 256 guesses; a custom
    ``hypothesis(plaintexts, key)`` is called once per guess.
    """
    traces = np.asarray(traces, dtype=float)
    pts = np.asarray(plaintexts, dtype=np.int64)
    if traces.ndim != 2 or len(pts) != len(traces):
        raise ValueError("traces must be (n, samples) aligned with plaintexts")
    if traces.size == 0:
        raise ValueError("no trace samples to attack")
    if hypothesis is not None:
        return traces, np.stack([hypothesis(pts, k) for k in range(n_keys)])
    if not 1 <= n_keys <= 256:
        raise ValueError(f"the AES model has 1..256 key guesses, not {n_keys}")
    if pts.min() < 0 or pts.max() > 255:
        raise ValueError("the AES model needs plaintext bytes in 0..255")
    keys = np.arange(n_keys)
    return traces, _SBOX_HW[pts[None, :] ^ keys[:, None]]


def cpa_attack(traces: np.ndarray, plaintexts: Sequence[int],
               hypothesis: Optional[Callable[[np.ndarray, int], np.ndarray]]
               = None,
               n_keys: int = 256) -> CpaResult:
    """Recover a key byte by correlating traces with a leakage model.

    ``traces``: (n_traces, n_samples) array.  ``plaintexts``: the known
    input byte per trace.  ``hypothesis(plaintexts, key)`` returns the
    predicted leakage per trace (default: first-round AES S-box HW).
    Raises ``ValueError`` for misaligned or empty inputs and, under the
    default model, for plaintexts outside 0..255 or ``n_keys > 256``.
    """
    traces, matrix = _key_hypotheses(traces, plaintexts, hypothesis, n_keys)
    corr = _pearson_rows(matrix.astype(float), traces)
    peak = np.abs(corr).max(axis=1)
    ranking = list(np.argsort(-peak))
    best_key = int(ranking[0])
    best_sample = int(np.argmax(np.abs(corr[best_key])))
    return CpaResult(
        correlations=corr,
        ranking=[int(k) for k in ranking],
        best_key=best_key,
        best_corr=float(corr[best_key, best_sample]),
        best_sample=best_sample,
    )


def traces_to_disclosure(traces: np.ndarray, plaintexts: Sequence[int],
                         true_key: int) -> int:
    """Measurements-to-disclosure: smallest trace count (on a grid of
    10 prefixes) at which CPA (AES S-box model) ranks the true key
    first.

    Returns the trace count, or -1 if the key is never rank-0 within the
    provided set.  This is the quantitative security metric the paper
    wants EDA tools to report for SCA resistance.
    """
    n = len(traces)
    for count in np.linspace(max(8, n // 10), n, 10).astype(int):
        result = cpa_attack(traces[:count], plaintexts[:count])
        if result.best_key == true_key:
            return int(count)
    return -1
