"""Security-driven HLS passes (paper Sec. III-A).

Three countermeasures the paper asks HLS tools to automate:

* **register flushing** — overwrite registers holding critical data
  right after their last use (the paper's own "simple countermeasure
  against SCAs");
* **first-order masking** — rewrite ``y = SBOX[pt ^ k]`` into a masked
  evaluation with an allocated RNG, so no DFG value carries the bare
  key-dependent byte;
* **operation shuffling** — randomized schedule tie-breaks (done in
  :func:`repro.hls.schedule.list_schedule` via ``shuffle_seed``), with
  an evaluator here quantifying the temporal misalignment it buys.

Each pass reports its cost so the composition engine can weigh it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

import numpy as np

from ..crypto import SBOX
from .dfg import Dfg, Label, OpType
from .ift import taint_analysis
from .schedule import OP_LATENCY, Schedule, list_schedule


def insert_register_flushes(dfg: Dfg,
                            labels: Optional[Mapping[str, Label]] = None
                            ) -> Tuple[Dfg, List[str]]:
    """Add a FLUSH consumer after the last use of every SECRET value.

    Returns the new DFG and the list of flush ops inserted.  The flush
    op keeps the value's register busy one extra cycle but then clears
    it; downstream, :func:`flushed_exposure` scores the improvement.
    """
    labels = labels or taint_analysis(dfg).labels
    flushed = Dfg(dfg.name + "_flush")
    for name in dfg.topological_order():
        op = dfg.ops[name]
        flushed.add(name, op.op, list(op.args), op.value, op.label)
    inserted: List[str] = []
    for name, label in labels.items():
        op = dfg.ops[name]
        if label is not Label.SECRET:
            continue
        if op.op in (OpType.OUTPUT, OpType.FLUSH):
            continue
        flush_name = f"flush_{name}"
        flushed.add(flush_name, OpType.FLUSH, [name])
        inserted.append(flush_name)
    return flushed, inserted


def flushed_exposure(schedule: Schedule,
                     labels: Mapping[str, Label]) -> int:
    """Secret register-cycles, counting a FLUSH as ending the lifetime.

    Without flushing, a secret's register keeps its value until
    overwritten by some later allocation — modeled pessimistically as
    the full schedule latency; with a flush consumer, exposure ends at
    the flush cycle.
    """
    dfg = schedule.dfg
    consumers = dfg.consumers()
    total = 0
    horizon = schedule.latency
    for name, op in dfg.ops.items():
        if labels.get(name) is not Label.SECRET:
            continue
        if op.op in (OpType.OUTPUT, OpType.FLUSH):
            continue
        birth = schedule.start[name] + OP_LATENCY[op.op]
        flushes = [
            c for c in consumers[name]
            if dfg.ops[c].op is OpType.FLUSH
        ]
        if flushes:
            end = min(schedule.start[f] for f in flushes)
        else:
            end = horizon  # lives until the kernel retires
        total += max(0, end - birth)
    return total


def mask_sbox_kernel() -> Dfg:
    """First-order masked ``SBOX[pt ^ k]`` kernel.

    The classic masked-table scheme: with input mask ``m_in`` and
    output mask ``m_out`` (fresh randoms), the datapath computes via an
    internally masked S-box unit ``MSBOX(x, m_in, m_out) =
    SBOX[x ^ m_in] ^ m_out``, so the bare value ``pt ^ key`` never
    appears in a register.  The consumer receives ``(ct_m, m_out)``
    shares.  Gadget-level security of the unit itself is the subject of
    :mod:`repro.sca.masking`; here the HLS view allocates the RNG and
    keeps every register value masked.
    """
    g = Dfg("aes_round1_masked")
    g.add("pt", OpType.INPUT, label=Label.PUBLIC)
    g.add("key", OpType.INPUT, label=Label.SECRET)
    g.add("m_in", OpType.RAND)
    g.add("m_out", OpType.RAND)
    g.add("key_m", OpType.XOR, ["key", "m_in"])      # key ^ m_in
    g.add("ark_m", OpType.XOR, ["pt", "key_m"])      # pt ^ key ^ m_in
    g.add("sb_m", OpType.MSBOX, ["ark_m", "m_in", "m_out"])
    g.add("ct_m", OpType.OUTPUT, ["sb_m"])
    g.add("mask_out", OpType.OUTPUT, ["m_out"])
    return g


def multi_byte_kernel(n_bytes: int = 4) -> Dfg:
    """``n_bytes`` independent, unmasked first-round S-box lanes.

    Sharing one S-box unit across lanes gives the scheduler real
    freedom, which is what the shuffling countermeasure exploits: with
    random tie-breaks the attacked byte's S-box evaluation lands in a
    different cycle per trace, spreading its leakage over ``n_bytes``
    time samples.  Inputs are ``pt``/``key`` (the attacked lane 0) and
    ``pt1..``/``key1..``.
    """
    g = Dfg(f"aes_round1_x{n_bytes}")
    for lane in range(n_bytes):
        suffix = "" if lane == 0 else str(lane)
        g.add(f"pt{suffix}", OpType.INPUT, label=Label.PUBLIC)
        g.add(f"key{suffix}", OpType.INPUT, label=Label.SECRET)
        g.add(f"ark{suffix}", OpType.XOR, [f"pt{suffix}", f"key{suffix}"])
        g.add(f"sb{suffix}", OpType.SBOX, [f"ark{suffix}"])
        g.add(f"ct{suffix}", OpType.OUTPUT, [f"sb{suffix}"])
    return g


@dataclass
class HlsLeakageResult:
    """Cycle-accurate HLS-level leakage evaluation."""

    cpa_rank_of_true_key: int
    max_correlation: float
    traces_used: int


def hls_power_trace(dfg: Dfg, schedule: Schedule,
                    inputs: Mapping[str, int],
                    randoms: Mapping[str, int],
                    noise_sigma: float,
                    rng: np.random.Generator) -> np.ndarray:
    """One power trace: per-cycle Hamming weight of produced values."""
    values = dfg.evaluate(inputs, randoms)
    n_cycles = schedule.latency + 1
    trace = np.zeros(n_cycles)
    for name, op in dfg.ops.items():
        if OP_LATENCY[op.op] == 0:
            continue
        cycle = schedule.start[name] + OP_LATENCY[op.op] - 1
        trace[min(cycle, n_cycles - 1)] += int(values[name]).bit_count()
    if noise_sigma > 0:
        trace = trace + rng.normal(0.0, noise_sigma, trace.shape)
    return trace


def evaluate_hls_cpa(dfg: Dfg, true_key: int,
                     n_traces: int = 1500,
                     noise_sigma: float = 1.0,
                     shuffle: bool = False,
                     seed: int = 0) -> HlsLeakageResult:
    """CPA against the HLS-level power model of a kernel, scheduled on
    one unit of each class.

    The kernel must expose inputs ``pt`` and ``key``.  With
    ``shuffle=True`` each trace is scheduled with a fresh random
    tie-break seed, modeling runtime operation shuffling.
    """
    from ..sca import cpa_attack

    resources = {"alu": 1, "sbox": 1, "mul": 1, "rng": 1}
    rng_np = np.random.default_rng(seed)
    rng_py = random.Random(seed)
    base_schedule = list_schedule(dfg, resources)
    horizon = base_schedule.latency + 4  # headroom for shuffled variants
    traces = np.zeros((n_traces, horizon))
    pts = []
    random_names = dfg.randoms()
    # Non-attacked lanes: keys fixed per device, plaintexts random.
    other_inputs = [i for i in dfg.inputs() if i not in ("pt", "key")]
    fixed_other_keys = {
        name: rng_py.randrange(256)
        for name in other_inputs if name.startswith("key")
    }
    for t in range(n_traces):
        pt = rng_py.randrange(256)
        pts.append(pt)
        stimulus = {"pt": pt, "key": true_key}
        for name in other_inputs:
            stimulus[name] = fixed_other_keys.get(
                name, rng_py.randrange(256))
        randoms = {name: rng_py.randrange(256) for name in random_names}
        schedule = (list_schedule(dfg, resources,
                                  shuffle_seed=rng_py.randrange(1 << 30))
                    if shuffle else base_schedule)
        trace = hls_power_trace(
            dfg, schedule, stimulus, randoms, noise_sigma, rng_np)
        traces[t, :min(len(trace), horizon)] = trace[:horizon]
    result = cpa_attack(traces, pts)
    return HlsLeakageResult(
        cpa_rank_of_true_key=result.rank_of(true_key),
        max_correlation=abs(result.best_corr),
        traces_used=n_traces,
    )
