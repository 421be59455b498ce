"""Private circuits / ISW masking gadgets — the paper's Fig. 2 subject.

A sensitive bit ``a`` is split into shares ``(a1, a2, a3)`` with
``a = a1 ^ a2 ^ a3``.  Linear operations act share-wise; the AND gadget
(ISW multiplication) needs fresh randomness ``r12, r13, r23``:

    c1 = a1b1 ^ r12 ^ r13
    c2 = a2b2 ^ (r12 ^ a1b2) ^ a2b1 ^ r23
    c3 = a3b3 ^ (r13 ^ a1b3) ^ a3b1 ^ (r23 ^ a2b3) ^ a3b2

The parenthesization is the security property: every intermediate value
mixes in randomness before combining share products, so no single wire
carries an unmasked function of ``a`` or ``b``.  XOR being commutative,
the order is *functionally* irrelevant — which is exactly why a
security-unaware synthesis tool feels free to re-associate it and leak
(paper Sec. II-B).

This module provides both a software model (recording every
intermediate value for leakage simulation) and a netlist builder, plus
a first-order *probing security* checker that exhaustively verifies the
independence of every intermediate from the secrets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..netlist import GateType, Netlist


# ----------------------------------------------------------------------
# Share encoding
# ----------------------------------------------------------------------

def encode_shares(bit: int, n_shares: int,
                  rng: Optional[random.Random] = None) -> List[int]:
    """Split one bit into ``n_shares`` Boolean shares."""
    rng = rng or random.Random()
    # One RNG draw for all mask shares (stimulus generation is on the
    # hot path of every masking campaign).
    word = rng.getrandbits(n_shares - 1)
    shares = [(word >> i) & 1 for i in range(n_shares - 1)]
    last = bit & 1
    for s in shares:
        last ^= s
    shares.append(last)
    return shares


def decode_shares(shares: Sequence[int]) -> int:
    """Recombine Boolean shares into the plain bit."""
    value = 0
    for s in shares:
        value ^= s
    return value & 1


# ----------------------------------------------------------------------
# Software gadgets with recorded intermediates
# ----------------------------------------------------------------------

@dataclass
class GadgetTrace:
    """Result shares plus every intermediate value, in evaluation order."""

    shares: List[int]
    intermediates: List[int] = field(default_factory=list)


def isw_and(a_shares: Sequence[int], b_shares: Sequence[int],
            randomness: Sequence[int],
            order: str = "secure") -> GadgetTrace:
    """ISW AND gadget over ``n`` shares.

    ``randomness`` supplies the ``n*(n-1)/2`` bits ``r_ij`` (i<j), in
    row-major order.  ``order`` selects the evaluation schedule:

    - ``"secure"`` — the ISW order: randomness is mixed into every
      cross-product before accumulation (the parenthesization above).
    - ``"reassociated"`` — the Fig. 2 failure mode: all share products
      are summed first (creating unmasked intermediates), randomness is
      XOR-ed in last, as a timing-driven optimizer would schedule it.

    Every elementary XOR/AND result is recorded in ``intermediates``.
    """
    n = len(a_shares)
    if len(b_shares) != n:
        raise ValueError("share counts must match")
    expected_r = n * (n - 1) // 2
    if len(randomness) != expected_r:
        raise ValueError(f"need {expected_r} random bits, got {len(randomness)}")
    if order not in ("secure", "reassociated"):
        raise ValueError(f"unknown order {order!r}")

    r: Dict[Tuple[int, int], int] = {}
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            r[(i, j)] = randomness[idx] & 1
            idx += 1

    trace = GadgetTrace(shares=[])
    record = trace.intermediates.append

    def product(i: int, j: int) -> int:
        p = (a_shares[i] & b_shares[j]) & 1
        record(p)
        return p

    if order == "secure":
        for i in range(n):
            acc = product(i, i)
            for j in range(n):
                if j == i:
                    continue
                if i < j:
                    z = r[(i, j)]
                else:
                    # z_ij = (r_ji ^ a_j b_i) ^ a_i b_j
                    t = r[(j, i)] ^ product(j, i)
                    record(t)
                    z = t ^ product(i, j)
                    record(z)
                acc ^= z
                record(acc)
            trace.shares.append(acc)
    else:
        # Re-associated: products first, randomness last.
        for i in range(n):
            acc = product(i, i)
            for j in range(n):
                if j == i:
                    continue
                if i > j:
                    acc ^= product(j, i)
                    record(acc)
                    acc ^= product(i, j)
                    record(acc)
            for j in range(n):
                if j == i:
                    continue
                key = (i, j) if i < j else (j, i)
                acc ^= r[key]
                record(acc)
            trace.shares.append(acc)
    return trace


# ----------------------------------------------------------------------
# Probing-security verification
# ----------------------------------------------------------------------

def probing_security_first_order(
    gadget: Callable[[Sequence[int], Sequence[int], Sequence[int]],
                     GadgetTrace],
) -> Tuple[bool, Optional[int]]:
    """Exhaustively check first-order probing security of a three-share
    AND gadget.

    For every intermediate position, the distribution of that value
    (over uniformly random shares and randomness) must be identical for
    all four secret combinations ``(a, b)``.  Returns ``(secure,
    index_of_first_leaky_intermediate)``.

    Also verifies functional correctness (``decode == a & b``) as a side
    effect, raising ``AssertionError`` on miscomputation.
    """
    n_shares = 3
    n_rand = n_shares * (n_shares - 1) // 2
    free_bits = 2 * (n_shares - 1) + n_rand
    distributions: Dict[Tuple[int, int], List[int]] = {}
    n_intermediates = None
    for a, b in itertools.product((0, 1), repeat=2):
        counts: List[int] = []
        for assignment in range(1 << free_bits):
            bits = [(assignment >> k) & 1 for k in range(free_bits)]
            a_shares = bits[:n_shares - 1]
            a_shares.append(_complete(a, a_shares))
            b_shares = bits[n_shares - 1:2 * (n_shares - 1)]
            b_shares.append(_complete(b, b_shares))
            randomness = bits[2 * (n_shares - 1):]
            trace = gadget(a_shares, b_shares, randomness)
            if decode_shares(trace.shares) != (a & b):
                raise AssertionError("gadget miscomputes AND")
            if n_intermediates is None:
                n_intermediates = len(trace.intermediates)
            if not counts:
                counts = [0] * n_intermediates
            for k, v in enumerate(trace.intermediates):
                counts[k] += v
        distributions[(a, b)] = counts
    reference = distributions[(0, 0)]
    for key, counts in distributions.items():
        for k, c in enumerate(counts):
            if c != reference[k]:
                return False, k
    return True, None


def _complete(secret: int, partial_shares: List[int]) -> int:
    last = secret & 1
    for s in partial_shares:
        last ^= s
    return last


# ----------------------------------------------------------------------
# Netlist builder
# ----------------------------------------------------------------------

def isw_and_netlist(n_shares: int = 3) -> Netlist:
    """Gate-level ISW AND gadget in the *secure* evaluation order.

    Inputs ``a0..``, ``b0..`` (shares) and ``r_i_j`` (randomness);
    outputs ``c0..``.  XOR accumulation is built as explicit 2-input
    chains matching the secure schedule, so a security-unaware
    restructuring pass (:func:`repro.synth.reassociate_for_timing`) has
    real re-association freedom to destroy — which is the Fig. 2
    experiment.
    """
    n = Netlist("isw_and")
    a = [n.add_input(f"a{i}") for i in range(n_shares)]
    b = [n.add_input(f"b{i}") for i in range(n_shares)]
    r: Dict[Tuple[int, int], str] = {}
    for i in range(n_shares):
        for j in range(i + 1, n_shares):
            r[(i, j)] = n.add_input(f"r_{i}_{j}")

    def product(i: int, j: int) -> str:
        net = f"p_{i}_{j}"
        if net not in n:
            n.add_gate(net, GateType.AND, [a[i], b[j]])
        return net

    for i in range(n_shares):
        acc = product(i, i)
        for j in range(n_shares):
            if j == i:
                continue
            if i < j:
                z = r[(i, j)]
            else:
                t = n.add(GateType.XOR, [r[(j, i)], product(j, i)],
                          prefix=f"t{i}{j}_")
                z = n.add(GateType.XOR, [t, product(i, j)],
                          prefix=f"z{i}{j}_")
            acc = n.add(GateType.XOR, [acc, z], prefix=f"acc{i}_")
        n.add_gate(f"c{i}", GateType.BUF, [acc])
        n.add_output(f"c{i}")
    return n


_STIM_FNS: Dict[int, Callable[..., Dict[str, int]]] = {}


def _stimulus_fn(n_shares: int) -> Callable[..., Dict[str, int]]:
    """Generated per-trace stimulus builder for one share count.

    Serves callers that build per-trace dicts (benchmarks, examples);
    a design's TVLA trace sets are drawn as columns by
    :func:`random_share_columns` instead.  Each share count gets one
    generated function drawing all randomness of a trace in a single
    RNG word and building the dict as one literal.
    """
    fn = _STIM_FNS.get(n_shares)
    if fn is not None:
        return fn
    n_mask = n_shares - 1
    n_fresh = n_shares * (n_shares - 1) // 2
    parity_mask = (1 << n_mask) - 1
    items = []
    for i in range(n_mask):
        items.append(f"'a{i}': (w >> {i}) & 1")
    items.append(f"'a{n_mask}': (sa ^ (w & {parity_mask}).bit_count()) & 1")
    for i in range(n_mask):
        items.append(f"'b{i}': (w >> {n_mask + i}) & 1")
    items.append(f"'b{n_mask}': (sb ^ ((w >> {n_mask}) "
                 f"& {parity_mask}).bit_count()) & 1")
    pos = 2 * n_mask
    for i in range(n_shares):
        for j in range(i + 1, n_shares):
            items.append(f"'r_{i}_{j}': (w >> {pos}) & 1")
            pos += 1
    source = (
        "def _stim(sa, sb, getrandbits):\n"
        f"    w = getrandbits({2 * n_mask + n_fresh})\n"
        "    return {" + ", ".join(items) + "}"
    )
    namespace: Dict[str, object] = {}
    exec(compile(source, "<share-stimulus>", "exec"), namespace)
    fn = namespace["_stim"]
    _STIM_FNS[n_shares] = fn
    return fn


def random_share_stimulus(secret_a: int, secret_b: int, n_shares: int,
                          rng: random.Random) -> Dict[str, int]:
    """One random masked stimulus for :func:`isw_and_netlist`."""
    return _stimulus_fn(n_shares)(secret_a, secret_b, rng.getrandbits)


def random_share_columns(secret_a: int, secret_b: int, n_shares: int,
                         n: int, rng: random.Random) -> Dict[str, int]:
    """``n`` random masked stimuli for :func:`isw_and_netlist` as packed
    columns (bit ``p`` of each word is trace ``p``).

    ``secret_a`` / ``secret_b`` are the secrets' ``n``-bit columns.
    Every share but the last of each secret, then every gadget
    randomness input, is one ``rng.getrandbits(n)``; the last share is
    the secret XOR the others.
    """
    columns: Dict[str, int] = {}
    for name, secret in (("a", secret_a), ("b", secret_b)):
        last = secret
        for i in range(n_shares - 1):
            share = columns[f"{name}{i}"] = rng.getrandbits(n)
            last ^= share
        columns[f"{name}{n_shares - 1}"] = last
    for i in range(n_shares):
        for j in range(i + 1, n_shares):
            columns[f"r_{i}_{j}"] = rng.getrandbits(n)
    return columns
