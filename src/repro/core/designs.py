"""Ready-made designs and the named countermeasure stacks of
composition studies.

The flagship experiment (paper Sec. IV, ref [61]): start from a
first-order masked AND gadget, then add fault detection two ways —

* **duplication with comparison** compares share against share; every
  comparator wire stays masked — the composition is *safe*;
* **parity prediction** XORs the three output shares together, which is
  the definition of unmasking (``c0 ^ c1 ^ c2 = a & b``) — the checker
  itself becomes the side channel, and the composition engine flags it.

Both are registered flow passes (``duplication-detect``,
``parity-detect`` in :mod:`repro.flow.library`), as are the WDDL and
Fig. 2 re-association steps the stacks below also name, so the
composition engine audits *optimizations* and countermeasures through
the one pass registry the flow uses.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

from ..sca import isw_and_netlist, random_share_columns
from .composition import Design

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..flow.passes import Pass


#: Named design factories: ``Design`` objects hold closures (stimulus
#: generators, adapters) and cannot travel across process boundaries,
#: so distributed composition jobs (:mod:`repro.service`) address them
#: by factory *name* and rebuild the design inside the worker.
DESIGN_FACTORIES: Dict[str, "Callable[[], Design]"] = {}

#: Stack names of composition jobs, each naming the registered pass
#: (:func:`repro.flow.create_pass`) it applies.
STACK_PASSES: Dict[str, str] = {
    "duplication": "duplication-detect",
    "parity": "parity-detect",
    "wddl": "wddl-hiding",
    "timing-reassociation": "reassoc-timing",
}


def register_design(name: str):
    """Register a zero-argument design factory under ``name``."""
    def wrap(factory):
        DESIGN_FACTORIES[name] = factory
        return factory
    return wrap


def build_design(name: str) -> Design:
    """Instantiate a registered design factory by name."""
    try:
        return DESIGN_FACTORIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown design {name!r}; registered: "
            f"{sorted(DESIGN_FACTORIES)}") from None


def build_stack(names: Sequence[str]) -> List["Pass"]:
    """Instantiate a pass stack from :data:`STACK_PASSES` names."""
    from ..flow import create_pass

    missing = [n for n in names if n not in STACK_PASSES]
    if missing:
        raise KeyError(
            f"unknown countermeasures {missing}; registered: "
            f"{sorted(STACK_PASSES)}")
    return [create_pass(STACK_PASSES[n]) for n in names]


@register_design("masked-and")
def masked_and_design() -> Design:
    """First-order masked AND gadget (three shares) as a
    composition-study baseline.

    TVLA classes: fixed secrets (a=1, b=1) vs random secrets, with
    shares and gadget randomness fresh per trace either way; each class
    is drawn as packed columns.
    """
    n_shares = 3
    netlist = isw_and_netlist(n_shares)

    def fixed(n: int, rng: random.Random) -> Dict[str, int]:
        ones = (1 << n) - 1
        return random_share_columns(ones, ones, n_shares, n, rng)

    def rand(n: int, rng: random.Random) -> Dict[str, int]:
        return random_share_columns(rng.getrandbits(n), rng.getrandbits(n),
                                    n_shares, n, rng)

    return Design(
        name="masked-and",
        netlist=netlist,
        tvla_fixed=fixed,
        tvla_random=rand,
        payload_outputs=[f"c{i}" for i in range(n_shares)],
    )
