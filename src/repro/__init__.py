"""repro — a security-centric EDA framework.

Reproduction of *"Towards Secure Composition of Integrated Circuits and
Electronic Systems: On the Role of EDA"* (DATE 2020).  The package
implements, over a from-scratch gate-level EDA substrate, every security
scheme of the paper's Table II and the secure-composition flow of its
Sec. IV:

- :mod:`repro.netlist` — gate-level IR, simulation, BENCH I/O, PPA
- :mod:`repro.synth` — logic synthesis and technology mapping
- :mod:`repro.physical` — placement, routing estimation, timing
- :mod:`repro.crypto` — AES-128 and S-box attack targets
- :mod:`repro.formal` — CDCL SAT, equivalence and property checking
- :mod:`repro.sca` — side-channel analysis: TVLA, CPA, masking, WDDL
- :mod:`repro.fia` — fault injection, DFA, detection codes, sensors
- :mod:`repro.ip` — locking, SAT attack, camouflaging, split mfg., PUFs
- :mod:`repro.trojan` — Trojan insertion, MERO, fingerprinting, monitors
- :mod:`repro.dft` — scan, ATPG, BIST, scan attacks, secure scan
- :mod:`repro.hls` — scheduling/binding with security-driven extensions
- :mod:`repro.core` — the secure-composition flow, metrics, and DSE
"""

__version__ = "1.0.0"
