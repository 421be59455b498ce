"""PRESENT's 4-bit S-box (Bogdanov et al., CHES 2007).

A second, structurally different attack target next to AES: the 4-bit
S-box of the PRESENT lightweight cipher, the typical payload of the
paper's embedded-security scenarios.  Its small cone makes exhaustive
netlist-level analyses cheap (:func:`repro.crypto.present_sbox_netlist`).
"""

SBOX4 = [0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD,
         0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2]
