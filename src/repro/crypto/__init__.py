"""Cryptographic attack targets: AES-128, GF(2^8), S-box netlists."""

from .gf import AES_POLY, gf_inv, gf_mul, gf_pow, xtime
from .aes import (
    AES128,
    AesTrace,
    INV_SBOX,
    RCON,
    SBOX,
    SHIFT_ROWS,
    INV_SHIFT_ROWS,
    add_round_key,
    expand_key,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    mix_columns,
    recover_master_key,
    shift_rows,
    sub_bytes,
)
from .aes_netlist import (
    aes_datapath_netlist,
    encode_state,
    encryption_schedule,
    run_aes_datapath,
    run_aes_datapath_batch,
)
from .present import SBOX4
from .sboxes import (
    aes_sbox_netlist,
    present_sbox_netlist,
    sbox_with_key_netlist,
)

__all__ = [
    "AES_POLY", "gf_inv", "gf_mul", "gf_pow", "xtime",
    "AES128", "AesTrace", "INV_SBOX", "RCON", "SBOX", "SHIFT_ROWS",
    "INV_SHIFT_ROWS", "add_round_key", "expand_key", "inv_mix_columns",
    "inv_shift_rows", "inv_sub_bytes", "mix_columns", "recover_master_key",
    "shift_rows", "sub_bytes",
    "aes_datapath_netlist", "encode_state", "encryption_schedule",
    "run_aes_datapath", "run_aes_datapath_batch",
    "SBOX4", "aes_sbox_netlist", "present_sbox_netlist",
    "sbox_with_key_netlist",
]
