"""qroutesim: qutrit quantum-router / bucket-brigade QRAM simulation toolkit."""

__version__ = "0.1.0"

from .gates import (
    FloquetParams,
    SqrtCzParams,
    cswap_sequence,
    leaky_cswap_matrix,
    qrouter_circuit,
    sp_cswap_sequence,
    sqrt_cz_matrix,
)
from .noise import DecayRates, LeakageSpec, NoiseModel, balance_point, qutrit_channel
from .qudit import QuditRegister, apply_gate, new_basis_state, partial_trace, populations, postselect

__all__ = [
    "__version__",
    "DecayRates",
    "FloquetParams",
    "LeakageSpec",
    "NoiseModel",
    "QuditRegister",
    "SqrtCzParams",
    "apply_gate",
    "balance_point",
    "cswap_sequence",
    "leaky_cswap_matrix",
    "new_basis_state",
    "partial_trace",
    "populations",
    "postselect",
    "qrouter_circuit",
    "qutrit_channel",
    "sp_cswap_sequence",
    "sqrt_cz_matrix",
]
