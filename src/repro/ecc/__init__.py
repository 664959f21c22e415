"""On-die ECC observation layer (SEC-DED over word reads).

Modern embedded memories correct single-bit errors *inside* the macro, so
the march comparator only ever sees post-correction data -- exactly the
observation gap Patel's on-die-ECC work describes.  This package models
that layer: :mod:`repro.ecc.code` holds the pure-Python extended-Hamming
SEC-DED decoder, :mod:`repro.ecc.observer` the per-session bookkeeping
(corrected cells, masked mismatches, uncorrectable reads), and
:mod:`repro.ecc.vector` the lane-plane vectorized decoder the
numpy/batched engines run once per session.
"""

from repro.ecc.code import EccObservation, SecDedCode, secded_code
from repro.ecc.observer import EccConfig, EccMemorySummary, EccObserver

__all__ = [
    "EccConfig",
    "EccMemorySummary",
    "EccObservation",
    "EccObserver",
    "SecDedCode",
    "secded_code",
]
