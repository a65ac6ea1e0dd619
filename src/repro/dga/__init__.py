"""Domain Generation Algorithms: family generators and an in-line detector.

The paper flags ~2.77 M (3%) of the 91 M expired NXDomains as DGA
domains using Palo Alto Networks' proprietary in-line classifier
(US patent 11,729,134), and cites Plohmann et al.'s finding that only
0.62% of DGA domains are ever registered — the rest show up purely as
NXDomain queries from bots polling for their C&C rendezvous.

This package provides both sides of that pipeline:

- :mod:`repro.dga.families` — twelve generators modelled on published
  malware DGAs (Conficker, Kraken, Banjori, ...), used by the workload
  layer to inject realistic DGA query streams into the passive DNS
  trace;
- :mod:`repro.dga.detector` — a feature-based classifier in the style
  of FANCI (Schüppen et al., USENIX Security '18): hand-rolled
  logistic regression over lexical features, trained on generated
  samples, standing in for the commercial detector.
"""

from repro.dga.base import DgaFamily, DgaSample
from repro.dga.detector import DetectorMetrics, DgaDetector, TrainedModel
from repro.dga.families import ALL_FAMILIES
from repro.dga.features import FEATURE_NAMES, extract_features

__all__ = [  # repro: noqa[REP104] classifier I/O record types; exported for annotations
    "ALL_FAMILIES",
    "DetectorMetrics",
    "DgaDetector",
    "DgaFamily",
    "DgaSample",
    "FEATURE_NAMES",
    "TrainedModel",
    "extract_features",
]
