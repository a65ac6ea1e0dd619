"""Domain squatting: generators and detectors for five attack types.

The paper's Figure 7 splits 90,604 squatting NXDomains into
typosquatting (45,175), combosquatting (38,900), dotsquatting (6,090),
bitsquatting (313), and homosquatting (126).  This package implements
both directions for each type:

- *generators* produce squatting candidates for a target domain, used
  by the workload layer to seed the malicious NXDomain population with
  realistic proportions (typo >> combo >> dot >> bit >> homo, because
  the underlying mutation spaces have exactly that size ordering);
- the *detector* classifies an arbitrary domain against a target list,
  standing in for the commercial identification algorithm in §5.2.
"""

from repro.squatting.bit import bitsquat_variants, is_bitsquat
from repro.squatting.combo import combosquat_variants, is_combosquat
from repro.squatting.detector import SquattingDetector, SquattingType
from repro.squatting.dot import dotsquat_variants, is_dotsquat
from repro.squatting.homo import homosquat_variants, is_homosquat
from repro.squatting.targets import PopularDomains
from repro.squatting.typo import typosquat_variants

__all__ = [
    "PopularDomains",
    "SquattingDetector",
    "SquattingType",
    "bitsquat_variants",
    "combosquat_variants",
    "dotsquat_variants",
    "homosquat_variants",
    "is_bitsquat",
    "is_combosquat",
    "is_dotsquat",
    "is_homosquat",
    "typosquat_variants",
]
