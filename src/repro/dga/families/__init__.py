"""The twelve DGA family implementations.

Each module models the published generation algorithm of one malware
family closely enough to reproduce its *lexical fingerprint* (alphabet,
length distribution, TLD rotation, dictionary vs random construction),
which is what both the detector and the passive-DNS workload care
about.  Chen et al. (CCS '17), cited by the paper, uncovered 12 DGA
types from NXDomain data — hence twelve families here.
"""

from typing import List, Type

from repro.dga.base import DgaFamily
from repro.dga.families.banjori import Banjori
from repro.dga.families.conficker import Conficker
from repro.dga.families.corebot import Corebot
from repro.dga.families.dircrypt import Dircrypt
from repro.dga.families.kraken import Kraken
from repro.dga.families.locky import Locky
from repro.dga.families.matsnu import Matsnu
from repro.dga.families.murofet import Murofet
from repro.dga.families.necurs import Necurs
from repro.dga.families.qakbot import Qakbot
from repro.dga.families.ramnit import Ramnit
from repro.dga.families.simda import Simda
from repro.dga.families.suppobox import Suppobox

ALL_FAMILIES: List[Type[DgaFamily]] = [
    Banjori,
    Conficker,
    Corebot,
    Dircrypt,
    Kraken,
    Locky,
    Matsnu,
    Murofet,
    Necurs,
    Qakbot,
    Ramnit,
    Simda,
    Suppobox,
]


__all__ = ["ALL_FAMILIES"] + [cls.__name__ for cls in ALL_FAMILIES]
