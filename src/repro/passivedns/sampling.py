"""Uniform domain sampling (§4.2).

The paper cannot process 146 B NXDomains even on BigQuery, so it takes
a 1/1,000 uniform random sample of *domains* (not rows) and analyzes
those.  Sampling by domain preserves per-domain statistics (lifespan,
query rate) exactly for sampled domains, while scaling population-level
counts by the sampling ratio — which is why the paper can report both.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.dns.name import DomainName
from repro.errors import ConfigError


def sample_domains(
    domains: Sequence[DomainName],
    ratio: float,
    rng: np.random.Generator,
    at_least_one: bool = True,
) -> List[DomainName]:
    """A uniform random sample of ``ratio`` of the domain population.

    ``at_least_one`` guards small test populations against empty
    samples; real runs with millions of domains are unaffected.
    """
    if not 0.0 < ratio <= 1.0:
        raise ConfigError("ratio must lie in (0, 1]")
    population = len(domains)
    if population == 0:
        return []
    size = int(round(population * ratio))
    if size == 0 and at_least_one:
        size = 1
    indices = rng.choice(population, size=size, replace=False)
    return [domains[int(i)] for i in np.sort(indices)]
