"""Trace generation is a pure function of (seed, config).

Each population record's emission RNG is keyed by its *global* index
(``record-{index}``), not by any scheduling unit, so two independent
generators with the same seed and config must produce byte-identical
stores and the same population in the same order.  This is the
contract a sharded generator would have to keep.
"""

import pytest

from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig

SMALL = TraceConfig(total_domains=400, squat_count=16)


def _generate(seed):
    return NxdomainTraceGenerator(seed=seed, config=SMALL).generate()


class TestSerialParallelIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_fingerprints_identical(self, seed):
        first = _generate(seed)
        second = _generate(seed)
        assert first.nx_db.fingerprint() == second.nx_db.fingerprint()
        assert (
            first.pre_expiry_db.fingerprint()
            == second.pre_expiry_db.fingerprint()
        )

    def test_population_order_identical(self):
        first = _generate(3)
        second = _generate(3)
        assert [r.domain for r in first.population] == [
            r.domain for r in second.population
        ]
        assert [r.kind for r in first.population] == [
            r.kind for r in second.population
        ]
