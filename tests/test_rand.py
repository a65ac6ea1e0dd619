"""Tests for deterministic randomness helpers."""

import numpy as np
import pytest

from repro.rand import SeedSequenceFactory, WeightedTable, derive_seed, make_rng


def weighted_choice(rng, items, weights):
    return WeightedTable.from_weights(items, weights).draw(rng)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = make_rng(7).integers(0, 1_000_000, size=10)
        b = make_rng(7).integers(0, 1_000_000, size=10)
        assert (a == b).all()

    def test_labels_decorrelate(self):
        factory = SeedSequenceFactory(7)
        a = factory.rng("trace").integers(0, 1_000_000, size=10)
        b = factory.rng("honeypot").integers(0, 1_000_000, size=10)
        assert not (a == b).all()

    def test_label_derivation_stable(self):
        assert derive_seed(7, "trace") == derive_seed(7, "trace")
        assert derive_seed(7, "trace") != derive_seed(8, "trace")

    def test_subfactory_reproducible(self):
        one = SeedSequenceFactory(3).subfactory("workload").rng("bots")
        two = SeedSequenceFactory(3).subfactory("workload").rng("bots")
        assert one.integers(0, 100) == two.integers(0, 100)


class TestWeightedHelpers:
    def test_weighted_choice_respects_zero_weight(self):
        rng = make_rng(1)
        picks = {weighted_choice(rng, ["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}

    def test_weighted_choice_validation(self):
        rng = make_rng(1)
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_choice(rng, [], [])
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [0.0])
