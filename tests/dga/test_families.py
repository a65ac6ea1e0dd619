"""Tests shared across all DGA family generators, plus family specifics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dga.base import DgaFamily, Lcg
from repro.dga.families import ALL_FAMILIES
from repro.dga.families.banjori import Banjori
from repro.dga.families.matsnu import Matsnu
from repro.dga.families.necurs import Necurs
from repro.dga.families.ramnit import Ramnit
from repro.dga.families.suppobox import Suppobox
from repro.dga.wordlists import NOUNS, VERBS
from repro.dns.name import DomainName


@pytest.mark.parametrize("family_cls", ALL_FAMILIES, ids=lambda c: c.name)
class TestEveryFamily:
    def test_deterministic_per_day(self, family_cls):
        a = family_cls(seed=5).domains_for_day(3)
        b = family_cls(seed=5).domains_for_day(3)
        assert [s.domain for s in a] == [s.domain for s in b]

    def test_seed_changes_output(self, family_cls):
        a = {s.domain for s in family_cls(seed=1).domains_for_day(3)}
        b = {s.domain for s in family_cls(seed=2).domains_for_day(3)}
        assert a != b

    def test_domains_are_valid_and_in_family_tlds(self, family_cls):
        family = family_cls(seed=9)
        for sample in family.domains_for_day(0):
            assert isinstance(sample.domain, DomainName)
            assert sample.domain.tld in family.tlds
            assert sample.family == family.name
            assert 1 <= len(sample.domain.sld) <= 63

    def test_requested_count_honoured(self, family_cls):
        assert len(family_cls(seed=1).domains_for_day(0, count=7)) == 7

    def test_default_count_is_domains_per_day(self, family_cls):
        family = family_cls(seed=1)
        assert len(family.domains_for_day(0)) == family.domains_per_day

    def test_negative_day_rejected(self, family_cls):
        with pytest.raises(ValueError):
            family_cls(seed=1).domains_for_day(-1)

    def test_stream_covers_range(self, family_cls):
        family = family_cls(seed=1)
        samples = list(family.stream(2, 4))
        assert {s.day_index for s in samples} == {2, 3}
        assert len(samples) == 2 * family.domains_per_day


class TestRegistryLookup:

    def test_thirteen_families(self):
        assert len(ALL_FAMILIES) == 13
        assert len({cls.name for cls in ALL_FAMILIES}) == 13


class TestFamilyFingerprints:
    def test_banjori_shares_constant_tail(self):
        samples = Banjori(seed=3).domains_for_day(0)
        tails = {s.domain.sld[4:] for s in samples}
        assert len(tails) == 1  # only the first 4 chars mutate

    def test_banjori_days_are_contiguous_walk(self):
        day0 = Banjori(seed=3).domains_for_day(0)
        day1 = Banjori(seed=3).domains_for_day(1)
        assert day0[-1].domain != day1[0].domain

    def test_suppobox_labels_are_two_words(self):
        for sample in Suppobox(seed=2).domains_for_day(1, count=20):
            label = sample.domain.sld
            assert any(
                label.startswith(v) and label[len(v):] in NOUNS for v in VERBS
            ), label

    def test_matsnu_minimum_length(self):
        for sample in Matsnu(seed=2).domains_for_day(5, count=10):
            assert len(sample.domain.sld) >= Matsnu.MIN_LENGTH

    def test_necurs_four_day_epoch(self):
        family = Necurs(seed=4)
        assert [s.domain for s in family.domains_for_day(0)] == [
            s.domain for s in family.domains_for_day(3)
        ]
        assert [s.domain for s in family.domains_for_day(0)] != [
            s.domain for s in family.domains_for_day(4)
        ]

    def test_ramnit_repolls_same_list_daily(self):
        family = Ramnit(seed=8)
        assert [s.domain for s in family.domains_for_day(10)] == [
            s.domain for s in family.domains_for_day(11)
        ]


def _map_to_lowercase_letter(value: int) -> str:
    return chr(ord("a") + value % 26)


def _reference_next_label(label: str, seed: int, step: int) -> str:
    chars = list(label)
    checksum = (sum(ord(c) for c in label) + seed + step) & 0xFFFF
    chars[0] = _map_to_lowercase_letter(checksum)
    chars[1] = _map_to_lowercase_letter(checksum >> 3)
    chars[2] = _map_to_lowercase_letter(checksum >> 5)
    chars[3] = _map_to_lowercase_letter(checksum >> 7)
    return "".join(chars)


def reference_banjori_labels(seed: int, day_index: int, count: int):
    """Banjori by full string replay of the mutation chain."""
    label = Banjori.seed_label
    first = day_index * Banjori.domains_per_day
    labels = []
    for step in range(first + count):
        label = _reference_next_label(label, seed, step)
        if step >= first:
            labels.append(label)
    return labels


class TestBanjoriChain:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=-(2**20), max_value=2**20),
        day_index=st.integers(min_value=0, max_value=3000),
        count=st.integers(min_value=1, max_value=40),
    )
    def test_matches_string_replay(self, seed, day_index, count):
        assert Banjori(seed=seed).generate_labels(
            day_index, count
        ) == reference_banjori_labels(seed, day_index, count)

    @pytest.mark.parametrize(
        "day_index, expected",
        [
            (0, ["xmjvestnessbiophysicalohax", "dqkwestnessbiophysicalohax",
                 "qpkwestnessbiophysicalohax"]),
            (1, ["ovlwestnessbiophysicalohax", "uwmwestnessbiophysicalohax",
                 "dxmwestnessbiophysicalohax"]),
            (2900, ["pyzzestnessbiophysicalohax", "zjcaestnessbiophysicalohax",
                    "zdaaestnessbiophysicalohax"]),
        ],
    )
    def test_golden_labels_seed_3(self, day_index, expected):
        assert Banjori(seed=3).generate_labels(day_index, 3) == expected


class TestLcg:
    def test_determinism(self):
        a, b = Lcg(42), Lcg(42)
        assert [a.next() for _ in range(5)] == [b.next() for _ in range(5)]

    def test_range_bounds(self):
        lcg = Lcg(7)
        values = [lcg.next_in_range(3, 9) for _ in range(200)]
        assert min(values) >= 3 and max(values) <= 9

    def test_range_validation(self):
        with pytest.raises(ValueError):
            Lcg(1).next_in_range(5, 3)

    def test_pick(self):
        lcg = Lcg(1)
        assert all(lcg.pick("xyz") in "xyz" for _ in range(20))
