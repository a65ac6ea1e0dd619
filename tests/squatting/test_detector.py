"""Tests for the unified squatting detector."""

import pytest

from repro.dns.name import DomainName
from repro.squatting.detector import SquattingDetector, SquattingType
from repro.squatting.targets import PopularDomains


@pytest.fixture(scope="module")
def detector():
    return SquattingDetector(PopularDomains.default())


class TestTargets:
    def test_default_targets(self):
        targets = PopularDomains.default()
        assert DomainName("google.com") in targets
        assert DomainName("www.google.com") in targets  # registered-domain match
        assert DomainName("not-a-brand.com") not in targets
        assert len(targets) >= 30

    def test_label_lookup(self):
        targets = PopularDomains.default()
        assert targets.by_label("paypal") == DomainName("paypal.com")
        with pytest.raises(KeyError):
            targets.by_label("zzzz")


class TestClassification:
    def test_typo(self, detector):
        match = detector.classify(DomainName("gogle.com"))
        assert match.squat_type == SquattingType.TYPO
        assert match.target == DomainName("google.com")

    def test_combo(self, detector):
        match = detector.classify(DomainName("paypal-login.com"))
        assert match.squat_type == SquattingType.COMBO

    def test_dot(self, detector):
        match = detector.classify(DomainName("wwwgoogle.com"))
        assert match.squat_type == SquattingType.DOT

    def test_homo_takes_precedence(self, detector):
        # goog1e: '1' for 'l' is both a confusable and near-key; homo wins.
        match = detector.classify(DomainName("goog1e.com"))
        assert match.squat_type == SquattingType.HOMO

    def test_bit(self, detector):
        match = detector.classify(DomainName("eoogle.com"))
        assert match.squat_type == SquattingType.BIT

    def test_brand_itself_is_clean(self, detector):
        assert detector.classify(DomainName("google.com")) is None
        assert not detector.is_squatting(DomainName("google.com"))

    def test_unrelated_is_clean(self, detector):
        assert detector.classify(DomainName("weatherreport.org")) is None

    def test_twitter_suport_from_paper(self, detector):
        """The paper's registered domain twitter-sup0rt.com is a combosquat."""
        match = detector.classify(DomainName("twitter-sup0rt.com"))
        assert match is not None
        assert match.squat_type == SquattingType.COMBO
        assert match.target == DomainName("twitter.com")


class TestCensus:
    def test_census_counts(self, detector):
        candidates = [
            DomainName("gogle.com"),
            DomainName("googel.com"),
            DomainName("paypal-login.com"),
            DomainName("wwwgoogle.com"),
            DomainName("clean-site.org"),
        ]
        counts = detector.census(candidates)
        assert counts[SquattingType.TYPO] == 2
        assert counts[SquattingType.COMBO] == 1
        assert counts[SquattingType.DOT] == 1
        assert sum(counts.values()) == 4

    def test_classify_many_skips_clean(self, detector):
        matches = detector.classify_many(
            [DomainName("clean-site.org"), DomainName("gogle.com")]
        )
        assert len(matches) == 1
