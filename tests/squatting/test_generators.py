"""Tests for the five squatting generators and their predicates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.name import DomainName
from repro.squatting.bit import bitsquat_variants, is_bitsquat
from repro.squatting.combo import COMBO_KEYWORDS, combosquat_variants, is_combosquat
from repro.squatting.dot import dotsquat_variants, is_dotsquat
from repro.squatting.homo import homosquat_variants, is_homosquat
from repro.squatting.typo import typosquat_variants
from tests.squatting.reference import is_typosquat

GOOGLE = DomainName("google.com")
PAYPAL = DomainName("paypal.com")
MAILRU = DomainName("mail.ru")

brands = st.sampled_from([GOOGLE, PAYPAL, MAILRU, DomainName("facebook.com")])


class TestTypo:
    def test_known_variants(self):
        variants = {str(v) for v in typosquat_variants(GOOGLE)}
        assert "gogle.com" in variants        # omission
        assert "googel.com" in variants       # transposition
        assert "gooogle.com" in variants      # duplication
        assert "googke.com" in variants       # adjacent substitution
        assert "googlre.com" in variants      # adjacent insertion

    def test_predicate_positive(self):
        assert is_typosquat(DomainName("gogle.com"), GOOGLE)
        assert is_typosquat(DomainName("www.gogle.com"), GOOGLE)

    def test_predicate_negative(self):
        assert not is_typosquat(GOOGLE, GOOGLE)
        assert not is_typosquat(DomainName("gogle.net"), GOOGLE)  # TLD differs
        assert not is_typosquat(DomainName("ggle.net"), GOOGLE)
        assert not is_typosquat(DomainName("entirely-other.com"), GOOGLE)

    @given(brands)
    def test_generated_variants_satisfy_predicate(self, target):
        for variant in typosquat_variants(target)[:50]:
            assert is_typosquat(variant, target), variant

    @given(brands)
    def test_target_never_its_own_variant(self, target):
        assert target not in typosquat_variants(target)


class TestCombo:
    def test_known_variants(self):
        variants = {str(v) for v in combosquat_variants(PAYPAL)}
        assert "paypal-login.com" in variants
        assert "login-paypal.com" in variants
        assert "paypallogin.com" in variants
        assert "securepaypal.com" in variants

    def test_predicate_positive(self):
        assert is_combosquat(DomainName("paypal-login.com"), PAYPAL)
        assert is_combosquat(DomainName("paypal-login.net"), PAYPAL)  # TLD moved
        assert is_combosquat(DomainName("verifypaypal.com"), PAYPAL)
        assert is_combosquat(DomainName("paypal-2024-bonus.com"), PAYPAL)

    def test_predicate_negative(self):
        assert not is_combosquat(PAYPAL, PAYPAL)
        assert not is_combosquat(DomainName("paypalooza.com"), PAYPAL)
        assert not is_combosquat(DomainName("mypal.com"), PAYPAL)

    @given(brands)
    def test_generated_variants_satisfy_predicate(self, target):
        for variant in combosquat_variants(target)[:60]:
            assert is_combosquat(variant, target), variant

    def test_keyword_list_is_lowercase_ldh(self):
        for keyword in COMBO_KEYWORDS:
            assert keyword == keyword.lower()
            DomainName(f"{keyword}.com")  # must be a valid label


class TestDot:
    def test_known_variants(self):
        variants = {str(v) for v in dotsquat_variants(GOOGLE)}
        assert "wwwgoogle.com" in variants
        assert "oogle.com" in variants  # split g|oogle
        assert "e.com" in variants      # split googl|e

    def test_predicate_fused_www(self):
        assert is_dotsquat(DomainName("wwwgoogle.com"), GOOGLE)

    def test_predicate_inserted_dot(self):
        assert is_dotsquat(DomainName("goo.gle.com"), GOOGLE)
        assert is_dotsquat(DomainName("g.oogle.com"), GOOGLE)

    def test_predicate_negative(self):
        assert not is_dotsquat(GOOGLE, GOOGLE)
        assert not is_dotsquat(DomainName("www.google.com"), GOOGLE)
        assert not is_dotsquat(DomainName("goo.gle.net"), GOOGLE)
        assert not is_dotsquat(DomainName("xyz.abc.com"), GOOGLE)

    def test_variants_exclude_target(self):
        assert GOOGLE not in dotsquat_variants(GOOGLE)


class TestBit:
    def test_variants_are_one_bit_away(self):
        for variant in bitsquat_variants(GOOGLE):
            assert is_bitsquat(variant, GOOGLE), variant

    def test_known_flip(self):
        # 'g' (0x67) ^ 0x02 = 'e' (0x65): "eoogle.com"
        assert is_bitsquat(DomainName("eoogle.com"), GOOGLE)

    def test_two_char_difference_rejected(self):
        assert not is_bitsquat(DomainName("eoogli.com"), GOOGLE)

    def test_length_change_rejected(self):
        assert not is_bitsquat(DomainName("googl.com"), GOOGLE)

    def test_non_single_bit_rejected(self):
        # 'g'(0x67) vs 'a'(0x61) differ in two bits.
        assert not is_bitsquat(DomainName("aoogle.com"), GOOGLE)

    def test_space_is_small(self):
        assert len(bitsquat_variants(GOOGLE)) < 40


class TestHomo:
    def test_digit_letter_swaps(self):
        variants = {str(v) for v in homosquat_variants(GOOGLE)}
        assert "g0ogle.com" in variants
        assert "go0gle.com" in variants

    def test_sequence_confusables(self):
        assert is_homosquat(DomainName("rnail.ru"), MAILRU)
        variants = {str(v) for v in homosquat_variants(DomainName("wechat.com"))}
        assert "vvechat.com" in variants

    def test_predicate_symmetry_for_char_pairs(self):
        # l -> 1 and 1 -> l both classify.
        assert is_homosquat(DomainName("goog1e.com"), GOOGLE)
        assert is_homosquat(DomainName("google.com"), DomainName("goog1e.com"))

    def test_negative(self):
        assert not is_homosquat(GOOGLE, GOOGLE)
        assert not is_homosquat(DomainName("gaagle.com"), GOOGLE)

    @given(brands)
    def test_generated_variants_satisfy_predicate(self, target):
        for variant in homosquat_variants(target):
            assert is_homosquat(variant, target), variant


class TestSpaceOrdering:
    def test_variant_space_sizes(self):
        """Typo/combo spaces dwarf the bit space, which dwarfs dot/homo.

        (Figure 7's observed prevalence ordering additionally depends
        on attacker economics, which the workload layer models; here we
        only pin the raw mutation-space sizes.)
        """
        typo = len(typosquat_variants(GOOGLE))
        combo = len(combosquat_variants(GOOGLE))
        dot = len(dotsquat_variants(GOOGLE))
        bit = len(bitsquat_variants(GOOGLE))
        homo = len(homosquat_variants(GOOGLE))
        assert typo > bit > dot >= homo
        assert combo > bit
