"""Tests for lexical feature extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dga.features import (
    FEATURE_NAMES,
    dictionary_coverage,
    extract_feature_matrix,
    extract_features,
    max_consonant_run,
    mean_bigram_logprob,
    shannon_entropy,
)
from repro.dga.wordlists import ADJECTIVES, BRAND_SUFFIXES, NOUNS, VERBS
from repro.dns.name import DomainName

label_st = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=30)

_REFERENCE_WORDS = sorted(
    set(NOUNS) | set(VERBS) | set(ADJECTIVES) | set(BRAND_SUFFIXES),
    key=len,
    reverse=True,
)


def reference_dictionary_coverage(text: str) -> float:
    """Greedy longest match by trying every word at every position."""
    if not text:
        return 0.0
    covered = 0
    position = 0
    while position < len(text):
        match = next(
            (
                w
                for w in _REFERENCE_WORDS
                if len(w) >= 2 and text.startswith(w, position)
            ),
            None,
        )
        if match is not None:
            covered += len(match)
            position += len(match)
        else:
            position += 1
    return covered / len(text)


_word_st = st.sampled_from(sorted(_REFERENCE_WORDS))
#: Whole words, cut-off word prefixes and short junk runs, so labels
#: hold words, overlaps between words, and words cut off at the end.
_piece_st = st.one_of(
    _word_st,
    _word_st.flatmap(lambda w: st.integers(1, len(w)).map(lambda k: w[:k])),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0-", min_size=1, max_size=3),
)


class TestPrimitives:
    def test_entropy_of_uniform_char(self):
        assert shannon_entropy("aaaa") == 0.0

    def test_entropy_of_two_chars(self):
        assert shannon_entropy("abab") == pytest.approx(1.0)

    def test_entropy_empty(self):
        assert shannon_entropy("") == 0.0

    def test_max_consonant_run(self):
        assert max_consonant_run("strength") == 4  # n-g-t-h
        assert max_consonant_run("aeiou") == 0
        assert max_consonant_run("xkcd") == 4

    def test_bigram_scores_prefer_english(self):
        assert mean_bigram_logprob("housework") > mean_bigram_logprob("xqzkvwpj")

    def test_dictionary_coverage_extremes(self):
        assert dictionary_coverage("workhouse") == 1.0
        assert dictionary_coverage("qzxqzxqzx") == 0.0
        assert dictionary_coverage("") == 0.0

    def test_dictionary_coverage_partial(self):
        coverage = dictionary_coverage("xxhousexx")
        assert 0.0 < coverage < 1.0

    @pytest.mark.parametrize(
        "text", ["meet", "believeline", "", "xxhousexx", "workhouse", "e", "es"]
    )
    def test_dictionary_coverage_matches_reference(self, text):
        # Labels that end part-way into a longer word must not match
        # the truncated slice at the end of the text.
        assert dictionary_coverage(text) == reference_dictionary_coverage(text)

    @settings(max_examples=300)
    @given(st.lists(_piece_st, max_size=8).map("".join))
    def test_dictionary_coverage_equals_greedy_scan(self, text):
        assert dictionary_coverage(text) == reference_dictionary_coverage(text)


class TestExtractFeatures:
    def test_vector_shape_and_names(self):
        vector = extract_features("example.com")
        assert vector.shape == (len(FEATURE_NAMES),)

    def test_accepts_domainname_and_str(self):
        a = extract_features(DomainName("stackoverflow.com"))
        b = extract_features("stackoverflow.com")
        assert np.allclose(a, b)

    def test_uses_sld_not_tld(self):
        a = extract_features("example.com")
        b = extract_features("example.org")
        assert np.allclose(a, b)

    def test_bare_label_accepted(self):
        assert extract_features("example").shape == (len(FEATURE_NAMES),)

    def test_digit_features(self):
        vector = extract_features("4chan4ever.com")
        index = FEATURE_NAMES.index("digit_ratio")
        assert vector[index] == pytest.approx(2 / 10)
        assert vector[FEATURE_NAMES.index("starts_with_digit")] == 1.0

    def test_hyphen_count(self):
        vector = extract_features("my-cool-site.com")
        assert vector[FEATURE_NAMES.index("hyphen_count")] == 2

    def test_matrix_stacks_rows(self):
        matrix = extract_feature_matrix(["a.com", "b.com", "c.com"])
        assert matrix.shape == (3, len(FEATURE_NAMES))

    def test_empty_matrix(self):
        assert extract_feature_matrix([]).shape == (0, len(FEATURE_NAMES))

    @given(label_st)
    def test_features_always_finite(self, label):
        vector = extract_features(label + ".com")
        assert np.isfinite(vector).all()

    @given(label_st)
    def test_ratios_bounded(self, label):
        vector = extract_features(label + ".com")
        for feature in ("digit_ratio", "vowel_ratio", "unique_char_ratio",
                        "word_coverage", "repeat_ratio"):
            value = vector[FEATURE_NAMES.index(feature)]
            assert 0.0 <= value <= 1.0
