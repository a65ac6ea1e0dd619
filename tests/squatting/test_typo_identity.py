"""The squatting fast paths equal the constructions they replaced.

- ``typosquat_variants`` wraps variant labels with
  ``DomainName._from_valid`` after a length and pattern check; the
  reference parses every ``label.tld`` string and skips the ones the
  parser rejects.
- ``SquattingDetector`` builds each target's typo label set once; its
  check must answer ``is_typosquat`` for every (candidate, target).
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dns.name import _LABEL_RE, DomainName
from repro.errors import DomainNameError
from repro.squatting.detector import SquattingDetector
from repro.squatting.typo import _variant_labels, typosquat_variants
from tests.squatting.reference import is_typosquat
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig


def _parsed_variants(target):
    """The parse-and-skip construction."""
    target = target.registered_domain()
    out = []
    for label in sorted(_variant_labels(target.sld)):
        try:
            out.append(DomainName(f"{label}.{target.tld}"))
        except DomainNameError:
            continue
    return out


labels = st.text(alphabet="abcdefgz0123456789-_", min_size=1, max_size=63)
edge_labels = st.builds(
    lambda head, body, tail: head + body + tail,
    st.sampled_from(("", "_", "a", "-")),
    st.text(alphabet="ab-_9", max_size=61),
    st.sampled_from(("", "b", "-", "_")),
)
tlds = st.sampled_from(("com", "ru", "co", "xn--p1ai", "a" * 63))


@settings(max_examples=400, deadline=None)
@given(label=st.one_of(labels, edge_labels), tld=tlds, sub=st.booleans())
def test_typosquat_variants_match_parse_and_skip(label, tld, sub):
    assume(len(label) <= 63 and _LABEL_RE.match(label))
    target = DomainName(f"{label}.{tld}")
    if sub:
        target = target.child("www")
    fast = typosquat_variants(target)
    slow = _parsed_variants(target)
    assert fast == slow
    assert [name.labels for name in fast] == [name.labels for name in slow]


@pytest.mark.parametrize(
    "label",
    ["a" * 63, "_" + "a" * 62, "_ab", "_a-b", "a-b", "a--b", "_", "a", "9-z"],
)
def test_typosquat_variants_edge_labels(label):
    for tld in ("com", "ru"):
        target = DomainName(f"{label}.{tld}")
        assert typosquat_variants(target) == _parsed_variants(target)


def test_single_label_target_has_no_variants():
    assert typosquat_variants(DomainName("com")) == []


@pytest.fixture(scope="module")
def census_candidates():
    config = TraceConfig(total_domains=1_500, squat_count=60)
    trace = NxdomainTraceGenerator(seed=17, config=config).generate()
    return [record.domain for record in trace.expired_domains()]


def test_detector_typo_check_matches_is_typosquat(census_candidates):
    detector = SquattingDetector()
    hits = 0
    for candidate in census_candidates:
        for target in detector.targets:
            expected = is_typosquat(candidate, target)
            assert detector._is_typosquat(candidate, target) == expected
            hits += expected
    assert hits > 0


def test_detector_census_unchanged_by_typo_memo(census_candidates):
    """The whole census, against one built on the stateless predicate."""
    memo = SquattingDetector()
    stateless = SquattingDetector()
    stateless._checks = tuple(
        (kind, is_typosquat if predicate == stateless._is_typosquat else predicate)
        for kind, predicate in stateless._checks
    )
    assert memo.classify_many(census_candidates) == stateless.classify_many(
        census_candidates
    )
