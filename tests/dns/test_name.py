"""Tests for the domain name model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.name import (
    MAX_LABEL_LENGTH,
    DomainName,
    reverse_name_for_ipv4,
)
from repro.errors import DomainNameError

LABEL_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

labels = st.text(alphabet=LABEL_ALPHABET, min_size=1, max_size=10)
names = st.lists(labels, min_size=1, max_size=5).map(
    lambda parts: DomainName(".".join(parts))
)


class TestParsing:
    def test_basic_parse(self):
        name = DomainName("www.example.com")
        assert name.labels == ("www", "example", "com")

    def test_case_folding(self):
        assert DomainName("WWW.Example.COM") == DomainName("www.example.com")

    def test_trailing_dot_is_absolute_form(self):
        assert DomainName("example.com.") == DomainName("example.com")

    def test_root(self):
        root = DomainName(".")
        assert root.is_root
        assert str(root) == "."
        assert root == DomainName.root()

    def test_copy_constructor(self):
        original = DomainName("a.b.c")
        assert DomainName(original) == original

    def test_empty_string_rejected(self):
        with pytest.raises(DomainNameError):
            DomainName("")

    def test_consecutive_dots_rejected(self):
        with pytest.raises(DomainNameError):
            DomainName("a..b")

    def test_overlong_label_rejected(self):
        with pytest.raises(DomainNameError):
            DomainName("a" * (MAX_LABEL_LENGTH + 1) + ".com")

    def test_longest_valid_label_accepted(self):
        DomainName("a" * MAX_LABEL_LENGTH + ".com")

    def test_overlong_name_rejected(self):
        label = "a" * 60
        with pytest.raises(DomainNameError):
            DomainName(".".join([label] * 5))

    def test_bad_characters_rejected(self):
        for bad in ("exa mple.com", "exam!ple.com", "uniçode.com"):
            with pytest.raises(DomainNameError):
                DomainName(bad)

    def test_hyphen_positions(self):
        DomainName("a-b.com")
        with pytest.raises(DomainNameError):
            DomainName("-ab.com")
        with pytest.raises(DomainNameError):
            DomainName("ab-.com")

    def test_service_label_underscore_allowed(self):
        name = DomainName("_dmarc.example.com")
        assert name.labels[0] == "_dmarc"

    def test_non_string_rejected(self):
        with pytest.raises(DomainNameError):
            DomainName(42)


class TestStructure:
    def test_tld_and_sld(self):
        name = DomainName("www.example.com")
        assert name.tld == "com"
        assert name.sld == "example"

    def test_registered_domain(self):
        assert DomainName("a.b.example.com").registered_domain() == DomainName(
            "example.com"
        )

    def test_registered_domain_of_tld_is_itself(self):
        assert DomainName("com").registered_domain() == DomainName("com")

    def test_parent_chain(self):
        name = DomainName("a.b.c")
        assert name.parent() == DomainName("b.c")
        assert name.parent().parent() == DomainName("c")
        assert name.parent().parent().parent().is_root

    def test_child(self):
        assert DomainName("example.com").child("WWW") == DomainName("www.example.com")

    def test_subdomain_relation(self):
        parent = DomainName("example.com")
        assert DomainName("www.example.com").is_subdomain_of(parent)
        assert parent.is_subdomain_of(parent)
        assert not DomainName("example.org").is_subdomain_of(parent)
        assert not DomainName("badexample.com").is_subdomain_of(parent)
        assert DomainName("anything.at.all").is_subdomain_of(DomainName.root())

    def test_ancestors(self):
        chain = list(DomainName("a.b.c").ancestors())
        assert chain == [DomainName("b.c"), DomainName("c"), DomainName.root()]

    def test_reverse_lookup_detection(self):
        assert DomainName("34.216.184.93.in-addr.arpa").is_reverse_lookup()
        assert DomainName("1.0.ip6.arpa").is_reverse_lookup()
        assert not DomainName("example.com").is_reverse_lookup()

    def test_idn_detection(self):
        assert DomainName("xn--bcher-kva.com").is_idn()
        assert not DomainName("books.com").is_idn()

    def test_ordering_is_right_to_left(self):
        assert DomainName("a.com") < DomainName("a.net")
        assert DomainName("a.com") < DomainName("b.com")


class TestReverseName:
    def test_reverse_name(self):
        assert str(reverse_name_for_ipv4("93.184.216.34")) == (
            "34.216.184.93.in-addr.arpa"
        )

    def test_invalid_address_rejected(self):
        for bad in ("1.2.3", "256.1.1.1", "a.b.c.d"):
            with pytest.raises(DomainNameError):
                reverse_name_for_ipv4(bad)


class TestProperties:
    @given(names)
    def test_roundtrip_through_str(self, name):
        assert DomainName(str(name)) == name

    @given(names)
    def test_hash_consistent_with_eq(self, name):
        assert hash(DomainName(str(name))) == hash(name)

    @given(names)
    def test_registered_domain_is_suffix(self, name):
        assert name.is_subdomain_of(name.registered_domain())

    @given(names, st.sampled_from(["www", "mail", "a1"]))
    def test_child_parent_inverse(self, name, label):
        assert name.child(label).parent() == name

    @given(names)
    def test_depth_matches_labels(self, name):
        assert name.depth == len(name.labels)


class TestDerivedNames:
    """``registered_domain``/``parent`` skip re-validation of label
    suffixes; the public constructors still validate."""

    @given(st.lists(labels, min_size=1, max_size=6))
    def test_registered_domain_matches_parsing_the_suffix(self, parts):
        name = DomainName(".".join(parts))
        expected = DomainName(".".join(parts[-2:]))
        assert name.registered_domain() == expected
        assert name.registered_domain().labels == expected.labels
        assert hash(name.registered_domain()) == hash(expected)

    @given(st.lists(labels, min_size=1, max_size=6))
    def test_parent_matches_parsing_the_suffix(self, parts):
        name = DomainName(".".join(parts))
        parent = name.parent()
        if len(parts) == 1:
            assert parent.is_root
        else:
            assert parent == DomainName(".".join(parts[1:]))

    @pytest.mark.parametrize(
        "bad", [("",), ("bad label", "com"), ("-x", "com"), ("a" * 64, "com")]
    )
    def test_from_labels_still_rejects_bad_labels(self, bad):
        with pytest.raises(DomainNameError):
            DomainName.from_labels(bad)

    def test_from_labels_and_child_still_lowercase(self):
        assert DomainName.from_labels(("WWW", "Example", "COM")) == DomainName(
            "www.example.com"
        )
        assert DomainName("example.com").child("WWW").labels[0] == "www"
        with pytest.raises(DomainNameError):
            DomainName("example.com").child("bad label")
