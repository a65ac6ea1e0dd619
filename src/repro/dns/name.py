"""Domain name model and validation (RFC 1034 §3.5, RFC 1123 §2.1).

:class:`DomainName` is the canonical name type used across the library:
the passive DNS store keys on it, the WHOIS registry registers it, and
the squatting/DGA analyzers consume it.  Names are stored lowercase
(DNS is case-insensitive for comparison) as tuples of labels, root
being the empty tuple.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterator, Tuple

from repro.errors import DomainNameError

MAX_LABEL_LENGTH = 63
#: RFC 1035 limits the wire encoding to 255 octets, which bounds the
#: presentation form (without trailing dot) at 253 characters.
MAX_NAME_LENGTH = 253

# LDH (letters, digits, hyphen) labels; hyphen not leading/trailing.
# Underscore is additionally tolerated as first character because
# service labels (_dmarc, _acme-challenge) appear in real query data.
_LABEL_RE = re.compile(r"^(?:[a-z0-9_]|[a-z0-9_][a-z0-9-]*[a-z0-9])$")


@total_ordering
class DomainName:
    """An absolute DNS domain name.

    >>> name = DomainName("www.Example.COM")
    >>> name.labels
    ('www', 'example', 'com')
    >>> name.tld
    'com'
    >>> name.registered_domain()
    DomainName('example.com')
    """

    __slots__ = ("_labels",)

    def __init__(self, text: object) -> None:
        if isinstance(text, DomainName):
            self._labels: Tuple[str, ...] = text._labels
            return
        if not isinstance(text, str):
            raise DomainNameError(f"domain name must be str, got {type(text)!r}")
        self._labels = _parse(text)

    @classmethod
    def from_labels(cls, labels: Tuple[str, ...]) -> "DomainName":
        """Build a name from a label tuple, lowercasing and validating it."""
        name = cls.__new__(cls)
        name._labels = tuple(label.lower() for label in labels)
        _validate(name._labels)
        return name

    @classmethod
    def _from_valid(cls, labels: Tuple[str, ...]) -> "DomainName":
        """Wrap labels sliced from a name that already passed validation.

        A suffix of valid lowercase labels is itself valid and
        lowercase, so this skips :meth:`from_labels`' checks.
        """
        name = cls.__new__(cls)
        name._labels = labels
        return name

    @classmethod
    def root(cls) -> "DomainName":
        """The DNS root (empty name)."""
        name = cls.__new__(cls)
        name._labels = ()
        return name

    # -- structure ----------------------------------------------------

    @property
    def labels(self) -> Tuple[str, ...]:
        """Labels from leftmost (host) to rightmost (TLD)."""
        return self._labels

    @property
    def is_root(self) -> bool:
        return not self._labels

    @property
    def tld(self) -> str:
        """Rightmost label, or ``""`` for the root."""
        return self._labels[-1] if self._labels else ""

    @property
    def sld(self) -> str:
        """Second-level label, or ``""`` if the name has fewer than 2 labels."""
        return self._labels[-2] if len(self._labels) >= 2 else ""

    def registered_domain(self) -> "DomainName":
        """The registrable domain: ``<sld>.<tld>``.

        The paper's analyses operate on registered domains under TLDs
        and intentionally exclude deeper subdomains (§4.3); this is the
        projection they use.
        """
        if len(self._labels) < 2:
            return self
        return DomainName._from_valid(self._labels[-2:])

    def parent(self) -> "DomainName":
        """The name with its leftmost label removed (root's parent is root)."""
        if not self._labels:
            return self
        return DomainName._from_valid(self._labels[1:])

    def child(self, label: str) -> "DomainName":
        """Prepend ``label``, producing a subdomain of this name."""
        return DomainName.from_labels((label.lower(),) + self._labels)

    def is_subdomain_of(self, other: "DomainName") -> bool:
        """True when ``self`` is equal to or underneath ``other``."""
        if len(other._labels) > len(self._labels):
            return False
        if not other._labels:
            return True
        return self._labels[-len(other._labels) :] == other._labels

    def ancestors(self) -> Iterator["DomainName"]:
        """Yield parent, grandparent, ... down to (and including) the root."""
        current = self
        while not current.is_root:
            current = current.parent()
            yield current

    @property
    def depth(self) -> int:
        """Number of labels (root has depth 0)."""
        return len(self._labels)

    def is_reverse_lookup(self) -> bool:
        """True for names under in-addr.arpa / ip6.arpa.

        Jung et al. found most NXDomain responses come from reverse IP
        lookups; the paper excludes them (§2), and the passive DNS
        pipeline uses this predicate to do the same.
        """
        return (
            self._labels[-2:] == ("in-addr", "arpa")
            or self._labels[-2:] == ("ip6", "arpa")
        )

    def is_idn(self) -> bool:
        """True when any label is punycode (``xn--`` prefixed)."""
        return any(label.startswith("xn--") for label in self._labels)

    # -- dunder plumbing ----------------------------------------------

    def __str__(self) -> str:
        return ".".join(self._labels) if self._labels else "."

    def __repr__(self) -> str:
        return f"DomainName({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DomainName):
            return self._labels == other._labels
        return NotImplemented

    def __lt__(self, other: "DomainName") -> bool:
        if not isinstance(other, DomainName):
            return NotImplemented
        # Canonical DNS ordering compares names right-to-left by label.
        return tuple(reversed(self._labels)) < tuple(reversed(other._labels))

    def __hash__(self) -> int:
        return hash(self._labels)

    def __len__(self) -> int:
        return len(str(self)) if self._labels else 0


def _parse(text: str) -> Tuple[str, ...]:
    stripped = text.strip()
    if stripped in (".", ""):
        if stripped == ".":
            return ()
        raise DomainNameError("empty string is not a domain name (use '.')")
    if stripped.endswith("."):
        stripped = stripped[:-1]
    labels = tuple(label.lower() for label in stripped.split("."))
    _validate(labels)
    return labels


def _validate(labels: Tuple[str, ...]) -> None:
    total = sum(len(label) for label in labels) + max(len(labels) - 1, 0)
    if total > MAX_NAME_LENGTH:
        raise DomainNameError(
            f"name exceeds {MAX_NAME_LENGTH} characters: {total}"
        )
    for label in labels:
        if not label:
            raise DomainNameError("empty label (consecutive dots)")
        if len(label) > MAX_LABEL_LENGTH:
            raise DomainNameError(
                f"label exceeds {MAX_LABEL_LENGTH} characters: {label!r}"
            )
        if not _LABEL_RE.match(label):
            raise DomainNameError(f"label contains invalid characters: {label!r}")


def reverse_name_for_ipv4(address: str) -> DomainName:
    """The in-addr.arpa name for a dotted-quad IPv4 address.

    >>> str(reverse_name_for_ipv4("93.184.216.34"))
    '34.216.184.93.in-addr.arpa'
    """
    octets = address.split(".")
    if len(octets) != 4 or not all(o.isdigit() and 0 <= int(o) <= 255 for o in octets):
        raise DomainNameError(f"not an IPv4 address: {address!r}")
    return DomainName(".".join(reversed(octets)) + ".in-addr.arpa")
