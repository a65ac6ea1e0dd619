"""Reference squatting predicates the fast paths are checked against."""

from repro.squatting.typo import _variant_labels


def is_typosquat(candidate, target):
    """True when ``candidate`` is one keystroke error from ``target``.

    Compares second-level labels under the same TLD; the registered
    domain of the candidate is used, so subdomains classify too.
    """
    candidate = candidate.registered_domain()
    target = target.registered_domain()
    if candidate.tld != target.tld or candidate == target:
        return False
    return candidate.sld in _variant_labels(target.sld)
