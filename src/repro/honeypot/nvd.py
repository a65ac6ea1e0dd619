"""Mini National Vulnerability Database (sensitive-URI oracle).

§6.2 step ③: a requested URI is *sensitive* when the NVD associates
its filename with vulnerabilities of at least medium CVSS severity.
This module ships the lookup table the categorizer needs — filenames
that appear in real probe traffic with representative severities —
plus the suspicious-query-parameter check the paper applies to URIs
carrying query strings.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional, Tuple


class Severity(enum.IntEnum):
    """CVSS v3 qualitative bands (ordered)."""

    NONE = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    CRITICAL = 4


#: filename → worst known CVSS band for vulnerabilities in handlers of
#: that name.  Entries follow the probes the paper highlights
#: (wp-login.php, changepassword.php) plus the standard scanner corpus.
SENSITIVE_FILES: Dict[str, Severity] = {
    "wp-login.php": Severity.HIGH,
    "xmlrpc.php": Severity.HIGH,
    "wp-config.php": Severity.CRITICAL,
    "changepassword.php": Severity.HIGH,
    "changepasswd.php": Severity.HIGH,
    "admin.php": Severity.MEDIUM,
    "login.php": Severity.MEDIUM,
    "config.php": Severity.HIGH,
    "shell.php": Severity.CRITICAL,
    "cmd.php": Severity.CRITICAL,
    "upload.php": Severity.HIGH,
    "setup.php": Severity.MEDIUM,
    "install.php": Severity.MEDIUM,
    "phpinfo.php": Severity.MEDIUM,
    ".env": Severity.CRITICAL,
    "id_rsa": Severity.CRITICAL,
    "web.config": Severity.HIGH,
    "wlwmanifest.xml": Severity.MEDIUM,
    "manager.html": Severity.MEDIUM,   # tomcat manager
    "HNAP1": Severity.HIGH,            # router RCE probes
    "boaform": Severity.HIGH,
}

#: Path *segments* that mark scanner traffic regardless of filename.
SENSITIVE_SEGMENTS: Tuple[str, ...] = (
    "phpmyadmin",
    "cgi-bin",
    "wp-admin",
    "jmx-console",
    "actuator",
    ".git",
)

#: Query parameter names abused for injection/takeover in probe URIs.
SUSPICIOUS_PARAMETERS: Tuple[str, ...] = (
    "cmd",
    "exec",
    "shell",
    "eval",
    "base64",
    "redirect",
    "union",
    "passwd",
    "imei",
)


class VulnerabilityDatabase:
    """Severity lookups over requested URIs.

    :meth:`is_malicious_uri` remembers its verdict per distinct
    (path, query) for the life of this instance; :meth:`add` forgets
    them all, since a new entry can flip any of them.
    """

    def __init__(
        self,
        files: Optional[Dict[str, Severity]] = None,
        segments: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self._files = dict(files) if files is not None else dict(SENSITIVE_FILES)
        self._segments = segments if segments is not None else SENSITIVE_SEGMENTS
        self._verdicts: Dict[Tuple[str, str], bool] = {}

    def severity_of(self, path: str) -> Severity:
        """Worst severity associated with a URI path."""
        filename = path.rsplit("/", 1)[-1]
        severity = self._files.get(filename, Severity.NONE)
        lowered = path.lower()
        for segment in self._segments:
            if segment in lowered:
                severity = max(severity, Severity.MEDIUM)
        return severity

    def is_sensitive(
        self, path: str, minimum: Severity = Severity.MEDIUM
    ) -> bool:
        """§6.2's criterion: severity ≥ medium."""
        return self.severity_of(path) >= minimum

    def is_malicious_uri(self, path: str, query: str) -> bool:
        """§6.2 step ③: a sensitive path or a suspicious query parameter.

        ``query`` is the raw query string without the leading ``?``.
        """
        key = (path, query)
        verdict = self._verdicts.get(key)
        if verdict is None:
            # The parameter names of ``parse_query(query)``, without
            # building the dict.
            verdict = self.is_sensitive(path) or _any_suspicious(
                pair.partition("=")[0] for pair in query.split("&") if pair
            )
            self._verdicts[key] = verdict
        return verdict

    def add(self, filename: str, severity: Severity) -> None:
        """Extend the database (feeds in real deployments update it)."""
        self._files[filename] = severity
        self._verdicts.clear()

    def __len__(self) -> int:
        return len(self._files)


def _any_suspicious(names: Iterable[str]) -> bool:
    return any(name.lower() in SUSPICIOUS_PARAMETERS for name in names)
