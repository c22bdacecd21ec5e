"""Stable diagnostic codes for the static analyzer.

Every finding the analyzer can report has a catalogued ``SA...`` code
with a fixed severity, so tests, goldens and downstream tools can match
on the code while the human-readable message stays free to improve.
The catalogue is mirrored in ``docs/ANALYSIS.md`` and pinned by a docs
test — adding a code here without documenting it fails CI.

Severities:

* ``error`` — the construct cannot be maintained correctly; DDL-time
  surfaces (the sharded engine, the compiler) refuse it.
* ``warning`` — legal but hazardous: forfeits escrow concurrency,
  admits deadlocks, or forces scatter-gather reads.
* ``info`` — worth knowing, never blocking.
"""

#: code -> (severity, one-line title). Codes are append-only; never
#: renumber.
CATALOG = {
    "SA001": (
        "warning",
        "aggregate column is not escrow-eligible; its view rows are "
        "maintained under exclusive locks",
    ),
    "SA002": (
        "error",
        "SUM argument has no linear normal form, so its deltas cannot "
        "commute",
    ),
    "SA003": (
        "info",
        "hand-written predicate is opaque to static analysis; footprint "
        "assumes every row is relevant",
    ),
    "SA010": (
        "warning",
        "deadlock-prone lock-order cycle across registered views",
    ),
    "SA011": (
        "info",
        "statement fans out to multiple maintenance indexes",
    ),
    "SA020": (
        "warning",
        "view is not co-partitioned with its base table; sharded reads "
        "must scatter-gather",
    ),
    "SA021": (
        "error",
        "join view cannot be co-partitioned across shards",
    ),
}

_SEVERITY_ORDER = {"error": 0, "warning": 1, "info": 2}


class Diagnostic:
    """One analyzer finding: a catalogued code applied to a subject.

    ``subject`` names what the finding is about (a view, a statement
    label, a column); ``message`` is the specific human-readable
    reason; ``evidence`` carries supporting detail (proof axioms, the
    cycle's edges, the partition columns compared).
    """

    __slots__ = ("code", "severity", "subject", "message", "evidence")

    def __init__(self, code, subject, message, evidence=()):
        if code not in CATALOG:
            raise ValueError(f"unknown diagnostic code {code!r}")
        self.code = code
        self.severity = CATALOG[code][0]
        self.subject = subject
        self.message = message
        self.evidence = tuple(evidence)

    def sort_key(self):
        return (_SEVERITY_ORDER[self.severity], self.code, self.subject)

    def render(self):
        return f"{self.code} [{self.severity}] {self.subject}: {self.message}"

    def __repr__(self):
        return f"Diagnostic({self.code}, {self.subject!r})"

    def to_doc(self):
        """A plain-dict form for reports and golden files."""
        return {
            "code": self.code,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
            "evidence": list(self.evidence),
        }


def trace_static_check(tracer, subject, kind, diagnostics):
    """Emit the ``static_check`` event of one analyzer run: what was
    checked and how many diagnostics of each severity came back."""
    if not tracer.enabled:
        return
    counts = {"error": 0, "warning": 0, "info": 0}
    for diagnostic in diagnostics:
        counts[diagnostic.severity] += 1
    tracer.emit(
        "static_check", subject=subject, kind=kind,
        errors=counts["error"], warnings=counts["warning"],
        notes=counts["info"],
    )
