"""Memory-order justification pass (formerly a standalone lint script).

Every `std::memory_order_relaxed` in an audited file must carry a comment
containing the word "relaxed" on the same line or within the preceding
JUSTIFICATION_WINDOW lines — forcing every downgrade from seq_cst/acq_rel
to spell out why it is safe.  The audit set is discovered, not maintained:
any scanned file mentioning `std::atomic` or `memory_order` is audited, so
a new lock-free component cannot dodge the check by not being on a list.

The standalone script's OPT_OUT waiver list is replaced by the analyzer's
shared suppression syntax (`dido-analyze: allow(memorder): <reason>` or a
begin/end-allow region).
"""

import re

from . import source

JUSTIFICATION_WINDOW = 10  # lines of lookback for a justifying comment

# NOTE: `std::atomic|memory_order`, not \b-anchored `memory_order\b` —
# the latter fails to match `memory_order_relaxed` itself.
DISCOVERY_RE = re.compile(r"std::atomic|memory_order")
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
COMMENT_RE = re.compile(r"//(.*)$")


def _line_has_justification(line):
    match = COMMENT_RE.search(line)
    return match is not None and "relaxed" in match.group(1).lower()


def run(files):
    findings = []
    for sf in files:
        if not DISCOVERY_RE.search(sf.text()):
            continue
        for i, line in enumerate(sf.lines):
            if not RELAXED_RE.search(line):
                continue
            if _line_has_justification(line):
                continue
            window = sf.lines[max(0, i - JUSTIFICATION_WINDOW):i]
            if any(_line_has_justification(prev) for prev in window):
                continue
            if sf.allowed("memorder", i + 1):
                continue
            findings.append(source.Finding(
                sf.rel, i + 1, "memorder",
                "memory_order_relaxed without a justifying 'relaxed' "
                f"comment within {JUSTIFICATION_WINDOW} lines: "
                f"{line.strip()}"))
    return findings
