#!/usr/bin/env python3
"""Fixture test for tools/dido_analyze.

Runs the analyzer over tests/analyzer_fixtures/bad and asserts every
seeded violation is caught (and nothing extra), then over .../clean and
asserts silence.  This is the regression net for the analyzer itself:
a refactor that silently blinds a pass fails here, not in review.

Usage: run_fixture_test.py <repo-root>
Exit:  0 all assertions hold, 1 otherwise.
"""

import subprocess
import sys
from pathlib import Path


def run_analyzer(repo_root, fixture_dir):
    cmd = [
        sys.executable,
        "-m",
        "tools.dido_analyze",
        str(fixture_dir),
        "--catalog",
        str(fixture_dir / "fault_points.h"),
        "--chaos-test",
        str(fixture_dir / "chaos_ref.cc"),
    ]
    proc = subprocess.run(
        cmd, cwd=repo_root, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout + proc.stderr


# (substring that must appear in a finding line, expected pass tag)
EXPECTED_BAD = [
    ("epoch_unpinned.cc:6", "[epoch]"),
    ("lock_unannotated.h:22", "[lock]"),
    ("idx.orphan.point", "[fault]"),          # site missing from catalog
    ("already instrumented", "[fault]"),      # duplicate fix.good.point site
    ("mem.stale.entry", "[fault]"),           # catalog entry with no site
    ("fix.unrehearsed.point", "[fault]"),     # cataloged but not rehearsed
    ("hot_impure.cc:6", "[hot]"),             # transitive blocking wait
    ("hot_impure.cc:13", "[hot]"),            # mutex acquisition in the root
    ("hot_impure.cc:14", "[hot]"),            # heap allocation in the root
    ("hot_impure.cc:15", "[hot]"),            # the same through a pointer
    ("hot_impure.cc:22", "[hot]"),            # inside a function template
    ("hot_shared.cc:8", "[hot]"),             # per-op shared atomic counter
    ("hot_member_call.cc:24", "[hot]"),       # lock behind a typed member call
    ("hot_param_call.cc:21", "[hot]"),        # lock behind a typed param call
    ("own_leak.cc:11", "[own]"),              # early return before any sink
    ("own_leak.cc:18", "[own]"),              # discarded owned result
    ("dur_log_leak.cc:12", "[own]"),          # leaked oplog record
    ("resp_dropped.cc:12", "[resp]"),         # error-guarded silent continue
    ("dur_recovery_drop.cc:14", "[resp]"),    # unaccounted recovery exit
    ("memorder_bare.cc:9", "[memorder]"),     # unjustified relaxed downgrade
]
EXPECTED_BAD_COUNT = 20


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    repo_root = Path(sys.argv[1]).resolve()
    fixtures = repo_root / "tests" / "analyzer_fixtures"
    failed = False

    code, out = run_analyzer(repo_root, fixtures / "bad")
    if code != 1:
        print(f"FAIL: bad fixtures: expected exit 1, got {code}\n{out}")
        failed = True
    finding_lines = [l for l in out.splitlines() if "] " in l and ": [" in l]
    for needle, pass_tag in EXPECTED_BAD:
        if not any(needle in l and pass_tag in l for l in finding_lines):
            print(f"FAIL: bad fixtures: no {pass_tag} finding matching "
                  f"'{needle}' in:\n{out}")
            failed = True
    if len(finding_lines) != EXPECTED_BAD_COUNT:
        print(f"FAIL: bad fixtures: expected exactly {EXPECTED_BAD_COUNT} "
              f"findings, got {len(finding_lines)}:\n{out}")
        failed = True

    code, out = run_analyzer(repo_root, fixtures / "clean")
    if code != 0:
        print(f"FAIL: clean fixtures: expected exit 0, got {code}\n{out}")
        failed = True

    if failed:
        return 1
    print(f"analyzer fixtures OK: {EXPECTED_BAD_COUNT} seeded violations "
          "caught, clean twins silent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
