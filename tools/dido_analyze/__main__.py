"""CLI: python3 tools/dido_analyze <repo-root> [--pass ...] [--backend ...]

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import sys
from pathlib import Path

from . import (callgraph, clang_backend, epoch_pass, fault_pass, hot_pass,
               lock_pass, memorder_pass, ownership_pass, response_pass,
               source)

ALL_PASSES = ("epoch", "fault", "lock", "hot", "own", "resp", "memorder")

# Passes that share the call-graph model (built once per run).
CALLGRAPH_PASSES = ("hot", "own", "resp")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="dido_analyze",
        description="DIDO concurrency-contract static analysis "
        "(epoch-pin, fault-point, lock-annotation, hot-path purity, "
        "allocation-ownership, response-completeness, and memory-order "
        "passes).",
    )
    parser.add_argument("root", help="repo root (or a fixture directory)")
    parser.add_argument(
        "--pass",
        dest="passes",
        action="append",
        choices=list(ALL_PASSES) + ["all"],
        help="pass to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--backend",
        choices=["text", "clang", "libclang", "clang-json", "auto"],
        default="text",
        help="AST backend for the lock pass and the call-graph passes. "
        "'auto' picks libclang, then `clang -Xclang -ast-dump=json`, then "
        "text, depending on what is installed and whether a "
        "compile_commands.json is found; 'clang' is the pre-ISSUE-7 "
        "spelling of 'auto'.  Explicit AST choices degrade to text with "
        "a notice when their prerequisites are missing — the exit status "
        "never depends on clang being healthy.",
    )
    parser.add_argument(
        "--compile-commands",
        default=None,
        help="compile_commands.json for the AST backends (default: "
        "$DIDO_COMPILE_COMMANDS, then build*/compile_commands.json "
        "under the root)",
    )
    parser.add_argument(
        "--catalog",
        default=None,
        help="fault-point catalog header "
        "(default: <root>/src/faults/fault_points.h)",
    )
    parser.add_argument(
        "--chaos-test",
        default=None,
        help="chaos test that must reference every fault point "
        "(default: <root>/tests/chaos_test.cc)",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path(args.root)
    if not root.is_dir():
        print(f"dido_analyze: '{root}' is not a directory", file=sys.stderr)
        return 2
    passes = set(args.passes or ["all"])
    if "all" in passes:
        passes = set(ALL_PASSES)

    files = list(source.discover(root))
    if not files:
        print(f"dido_analyze: no .h/.cc files under '{root}'", file=sys.stderr)
        return 2

    backend, ccdb = clang_backend.resolve_backend(
        args.backend, root, args.compile_commands)

    findings = []
    if "epoch" in passes:
        findings += epoch_pass.run(files)
    if "fault" in passes:
        catalog_path = Path(args.catalog) if args.catalog else root / "src/faults/fault_points.h"
        chaos_path = Path(args.chaos_test) if args.chaos_test else root / "tests/chaos_test.cc"
        catalog = None
        if catalog_path.is_file():
            try:
                rel = catalog_path.relative_to(root)
            except ValueError:
                rel = catalog_path
            catalog = source.SourceFile(catalog_path, rel)
            # The catalog itself holds no macro sites; exclude it from the
            # site scan so its literals are not double-counted.
            files_for_sites = [f for f in files if f.path != catalog_path]
        else:
            files_for_sites = files
        chaos_text = chaos_path.read_text(encoding="utf-8") if chaos_path.is_file() else None
        findings += fault_pass.run(
            files_for_sites, catalog, chaos_text, str(chaos_path)
        )
    if "lock" in passes:
        if backend in ("libclang",) and clang_backend.available():
            findings += clang_backend.run_lock_pass(files)
        else:
            findings += lock_pass.run(files)

    model = None
    model_backend = "text"
    if passes & set(CALLGRAPH_PASSES):
        model, model_backend = callgraph.build_model(files, backend, ccdb)
    if "hot" in passes:
        findings += hot_pass.run(files, model)
    if "own" in passes:
        findings += ownership_pass.run(files, model)
    if "resp" in passes:
        findings += response_pass.run(files, model)
    if "memorder" in passes:
        findings += memorder_pass.run(files)

    findings.sort(key=lambda f: (f.rel, f.line))
    for finding in findings:
        print(finding)
    if findings:
        print(
            f"\ndido_analyze: {len(findings)} finding(s).  Each one is a "
            "broken concurrency contract (or a missing annotation/allow "
            "comment) — see tools/dido_analyze/__init__.py for the rules."
        )
        return 1
    ran = ", ".join(sorted(passes))
    suffix = ""
    if passes & set(CALLGRAPH_PASSES):
        suffix = f", call-graph backend: {model_backend}"
    print(f"dido_analyze: clean ({ran} pass(es), {len(files)} files"
          f"{suffix})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
