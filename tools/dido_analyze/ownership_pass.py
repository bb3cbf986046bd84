"""Allocation-ownership pass: DIDO_TRANSFERS_OWNERSHIP results must not leak.

A call to a DIDO_TRANSFERS_OWNERSHIP function (MemoryManager::AllocateObject,
KvRuntime::AllocateWithEviction, SlabAllocator::Allocate) yields an owned
object.  Within the calling function, on every statement-level control-flow
path after the call, the bound result must reach a *sink* before the
function can exit successfully:

  * publication: an index Insert (or assignment into a record/field) that
    mentions the bound variable,
  * retirement:  RetireObject / RetireDetached / RetireBatch / Free /
    ReleaseDetached mentioning it,
  * hand-off:    `return <v>` from a function that itself carries
                 DIDO_TRANSFERS_OWNERSHIP.

Failure-path returns are exempt: a `return` that mentions the bound
variable's `.status()`, or spells `Status`/`status`, only runs when the
allocation failed (Result propagation) — the callee never transferred
ownership on that path.  This is a statement-order approximation, not full
data-flow: a return textually *after* the first sink is treated as covered.

Violations:
  * a success-capable `return` before any sink that does not mention the
    bound variable or a status  -> potential leak at that return,
  * a call whose result is discarded outright,
  * a bound result with no sink anywhere in the function.

Suppress with `dido-analyze: allow(own): <reason>`.
"""

import re

from . import callgraph, source

_SINK_CALL_RE = re.compile(
    r"\b(?:RetireObject|RetireDetached|RetireBatch|ReleaseDetached"
    r"|Free|Insert)\s*\(")

_STATUS_RETURN_RE = re.compile(r"\breturn\b[^;]*\b[Ss]tatus\b")


def _binding_var(stmt, call_start):
    """Variable a `<type> v = <receiver.>AllocCall(...)` statement binds.

    The receiver chain between `=` and the call (`allocator_.`,
    `memory_->`, `SlabAllocator::`) is skipped; returns None for a
    discarded result.
    """
    before = stmt[:call_start]
    m = re.search(r"([A-Za-z_]\w*)\s*=\s*[\w\s.:>-]*$", before)
    return m.group(1) if m else None


def run(files, model=None):
    if model is None:
        model = callgraph.build_text_model(files)
    sources = {fn.name for fn in model.annotated("DIDO_TRANSFERS_OWNERSHIP")}
    sources |= {name for name, markers in model.decl_markers.items()
                if "DIDO_TRANSFERS_OWNERSHIP" in markers}
    if not sources:
        return []
    src_call_re = re.compile(
        r"(?:\b|->|\.)(" + "|".join(sorted(sources)) + r")\s*\(")

    findings = []
    for fn in model.functions:
        stmts = list(fn.statements())
        handoff = "DIDO_TRANSFERS_OWNERSHIP" in model.markers_of(fn)
        # [(bind_line, var, sink_seen)]
        obligations = []
        for line_no, stmt in stmts:
            m = src_call_re.search(stmt)
            if m is not None and fn.name != m.group(1):
                var = _binding_var(stmt, m.start())
                if var is None and stmt.startswith("return"):
                    # `return Allocate(...)`: ownership flows to our caller.
                    if not handoff and not fn.sf.allowed("own", line_no):
                        findings.append(source.Finding(
                            fn.sf.rel, line_no, "own",
                            f"'{fn.qual}' returns the owned result of "
                            f"'{m.group(1)}' but is not annotated "
                            "DIDO_TRANSFERS_OWNERSHIP"))
                    continue
                if var is None:
                    if not fn.sf.allowed("own", line_no):
                        findings.append(source.Finding(
                            fn.sf.rel, line_no, "own",
                            f"result of '{m.group(1)}' is discarded — the "
                            "allocation leaks on success"))
                    continue
                obligations.append([line_no, var, False])
                continue

            for ob in obligations:
                bind_line, var, sink_seen = ob
                if sink_seen:
                    continue
                mentions = re.search(rf"\b{re.escape(var)}\b", stmt)
                if mentions and (_SINK_CALL_RE.search(stmt)
                                 or re.search(
                                     rf"=\s*[*&]?\s*{re.escape(var)}\b",
                                     stmt)):
                    ob[2] = True
                    continue
                if stmt.startswith("return"):
                    if mentions or _STATUS_RETURN_RE.search(stmt):
                        # Propagates the result (hand-off / failure path).
                        continue
                    if not fn.sf.allowed("own", line_no):
                        findings.append(source.Finding(
                            fn.sf.rel, line_no, "own",
                            f"'{fn.qual}' can return here while the "
                            f"allocation bound to '{var}' (line "
                            f"{bind_line}) has reached no Insert/Retire/"
                            "Free sink — potential slab leak"))
                        ob[2] = True  # one report per obligation

        for bind_line, var, sink_seen in obligations:
            if sink_seen:
                continue
            # No sink anywhere: ok only if some return propagated the var.
            if any(stmt.startswith("return")
                   and re.search(rf"\b{re.escape(var)}\b", stmt)
                   for _, stmt in stmts):
                continue
            if not fn.sf.allowed("own", bind_line):
                findings.append(source.Finding(
                    fn.sf.rel, bind_line, "own",
                    f"allocation bound to '{var}' in '{fn.qual}' is never "
                    "published (Insert), retired, freed, or returned"))
    return findings
