"""dido_analyze: project-specific static analysis for DIDO invariants.

Seven passes over the C++ tree, each enforcing a contract the compiler
cannot see:

  epoch    -- calls to DIDO_REQUIRES_EPOCH functions (retire-able-memory
              APIs) must happen inside an EpochGuard / EpochPin /
              ScopedEpochParticipant scope.
  fault    -- every DIDO_FAULT_POINT name is unique, cataloged in
              src/faults/fault_points.h, and rehearsed by
              tests/chaos_test.cc.
  lock     -- in any class that owns a Mutex, every mutable non-atomic
              data member must carry DIDO_GUARDED_BY (or an explicit
              allow comment saying why not).
  hot      -- nothing reachable through the call graph from a DIDO_HOT
              stage kernel may acquire a mutex, allocate, log, block, or
              do an atomic read-modify-write (hot-path purity; keeps the
              paper's Fig. 4 stage-time model honest and underwrites
              ROADMAP item 3).
  own      -- the result of a DIDO_TRANSFERS_OWNERSHIP allocation must,
              on every path through the caller, reach an index insert,
              a Retire*/Free, or an annotated hand-off — no silent slab
              leaks on eviction/retry refactors.
  resp     -- every error-guarded early exit in a DIDO_MUST_RESPOND
              function must produce a response or bump a shed/error
              counter: the static half of the chaos suite's
              `ingested - shed == responses` arithmetic.
  memorder -- every memory_order_relaxed carries a justifying "relaxed"
              comment nearby (formerly a standalone lint script).

Suppressions (all passes, same grammar):

  // dido-analyze: allow(<pass>): <reason>          same or next line
  // dido-analyze: begin-allow(<pass>): <reason>    region start
  // dido-analyze: end-allow(<pass>)                region end

The default backend is purely textual (regex + brace/statement tracking)
so it runs anywhere Python runs.  `--backend auto` upgrades the lock pass
and the call-graph passes (hot/own/resp) to a real Clang AST when one is
reachable: libclang bindings first, then `clang -Xclang -ast-dump=json`
(so CI needs only the clang binary already used by the thread-safety
preset), each requiring a compile_commands.json and degrading to the
textual backend with a stderr notice otherwise.  AST extents refine *which
lines belong to which function*; the contract matching itself stays
textual on those lines, so backends agree wherever they both see a
function, and the analyzer's exit status never depends on clang health.
"""

__all__ = [
    "source", "callgraph", "clang_backend", "epoch_pass", "fault_pass",
    "lock_pass", "hot_pass", "ownership_pass", "response_pass",
    "memorder_pass",
]
