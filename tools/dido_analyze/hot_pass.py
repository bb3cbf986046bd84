"""Hot-path purity pass: DIDO_HOT kernels must stay lock/alloc/block-free.

Roots are every function whose declaration or definition carries DIDO_HOT.
The pass walks the transitive call graph from the roots (a call through a
data member of known type, or through `Class::`, resolves to that class's
definition; any other call by unqualified name against in-tree
definitions — conservative: a shared name pulls in every definition) and
scans each reachable function's body lines for impurity primitives:

  lock     MutexLock / UniqueMutexLock / std::*_lock / .Lock() / .lock()
  alloc    new, make_unique/shared, malloc family, container growth
           (.push_back/.emplace*/.insert/.resize/.reserve/...),
           std::to_string, std::string temporaries
  block    sleep_for/sleep_until, .join(), condition-variable waits
  syscall  DIDO_LOG (non-Fatal), printf family, iostreams
  shared   atomic read-modify-writes (.fetch_add/.fetch_sub/.fetch_or/...,
           .exchange, .compare_exchange_*): per-op counts belong in a
           caller-owned tally; a protocol RMW (slot CAS, epoch pin) keeps
           its allow(hot) reason

DIDO_LOG(Fatal) and DIDO_CHECK are exempt: they terminate the process, so
they are never part of a *successful* hot path.  Each finding is reported
at the offending line in the file that owns it, with the call path from the
root in the message; suppress with `dido-analyze: allow(hot): <reason>` on
or above the offending line.

An allow(hot) comment at a *call site* additionally prunes the walk into
that callee (the reason justifies the hand-off, not just the line), and a
callee annotated DIDO_COLD — an explicit resource-management boundary like
the MM stage — is never entered.  See callgraph.reachable.
"""

from . import callgraph, source


def run(files, model=None):
    if model is None:
        model = callgraph.build_text_model(files)
    roots = model.annotated("DIDO_HOT")
    findings = []
    seen = set()  # (path, line, category) — shared names dedupe here
    for fn, path in sorted(
            callgraph.reachable(model, roots, prune_pass="hot").items(),
            key=lambda item: item[1]):
        in_root = len(path) == 1
        for line_no, text in fn.body:
            for category, regex, label in callgraph.PRIMITIVES:
                if not regex.search(text):
                    continue
                key = (fn.sf.rel, line_no, category)
                if key in seen:
                    continue
                seen.add(key)
                if fn.sf.allowed("hot", line_no):
                    continue
                via = ("" if in_root
                       else f" (reached via {' -> '.join(path)})")
                findings.append(source.Finding(
                    fn.sf.rel, line_no, "hot",
                    f"{label} on the hot path of DIDO_HOT root "
                    f"'{path[0]}'{via}"))
    return findings
