"""Call-graph model shared by the hot / own / resp passes.

Builds, from the discovered SourceFiles, a `Model` of every function
definition in the tree: its (possibly class-qualified) name, source extent,
body lines, the names it calls, and the contract markers (DIDO_HOT,
DIDO_TRANSFERS_OWNERSHIP, DIDO_MUST_RESPOND) attached to its declaration or
definition.  The passes then do reachability walks and per-statement checks
on top of this model.

Three backends produce the same Model shape:

  text        -- pure-Python brace/statement tracking (always available;
                 the reference semantics every other backend must match).
  libclang    -- clang Python bindings + compile_commands.json: function
                 extents and qualified names come from the real AST, which
                 sees through templates, operators, and macros the textual
                 parser skips.  Body-line primitives are still matched
                 textually on the same source lines, so findings are
                 line-identical with the text backend wherever both see a
                 function.
  clang-json  -- `clang -Xclang -ast-dump=json` per translation unit, for
                 environments with a clang binary but no Python bindings
                 (the CI case).  Same extent-refinement contract.

Backend resolution and the AST plumbing live in clang_backend.py; both AST
backends degrade to `text` with a stderr notice on any failure, so the
analyzer's exit status never depends on clang being healthy.

Known blind spots of the textual backend (accepted, documented):
  * operator overloads and conversion functions are not modeled as
    definitions (their bodies are still brace-tracked, just unattributed);
  * calls through function pointers / std::function are invisible;
  * Status factory returns (`Status::OutOfMemory(...)`) construct a
    std::string but are not treated as hot-path allocation — they only run
    on failure paths, which are by definition off the hot path.
"""

import re

from . import source

MARKERS = ("DIDO_HOT", "DIDO_COLD", "DIDO_TRANSFERS_OWNERSHIP",
           "DIDO_MUST_RESPOND")

# Identifier (possibly Class::Name) directly followed by an argument list.
_NAME_CALL_RE = re.compile(
    r"([A-Za-z_~][\w]*(?:::[A-Za-z_~][\w]*)*)\s*\(")

# Statement heads that open a brace but are not function definitions.
_NON_FUNC_KEYWORDS = frozenset((
    "if", "else", "for", "while", "switch", "do", "catch", "return",
    "sizeof", "alignof", "static_assert", "decltype", "new", "delete",
    "case", "default", "try", "throw", "co_return", "co_await",
))

# Identifiers collected as potential call edges from a body line.  The
# resolver later keeps only names that match an in-tree definition, so std::
# and member-container noise (push_back, load, ...) drops out naturally.
_CALL_EDGE_RE = re.compile(r"\b([A-Za-z_][\w]*)\s*\(")

# What a call edge's name is reached through, matched against the text just
# before the name: a data member (`index_->Delete(`, `totals_.Add(`; members
# follow the repo's trailing-underscore convention), a class
# (`ThreadShardId::Get(`) or a plain variable that is not itself reached
# through another object (`counter->Add(`; typed when it is a parameter).
# Anything else resolves by name alone.
_MEMBER_RECEIVER_RE = re.compile(r"\b(\w+_)\s*(?:->|\.)\s*$")
_CLASS_RECEIVER_RE = re.compile(r"\b([A-Z]\w*)\s*::\s*$")
_VAR_RECEIVER_RE = re.compile(r"(?<![\w.>:])([a-z]\w*)\s*(?:->|\.)\s*$")

# One declared parameter, its default argument stripped: `Type name` with an
# optional array suffix.
_PARAM_DECL_RE = re.compile(r"^(.*?)\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?$")

# Data-member declarations in a class body: `Type name_;`, with any
# initializer or DIDO_* annotation stripped first.
_ACCESS_RE = re.compile(r"\b(?:public|private|protected)\s*:")
_DIDO_MACRO_RE = re.compile(
    r"\bDIDO_[A-Z_]+\s*(?:\((?:[^()]|\([^()]*\))*\))?")
_MEMBER_DECL_RE = re.compile(r"^(.*?)\b(\w+_)\s*(?:\[[^\]]*\])?\s*$")
_SMART_PTR_RE = re.compile(r"\b(?:unique_ptr|shared_ptr)\s*<\s*([\w:]+)")
_TYPE_QUALIFIERS = frozenset(("const", "mutable", "static"))

# --- impurity primitives (hot pass) ---------------------------------------
# Each matches against a comment/string-stripped source line.  Findings are
# reported at the matching line, in the file that owns it, with the call
# path from the DIDO_HOT root in the message.

LOCK_RE = re.compile(
    r"\b(?:MutexLock|UniqueMutexLock)\s+\w+\s*\("
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|[.->]\s*(?:Lock|lock|try_lock)\s*\(")

ALLOC_RE = re.compile(
    r"\bnew\b"
    r"|\bstd::make_(?:unique|shared)\b|\bmake_(?:unique|shared)\s*<"
    r"|\b(?:malloc|calloc|realloc|strdup)\s*\("
    r"|(?:\.|->)(?:push_back|emplace_back|emplace|insert|resize|reserve|append"
    r"|assign)\s*\("
    r"|\bstd::to_string\s*\(|\bstd::string\s*\(")

BLOCK_RE = re.compile(
    r"\b(?:sleep_for|sleep_until|usleep|nanosleep)\s*\("
    r"|\.join\s*\("
    r"|\.\s*[Ww]ait(?:For|_for|_until|ForSpace)?\s*\(")

SYSCALL_RE = re.compile(
    r"\bDIDO_LOG\s*\(\s*(?!Fatal\b)\w+\s*\)"
    r"|\b(?:printf|fprintf|snprintf|fopen|fwrite|fread|fflush|write|read)"
    r"\s*\("
    r"|\bstd::c(?:out|err|log)\b")

# Atomic read-modify-writes: on a word other threads also write, each one
# pulls the cache line over exclusively, so a per-op statistic kept this way
# costs every stage thread a line transfer per query.
SHARED_RE = re.compile(
    r"(?:\.|->)\s*(?:fetch_(?:add|sub|or|and|xor)|exchange"
    r"|compare_exchange_(?:weak|strong))\s*\(")

PRIMITIVES = (
    ("lock", LOCK_RE, "mutex acquisition"),
    ("alloc", ALLOC_RE, "heap allocation"),
    ("block", BLOCK_RE, "blocking wait"),
    ("syscall", SYSCALL_RE, "syscall/logging"),
    ("shared", SHARED_RE, "atomic read-modify-write"),
)


class FunctionDef:
    """One function definition: extent, body lines, callees, markers."""

    def __init__(self, name, qual, sf, head_line):
        self.name = name          # unqualified: "RunIndexSearch"
        self.qual = qual          # best-effort: "KvRuntime::RunIndexSearch"
        self.sf = sf              # owning SourceFile
        self.head_line = head_line
        self.end_line = head_line
        self.body = []            # [(line_no, stripped_text)] incl. head
        self.callees = set()      # unqualified names of calls in the body
        self.call_lines = {}      # callee name -> set of call-site line_nos
        # callee name -> receivers of its call sites: ("member", "index_"),
        # ("class", "ThreadShardId"), ("var", "counter"), or None for a
        # bare call.
        self.receivers = {}
        self.markers = set()      # MARKERS present on the definition head
        self._declarator_seen = False
        self._param_types = None

    def add_line(self, line_no, stripped):
        self.body.append((line_no, stripped))
        self.end_line = line_no
        for m in _CALL_EDGE_RE.finditer(stripped):
            name = m.group(1)
            if not self._declarator_seen and name == self.name.lstrip("~"):
                # The definition's own name in its head is not a call.
                self._declarator_seen = True
                continue
            if name not in _NON_FUNC_KEYWORDS:
                self.callees.add(name)
                self.call_lines.setdefault(name, set()).add(line_no)
                self.receivers.setdefault(name, set()).add(
                    _receiver(stripped[:m.start()]))

    def param_types(self):
        """{parameter name: class name of its declared type} of the head."""
        if self._param_types is None:
            head = " ".join(text for _, text in self.body)
            self._param_types = _param_types(head, self.name)
        return self._param_types

    def statements(self):
        """Yields (first_line_no, text) per `;`/`{`/`}`-terminated statement.

        Brace characters terminate statements but are not included, so an
        `if (...) {` head and its block body come out as separate
        statements — enough structure for the own/resp passes.
        """
        acc, acc_line = [], None
        for line_no, text in self.body:
            for piece in re.split(r"([;{}])", text):
                if piece in (";", "{", "}"):
                    stmt = " ".join(acc).strip()
                    if piece == ";":
                        stmt = (stmt + ";").strip()
                    if stmt and stmt not in (";",):
                        yield (acc_line if acc_line is not None else line_no,
                               stmt)
                    acc, acc_line = [], None
                elif piece.strip():
                    if acc_line is None:
                        acc_line = line_no
                    acc.append(piece.strip())
        if acc:
            yield (acc_line, " ".join(acc).strip())


def _owner(qual):
    """Innermost class of a qualified name, or None."""
    parts = qual.split("::")
    return parts[-2] if len(parts) > 1 else None


def _receiver(prefix):
    m = _MEMBER_RECEIVER_RE.search(prefix)
    if m:
        return ("member", m.group(1))
    m = _CLASS_RECEIVER_RE.search(prefix)
    if m:
        return ("class", m.group(1))
    m = _VAR_RECEIVER_RE.search(prefix)
    if m:
        return ("var", m.group(1))
    return None


def _param_types(head, name):
    """Parameter name -> declared class name, from a definition's head.

    `void Bump(obs::Counter* counter, uint64_t n = 1)` ->
    {"counter": "Counter", "n": "uint64_t"}.  Unnamed parameters are
    skipped.
    """
    m = re.search(rf"\b{re.escape(name)}\s*\(", head)
    if m is None:
        return {}
    # Parentheses find the end of the list; angle brackets only keep a
    # template argument's commas from splitting a parameter.
    params, parens, angles, cur = [], 0, 0, []
    for ch in head[m.end():]:
        if ch == "(":
            parens += 1
        elif ch == ")":
            if parens == 0:
                break
            parens -= 1
        elif ch == "<":
            angles += 1
        elif ch == ">":
            angles = max(0, angles - 1)
        if ch == "," and parens == 0 and angles == 0:
            params.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    params.append("".join(cur))
    types = {}
    for param in params:
        decl = _DIDO_MACRO_RE.sub(" ", param.split("=", 1)[0]).strip()
        pm = _PARAM_DECL_RE.match(decl)
        if pm is None or not re.search(r"\w", pm.group(1)):
            continue
        typ = _member_type(pm.group(1))
        if typ is not None:
            types[pm.group(2)] = typ
    return types


def _member_type(decl):
    """Class name of a member's declared type, or None.

    `std::unique_ptr<CuckooHashTable>` -> `CuckooHashTable`,
    `Bucket* const` -> `Bucket`, `TallyShards<Counters>` -> `TallyShards`.
    """
    m = _SMART_PTR_RE.search(decl)
    if m:
        return m.group(1).split("::")[-1]
    prev = None
    while prev != decl:
        prev, decl = decl, re.sub(r"<[^<>]*>", "", decl)
    names = [w for w in re.findall(r"[A-Za-z_][\w:]*", decl)
             if w not in _TYPE_QUALIFIERS]
    return names[-1].split("::")[-1] if names else None


class Model:
    """All function definitions in the tree plus declaration markers."""

    def __init__(self):
        self.functions = []
        self.by_name = {}       # unqualified name -> [FunctionDef]
        self.decl_markers = {}  # unqualified name -> set of MARKERS
        self.member_types = {}  # class name -> {member name: type name}

    def add(self, fn):
        self.functions.append(fn)
        self.by_name.setdefault(fn.name, []).append(fn)

    def add_member(self, cls, stmt):
        """Records the type of a data member declared by `stmt` in `cls`."""
        if cls is None:
            return
        decl = _DIDO_MACRO_RE.sub(" ", _ACCESS_RE.sub(" ", stmt))
        decl = decl.split("=", 1)[0].strip()
        m = _MEMBER_DECL_RE.match(decl)
        if m is None or "(" in decl:
            return
        typ = _member_type(m.group(1))
        if typ is not None:
            self.member_types.setdefault(cls, {})[m.group(2)] = typ

    def resolve(self, fn, name):
        """The definitions a call to `name` in `fn` may reach.

        A call through a data member of `fn`'s class or a parameter of `fn`
        whose declared type is known, or through an explicit `Class::`,
        reaches that class's definitions of `name`.  A bare call, a
        receiver of unknown type (a local, say), or a type with no in-tree
        `name` falls back to every definition of `name`.
        """
        defs = self.by_name.get(name, ())
        members = self.member_types.get(_owner(fn.qual), {})
        found = []
        for recv in sorted(fn.receivers.get(name, {None}), key=str):
            typ = None
            if recv is not None:
                kind, ident = recv
                if kind == "class":
                    typ = ident
                elif kind == "member":
                    typ = members.get(ident)
                else:
                    typ = fn.param_types().get(ident)
            typed = [d for d in defs if typ and _owner(d.qual) == typ]
            for d in typed or defs:
                if d not in found:
                    found.append(d)
        return found

    def add_decl_marker(self, name, marker):
        self.decl_markers.setdefault(name, set()).add(marker)

    def markers_of(self, fn):
        return fn.markers | self.decl_markers.get(fn.name, set())

    def annotated(self, marker):
        """Every FunctionDef whose declaration or definition carries marker."""
        return [fn for fn in self.functions if marker in self.markers_of(fn)]


# A declaration is `Name(...)` ... markers ... `;` with no `{` between the
# close-paren and the semicolon (a definition would have one).  DOTALL lets
# parameter lists span lines; one declaration may carry several markers.
_DECL_MARKER_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*\((?:[^()]|\([^()]*\))*\)([^;{}]*?;)",
    re.DOTALL)
_MARKER_RE = re.compile(r"\b(" + "|".join(MARKERS) + r")\b")


def _collect_decl_markers(model, sf):
    text = "\n".join(
        source.strip_comments_and_strings(l) for l in sf.lines)
    for m in _DECL_MARKER_RE.finditer(text):
        for marker in _MARKER_RE.findall(m.group(2)):
            model.add_decl_marker(m.group(1), marker)


def _strip_template_prefix(head):
    """`template <...> void F(...)` -> `void F(...)`; other heads unchanged.

    The angle brackets are matched with nesting, so defaulted template
    arguments like `typename = std::enable_if_t<...>` stay inside.
    """
    if not re.match(r"template\s*<", head):
        return head
    depth = 0
    for i, ch in enumerate(head):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
            if depth == 0:
                return head[i + 1:].strip()
    return head


def _head_function_name(head):
    """Function (or ctor) name from a `{`-opening statement head, or None."""
    first = head.split(None, 1)[0] if head.split() else ""
    if first in ("class", "struct", "enum", "namespace", "union",
                 "extern", "template", "typedef", "using"):
        return None
    # Skip over return types like Result<KvObject*>: take the first
    # identifier followed by '(' that is not a keyword and not immediately
    # preceded by a template angle bracket.
    for m in _NAME_CALL_RE.finditer(head):
        name = m.group(1)
        base = name.split("::")[-1]
        if base in _NON_FUNC_KEYWORDS or base.isupper():
            continue  # control flow or a macro like DIDO_CHECK
        # `= {`-style initializers: `const X kTable[] = {...}` never has
        # Name( before '='; a match inside a default argument would, but
        # those occur only in declarations (which end with ';', not '{').
        return name
    return None


class _Scope:
    __slots__ = ("kind", "name", "fn")

    def __init__(self, kind, name=None, fn=None):
        self.kind = kind  # "namespace" | "class" | "func" | "block"
        self.name = name
        self.fn = fn


def build_text_model(files):
    """Reference backend: textual brace/statement tracking over files."""
    model = Model()
    for sf in files:
        _collect_decl_markers(model, sf)
        _parse_file(model, sf)
    return model


def _parse_file(model, sf):
    scopes = []    # innermost last
    acc = []       # statement-head accumulator since last ; { } (chars)
    acc_start = 1  # line where acc last became non-empty

    def innermost_fn():
        for scope in reversed(scopes):
            if scope.kind == "func":
                return scope.fn
        return None

    def class_name():
        names = [s.name for s in scopes if s.kind == "class" and s.name]
        return names[-1] if names else None

    in_directive = False
    for line_no, raw in enumerate(sf.lines, start=1):
        # Preprocessor lines (and their continuations) are not statements:
        # an `#endif` must not join the head of the `class X {` after it.
        if in_directive or raw.lstrip().startswith("#"):
            in_directive = raw.rstrip().endswith("\\")
            continue
        stripped = source.strip_comments_and_strings(raw)
        fn = innermost_fn()
        buf = []  # chars of this line attributed to the current fn

        def flush(target):
            if target is not None and "".join(buf).strip():
                target.add_line(line_no, "".join(buf).strip())
            del buf[:]

        for ch in stripped:
            if ch == "{":
                head = "".join(acc).strip()
                acc = []
                if fn is not None:
                    # A block (loop, lambda, init list) inside the body.
                    scopes.append(_Scope("block"))
                    buf.append(ch)
                    continue
                # A function or class template is modeled like the
                # function or class it stamps out.
                decl = _strip_template_prefix(head)
                name = _head_function_name(decl)
                first = decl.split(None, 1)[0] if decl.split() else ""
                if first in ("class", "struct") and name is None:
                    m = re.match(r"(?:class|struct)\s+(?:\w+\s+)*?(\w+)",
                                 decl)
                    scopes.append(
                        _Scope("class", m.group(1) if m else None))
                elif first == "namespace":
                    m = re.match(r"namespace\s+([\w:]+)?", head)
                    scopes.append(
                        _Scope("namespace", m.group(1) if m else None))
                elif name is not None and "=" not in decl.split("(")[0]:
                    qual = name
                    if "::" not in name and class_name():
                        qual = f"{class_name()}::{name}"
                    new_fn = FunctionDef(name.split("::")[-1], qual, sf,
                                         acc_start)
                    for marker in MARKERS:
                        if re.search(rf"\b{marker}\b", head):
                            new_fn.markers.add(marker)
                    # The accumulated head (may span lines; includes ctor
                    # initializer lists, which hold call edges) opens the
                    # body extent.
                    new_fn.add_line(acc_start, head + " {")
                    model.add(new_fn)
                    scopes.append(_Scope("func", fn=new_fn))
                    fn = new_fn
                    del buf[:]
                else:
                    if scopes and scopes[-1].kind == "class":
                        # A brace-initialized member: `Type name_{...}`.
                        model.add_member(class_name(), head)
                    scopes.append(_Scope("block"))
            elif ch == "}":
                if fn is not None:
                    buf.append(ch)
                if scopes:
                    closing = scopes.pop()
                    if closing.kind == "func" and closing.fn is not None:
                        flush(closing.fn)
                        closing.fn.end_line = line_no
                        fn = innermost_fn()
                acc = []
            elif ch == ";":
                if fn is None and scopes and scopes[-1].kind == "class":
                    model.add_member(class_name(), "".join(acc))
                acc = []
                if fn is not None:
                    buf.append(ch)
            else:
                if fn is None:
                    if ch.strip() and not acc:
                        acc_start = line_no
                    acc.append(ch)
                else:
                    buf.append(ch)
        # Line break = token boundary for a multi-line statement head.
        if fn is None and acc:
            acc.append(" ")
        flush(fn)


def build_model(files, backend="text", compile_commands=None):
    """Builds a Model with the requested backend, degrading to text.

    Returns (model, resolved_backend_name).  Degradation prints a notice to
    stderr (via clang_backend) so CI logs show which backend actually ran.
    """
    if backend in ("libclang", "clang-json"):
        from . import clang_backend
        model = clang_backend.build_ast_model(files, backend,
                                              compile_commands)
        if model is not None:
            return model, backend
        backend = "text"
    return build_text_model(files), "text"


def reachable(model, roots, prune_pass=None):
    """BFS over call edges from `roots`.

    Returns {FunctionDef: path} where path is the chain of function names
    from a root to that definition (roots map to a one-element path).
    Resolution (Model.resolve) follows a call through a typed data member
    or an explicit `Class::` to that class's definition; otherwise it is by
    unqualified name — conservative: a name shared by several definitions
    pulls all of them in.  Only CamelCase names (the
    repo's method convention) are resolved: lowercase callees like
    `.size()` / `.ok()` are ubiquitous STL/accessor spellings whose
    name-only resolution would wire every kernel to every container-like
    class in the tree.  Lowercase primitives are still caught by the
    regexes; a lowercase in-tree function that locks is a (documented)
    blind spot.

    Two pruning mechanisms keep justified hand-offs out of the walk:

      * a callee marked DIDO_COLD is an explicit boundary (its job is the
        impurity) — the walk never enters it;
      * when `prune_pass` is given (the hot pass passes "hot"), an edge is
        skipped if *every* call site of that callee in the caller sits on a
        line suppressed for that pass: one reasoned
        `dido-analyze: allow(hot)` comment at the call site justifies the
        entire subtree behind the call, instead of demanding a comment at
        every primitive the subtree happens to contain.
    """
    paths = {}
    queue = []
    for root in roots:
        if root not in paths:
            paths[root] = (root.qual,)
            queue.append(root)
    while queue:
        fn = queue.pop(0)
        for callee_name in sorted(fn.callees):
            if not callee_name[0].isupper():
                continue
            if prune_pass is not None:
                sites = fn.call_lines.get(callee_name, ())
                if sites and all(fn.sf.allowed(prune_pass, line)
                                 for line in sites):
                    continue
            for callee in model.resolve(fn, callee_name):
                if callee in paths:
                    continue
                if "DIDO_COLD" in model.markers_of(callee):
                    continue
                paths[callee] = paths[fn] + (callee.qual,)
                queue.append(callee)
    return paths
