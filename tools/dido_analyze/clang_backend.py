"""Clang backends: libclang / `clang -Xclang -ast-dump=json` AST access.

Two responsibilities:

  1. the AST lock-pass backend from ISSUE 6 (run_lock_pass), which needs
     only the libclang Python bindings;
  2. the call-graph model builders for the hot/own/resp passes (ISSUE 7):
     `build_ast_model()` produces the same callgraph.Model shape as the
     textual parser, but with function extents and qualified names taken
     from the real AST — which sees through templates, operators, and
     macro-heavy heads the textual parser skips.  Within those extents the
     body lines, call edges, and impurity primitives are still matched
     textually on the same source lines, so findings stay line-identical
     with the text backend wherever both see a function.

Backend resolution (resolve_backend):

  libclang    needs `import clang.cindex` to succeed AND a
              compile_commands.json for per-TU flags;
  clang-json  needs only a clang binary (env DIDO_CLANG, else clang++ /
              clang / versioned names on PATH) AND compile_commands.json —
              this is the CI path: no Python bindings required;
  text        always available.

The container this project builds in ships neither clang nor the bindings,
so everything here imports/spawns lazily and degrades to the textual
backend with a stderr notice on *any* failure — the analyzer's exit status
must never depend on clang being healthy.
"""

import json
import os
import re
import shutil
import subprocess
import sys

from . import source


def available():
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


def run_lock_pass(files, extra_args=None):
    """AST-based equivalent of lock_pass.run().  Raises ImportError when the
    clang bindings are missing (caller decides how to degrade)."""
    import clang.cindex as ci

    findings = []
    args = ["-x", "c++", "-std=c++20"] + list(extra_args or [])
    index = ci.Index.create()
    for sf in files:
        if sf.path.suffix != ".h":
            continue  # fields live in headers; .cc adds only noise
        tu = index.parse(str(sf.path), args=args,
                         options=ci.TranslationUnit.PARSE_INCOMPLETE)
        findings.extend(_scan_tu(tu, sf))
    return findings


def _scan_tu(tu, sf):
    import clang.cindex as ci

    findings = []

    def class_nodes(node):
        if node.kind in (ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL):
            yield node
        for child in node.get_children():
            if child.location.file and str(child.location.file) == str(sf.path):
                yield from class_nodes(child)

    for cls in class_nodes(tu.cursor):
        fields = [c for c in cls.get_children()
                  if c.kind == ci.CursorKind.FIELD_DECL]
        if not any(_is_mutex_type(f.type.spelling) for f in fields):
            continue
        for f in fields:
            spelling = f.type.spelling
            if _is_mutex_type(spelling) or "atomic" in spelling \
                    or "Atomic" in spelling or "CondVar" in spelling:
                continue
            if f.type.is_const_qualified():
                continue
            if any(_is_guarded_attr(c) for c in f.get_children()):
                continue
            line = f.location.line
            if sf.allowed("lock", line):
                continue
            findings.append(source.Finding(
                sf.rel, line, "lock",
                f"field '{f.spelling}' of mutex-owning class "
                f"'{cls.spelling}' has no DIDO_GUARDED_BY annotation (clang "
                "backend)"))
    return findings


def _notice(msg):
    print(f"dido_analyze: {msg}", file=sys.stderr)


def find_clang():
    """Path of a usable clang binary, or None.  DIDO_CLANG pins it."""
    pinned = os.environ.get("DIDO_CLANG")
    if pinned:
        found = shutil.which(pinned)
        if found:
            return found
        _notice(f"DIDO_CLANG='{pinned}' not found on PATH")
    for name in ("clang++", "clang", "clang++-18", "clang-18",
                 "clang++-17", "clang-17", "clang++-16", "clang-16",
                 "clang++-15", "clang-15", "clang++-14", "clang-14"):
        found = shutil.which(name)
        if found:
            return found
    return None


def find_compile_commands(root, explicit=None):
    """compile_commands.json path: explicit flag, env var, or build dirs."""
    candidates = []
    if explicit:
        candidates.append(explicit)
    env = os.environ.get("DIDO_COMPILE_COMMANDS")
    if env:
        candidates.append(env)
    for sub in ("build", "build-ccdb", "build-release", "build-asan",
                "build-tsan", "build-thread-safety"):
        candidates.append(os.path.join(str(root), sub,
                                       "compile_commands.json"))
    for cand in candidates:
        if cand and os.path.isfile(cand):
            return cand
    return None


def resolve_backend(requested, root, compile_commands=None):
    """Maps a --backend request to what this machine can actually run.

    Returns (backend_name, compile_commands_path_or_None).  'clang' (the
    pre-ISSUE-7 spelling) and 'auto' both mean "best available AST backend,
    else text"; explicit 'libclang'/'clang-json' requests degrade to text
    with a notice when their prerequisites are missing.
    """
    ccdb = find_compile_commands(root, compile_commands)
    if requested == "text":
        return "text", ccdb
    want_auto = requested in ("auto", "clang")
    if requested == "libclang" or want_auto:
        if available() and ccdb:
            return "libclang", ccdb
        if requested == "libclang":
            _notice("libclang backend unavailable (bindings or "
                    "compile_commands.json missing); using text")
            return "text", ccdb
    if requested == "clang-json" or want_auto:
        if find_clang() and ccdb:
            return "clang-json", ccdb
        if requested == "clang-json":
            _notice("clang-json backend unavailable (clang binary or "
                    "compile_commands.json missing); using text")
            return "text", ccdb
    if requested in ("libclang", "clang-json"):
        return "text", ccdb
    if not want_auto:
        return "text", ccdb
    return "text", ccdb


# --------------------------------------------------------- AST call graph --


def build_ast_model(files, backend, compile_commands):
    """callgraph.Model via the requested AST backend, or None on failure.

    Extents and qualified names come from the AST; body lines / call edges
    / markers are extracted textually from the same extents, keeping
    findings line-identical with the text backend.  Files no TU covers
    (stray headers) are parsed textually so nothing silently drops out of
    the audit.
    """
    from . import callgraph

    try:
        if backend == "libclang":
            extents = _libclang_extents(files, compile_commands)
        else:
            extents = _json_extents(files, compile_commands)
    except Exception as err:  # noqa: BLE001 — any AST trouble => fallback
        _notice(f"{backend} backend failed ({err!r}); using text")
        return None
    if not extents:
        _notice(f"{backend} backend found no function extents; using text")
        return None

    by_path = {str(sf.path.resolve()): sf for sf in files}
    model = callgraph.Model()
    # Member types for call resolution come from the text backend's
    # class-body scan; the AST extents carry no member declarations.
    model.member_types = callgraph.build_text_model(files).member_types
    covered = set()
    for sf in files:
        callgraph._collect_decl_markers(model, sf)
    for (path, start, end), qual in sorted(extents.items()):
        sf = by_path.get(path)
        if sf is None or start < 1 or end > len(sf.lines):
            continue
        covered.add(path)
        name = qual.split("::")[-1]
        fn = callgraph.FunctionDef(name, qual, sf, start)
        for line_no in range(start, end + 1):
            stripped = source.strip_comments_and_strings(
                sf.lines[line_no - 1])
            fn.add_line(line_no, stripped)
        head = " ".join(t for _, t in fn.body[:3])
        for marker in callgraph.MARKERS:
            if re.search(rf"\b{marker}\b", head):
                fn.markers.add(marker)
        model.add(fn)
    leftovers = [sf for sf in files
                 if str(sf.path.resolve()) not in covered]
    for sf in leftovers:
        callgraph._parse_file(model, sf)
    return model


def _load_compile_db(compile_commands):
    with open(compile_commands, encoding="utf-8") as fh:
        entries = json.load(fh)
    db = {}
    for entry in entries:
        path = os.path.normpath(
            os.path.join(entry.get("directory", "."), entry["file"]))
        if "arguments" in entry:
            args = list(entry["arguments"])[1:]
        else:
            args = _split_command(entry.get("command", ""))[1:]
        # Drop the output/input parts; keep defines, includes, std flags.
        kept, skip = [], False
        for arg in args:
            if skip:
                skip = False
                continue
            if arg in ("-o", "-c", "--output"):
                skip = arg != "-c"
                continue
            if arg == entry["file"] or arg.endswith(entry["file"]):
                continue
            kept.append(arg)
        db[path] = (entry.get("directory", "."), kept)
    return db


def _split_command(command):
    # compile_commands "command" strings in this repo have no quoted args
    # with spaces; a plain split is sufficient and avoids shlex surprises.
    return command.split()


def _libclang_extents(files, compile_commands):
    import clang.cindex as ci

    db = _load_compile_db(compile_commands)
    wanted = {str(sf.path.resolve()) for sf in files}
    extents = {}
    index = ci.Index.create()
    for path, (directory, args) in sorted(db.items()):
        if path not in wanted:
            continue
        tu = index.parse(path, args=args)
        _walk_cursor(tu.cursor, wanted, extents)
    return extents


def _walk_cursor(cursor, wanted, extents):
    import clang.cindex as ci

    defn_kinds = (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
                  ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR,
                  ci.CursorKind.FUNCTION_TEMPLATE)
    for child in cursor.get_children():
        loc_file = child.location.file
        path = str(loc_file) if loc_file else None
        if path is not None:
            path = os.path.realpath(path)
        if child.kind in defn_kinds and child.is_definition() \
                and path in wanted:
            qual = child.spelling
            parent = child.semantic_parent
            if parent is not None and parent.spelling and \
                    parent.kind != ci.CursorKind.TRANSLATION_UNIT:
                qual = f"{parent.spelling}::{child.spelling}"
            extents[(path, child.extent.start.line,
                     child.extent.end.line)] = qual
        _walk_cursor(child, wanted, extents)


def _json_extents(files, compile_commands):
    clang = find_clang()
    db = _load_compile_db(compile_commands)
    wanted = {str(sf.path.resolve()) for sf in files}
    extents = {}
    for path, (directory, args) in sorted(db.items()):
        if path not in wanted:
            continue
        cmd = [clang, *args, "-fsyntax-only", "-Xclang",
               "-ast-dump=json", path]
        proc = subprocess.run(cmd, cwd=directory, capture_output=True,
                              text=True, timeout=600, check=False)
        if not proc.stdout.strip():
            raise RuntimeError(
                f"no AST JSON from {os.path.basename(clang)} for {path}: "
                f"{proc.stderr.strip()[:200]}")
        tree = json.loads(proc.stdout)
        _walk_json(tree, {"file": None, "line": None}, wanted, extents)
    return extents


_JSON_FUNC_KINDS = frozenset((
    "FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
    "CXXDestructorDecl", "CXXConversionDecl", "FunctionTemplateDecl"))


def _decode_loc(loc, state):
    """Decodes one differential source location, updating `state`.

    clang's JSON AST omits "file"/"line" when unchanged from the previous
    location *in document order*; macro locations nest the real position
    under expansionLoc.  Returns (file, line) after the update.
    """
    if not isinstance(loc, dict):
        return state["file"], state["line"]
    if "expansionLoc" in loc:
        return _decode_loc(loc["expansionLoc"], state)
    if "file" in loc:
        state["file"] = os.path.realpath(loc["file"])
    if "line" in loc:
        state["line"] = loc["line"]
    return state["file"], state["line"]


def _walk_json(node, state, wanted, extents, parent_name=None):
    if not isinstance(node, dict):
        return
    kind = node.get("kind")
    name = node.get("name")
    scope = parent_name
    if kind in ("CXXRecordDecl", "NamespaceDecl", "ClassTemplateDecl") \
            and name:
        scope = name
    # Document order in clang's JSON is: loc, range.begin, range.end, then
    # the "inner" children — decode in exactly that order so the
    # differential stream stays in sync.
    _decode_loc(node.get("loc"), state)
    rng = node.get("range") or {}
    begin_file, begin_line = _decode_loc(rng.get("begin"), state)
    _, end_line = _decode_loc(rng.get("end"), state)
    if kind in _JSON_FUNC_KINDS and name and begin_file in wanted:
        inner = node.get("inner") or []
        has_body = any(isinstance(c, dict)
                       and c.get("kind") in ("CompoundStmt", "CXXTryStmt")
                       for c in inner)
        if has_body and begin_line and end_line \
                and end_line >= begin_line:
            qual = (f"{scope}::{name}"
                    if scope and scope != "dido" else name)
            extents[(begin_file, begin_line, end_line)] = qual
    for child in node.get("inner") or []:
        _walk_json(child, state, wanted, extents, scope)


def _is_mutex_type(spelling):
    return spelling.split("::")[-1].rstrip(" &") in ("Mutex", "mutex")


def _is_guarded_attr(cursor):
    # guarded_by lowers to an UNEXPOSED_ATTR in older bindings; match by
    # the attribute's source text when the kind is not specific enough.
    import clang.cindex as ci
    if cursor.kind.is_attribute():
        try:
            tokens = " ".join(t.spelling for t in cursor.get_tokens())
        except Exception:
            tokens = cursor.spelling or ""
        return "guarded_by" in tokens or "GUARDED_BY" in tokens
    return False
