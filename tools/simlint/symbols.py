"""Repo-wide symbol index, built from headers.

One scan over every header under the configured roots answers, for all
rules at once:

  * ``must_use``: function names whose every header overload returns
    ``sim::Task``/``HostAdapter::Access``/``Status``/``Result`` (names
    that ALSO have a
    void/other overload anywhere are dropped — at a call site without
    type resolution they are ambiguous, and simlint prefers false
    negatives over noise);
  * ``takes_stop_token``: functions with a ``sim::StopToken&``
    parameter — the supervised-loop protocol (a loop holding a stop
    token is stopped before its owning object is torn down);
  * ``coroutines``: functions whose in-header body contains a ``co_``
    keyword;
  * ``class_members``: per-class data-member names (trailing-underscore
    declarations at class-body depth), used by the lifetime rules to
    recognize member state reads.
"""

import os

from . import lexer, scopes

MUST_USE_HEADS = scopes.LAZY_AWAITABLE_HEADS + ("Status", "Result")
# Names excluded outright even if every overload matches: too generic.
_MUST_USE_BLOCKLIST = set(MUST_USE_HEADS) | {"status", "ok"}


class SymbolIndex:
    __slots__ = ("must_use", "other_return", "takes_stop_token",
                 "coroutines", "class_members", "headers_scanned")

    def __init__(self):
        self.must_use = set()
        self.other_return = set()
        self.takes_stop_token = set()
        self.coroutines = set()
        self.class_members = {}  # class name -> set of member names
        self.headers_scanned = 0

    def is_must_use(self, name):
        return (name in self.must_use and name not in self.other_return
                and name not in _MUST_USE_BLOCKLIST)

    def must_use_names(self):
        return {n for n in self.must_use
                if n not in self.other_return
                and n not in _MUST_USE_BLOCKLIST}

    def members_of(self, class_name):
        return self.class_members.get(class_name, frozenset())


def _returns_must_use(return_tokens):
    """True when the return-type token list is Task<...>/Access/Status/
    Result<...> (optionally namespace- or class-qualified)."""
    ids = [t.text for t in return_tokens if t.is_id()]
    if not ids:
        return False
    # The type head is the last namespace-path component before any
    # template arguments: e.g. [sim, Task, T] -> Task when written
    # Task<T>; scan for the first must-use head in the id list.
    for head in ids:
        if head in MUST_USE_HEADS:
            return True
    return False


def _scan_params_for_stop_token(tokens, start, end):
    for k in range(start + 1, end):
        if tokens[k].is_id("StopToken"):
            return True
    return False


def _harvest_class_members(model, index):
    """Collect `Type name_;`-style members per class body."""
    toks = model.tokens
    for cls in model.classes:
        members = index.class_members.setdefault(cls.name, set())
        i = cls.body_start + 1
        while i < cls.body_end:
            t = toks[i]
            # Skip nested function/class bodies wholesale.
            if t.is_punct("{"):
                m = model.brace_match.get(i)
                i = (m + 1) if m is not None else (i + 1)
                continue
            if t.is_id() and t.text.endswith("_") and i + 1 < cls.body_end:
                nxt = toks[i + 1]
                if nxt.is_punct(";", "=", "{", "("):
                    members.add(t.text)
            i += 1


def _index_one(lexed, index):
    model = scopes.build(lexed)
    for fn in model.functions:
        if _returns_must_use(fn.return_tokens):
            index.must_use.add(fn.name)
        elif fn.return_tokens:
            index.other_return.add(fn.name)
        if _scan_params_for_stop_token(model.tokens, fn.params_start,
                                       fn.params_end):
            index.takes_stop_token.add(fn.qualified_name)
            index.takes_stop_token.add(fn.name)
        if fn.is_coroutine:
            index.coroutines.add(fn.qualified_name)
            index.coroutines.add(fn.name)
    # Declarations without bodies (the common header case) never make it
    # into model.functions; scan token triples for `Ret Name ( ... ) ;`.
    _index_declarations(model, index)
    _harvest_class_members(model, index)


def _index_declarations(model, index):
    toks = model.tokens
    n = len(toks)
    for i in range(n - 1):
        t = toks[i]
        if not t.is_id() or t.text in scopes.CONTROL_KEYWORDS:
            continue
        if not toks[i + 1].is_punct("("):
            continue
        close = model.paren_match.get(i + 1)
        if close is None:
            continue
        # Declaration iff the post-param tokens reach `;` without `{`.
        j = close + 1
        is_decl = False
        budget = 16
        while j < n and budget > 0:
            tk = toks[j]
            if tk.is_punct(";"):
                is_decl = True
                break
            if tk.is_punct("{", "(", ")", ",", ":"):
                break
            j += 1
            budget -= 1
        if not is_decl:
            continue
        first, _qual = scopes._leading_name_index(toks, i)
        if first > 0 and toks[first - 1].is_punct(".", "->"):
            continue
        ret = scopes._collect_return_tokens(toks, first)
        if not ret:
            continue
        if _returns_must_use(ret):
            index.must_use.add(t.text)
        else:
            index.other_return.add(t.text)
        if _scan_params_for_stop_token(toks, i + 1, close):
            index.takes_stop_token.add(t.text)


def file_overlay(model):
    """(local_must_use, local_other) for one translation unit's own
    function definitions. Overlaying these onto the header index gives
    call sites in the same file the benefit of local knowledge: a test
    fixture's ``void Drain()`` no longer collides with the repo's
    ``sim::Task<> Drain(...)`` (a false-positive class the header-only
    regex index could not fix), and a file-local Task helper becomes
    must-use even though no header declares it."""
    local_must = set()
    local_other = set()
    for fn in model.functions:
        if _returns_must_use(fn.return_tokens):
            local_must.add(fn.name)
        elif fn.return_tokens:
            local_other.add(fn.name)
    return local_must, local_other


def build(roots):
    """Scan all ``.h`` files under ``roots`` into one SymbolIndex."""
    index = SymbolIndex()
    seen = set()
    for root in roots:
        if os.path.isfile(root):
            paths = [root] if root.endswith(".h") else []
        else:
            paths = []
            for dirpath, _, files in os.walk(root):
                for f in sorted(files):
                    if f.endswith(".h"):
                        paths.append(os.path.join(dirpath, f))
        for path in paths:
            real = os.path.realpath(path)
            if real in seen:
                continue
            seen.add(real)
            _index_one(lexer.lex_file(path), index)
            index.headers_scanned += 1
    return index
