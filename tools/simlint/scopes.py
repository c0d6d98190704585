"""Brace/scope tracking over the token stream.

Builds, for one lexed file:

  * matched bracket maps (``{}``, ``()``, ``[]``) over token indices;
  * class/struct body ranges (so in-class method definitions know their
    enclosing class);
  * function definitions — name, class qualifier, parameter and body
    token ranges, return-type tokens, coroutine-ness, and the token
    index of every suspension point (``co_await``/``co_yield``);
  * lambda expressions — capture list, by-reference capture flag,
    trailing return type, body range, coroutine-ness.

This is a tolerant single-pass recognizer, not a parser: constructs it
cannot classify are simply skipped (rules prefer false negatives over
noise, same contract as the old regex linter — but the things it *does*
classify it classifies structurally, so strings/comments/line breaks
can no longer confuse a rule).
"""

from .lexer import Token  # noqa: F401  (typing aid for readers)

# Names that can never be function names when followed by `( ... ) {`.
CONTROL_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "catch", "return",
    "co_return", "co_await", "co_yield", "sizeof", "alignof", "decltype",
    "new", "delete", "throw", "case", "default", "goto", "static_assert",
    "alignas", "noexcept", "requires", "asm",
}

# Return types whose value is an operation that has not started yet: a
# lazy ``sim::Task`` coroutine, or a ``HostAdapter::Access`` awaitable
# (it has no frame, but it too starts only when awaited and reads its
# span then). Dropping one never runs it; returning one built from a
# dying frame's locals dangles.
LAZY_AWAITABLE_HEADS = ("Task", "Access")

# Tokens allowed between a function's `)` and its body `{` (besides the
# constructor init list, handled separately).
_POST_PARAM_OK = {
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "&", "&&", "->", "::", "<", ">", ",", "try", "requires",
}

CO_KEYWORDS = ("co_await", "co_yield", "co_return")
SUSPEND_KEYWORDS = ("co_await", "co_yield")


class ClassScope:
    __slots__ = ("name", "body_start", "body_end", "line")

    def __init__(self, name, body_start, body_end, line):
        self.name = name
        self.body_start = body_start  # index of `{`
        self.body_end = body_end      # index of matching `}`
        self.line = line


class FunctionScope:
    __slots__ = ("name", "class_name", "params_start", "params_end",
                 "body_start", "body_end", "return_tokens", "line",
                 "is_coroutine", "suspend_points")

    def __init__(self, name, class_name, params_start, params_end,
                 body_start, body_end, return_tokens, line):
        self.name = name
        self.class_name = class_name  # None for free functions
        self.params_start = params_start  # index of `(`
        self.params_end = params_end      # index of matching `)`
        self.body_start = body_start      # index of `{`
        self.body_end = body_end          # index of matching `}`
        self.return_tokens = return_tokens  # list of Token (may be [])
        self.line = line
        self.is_coroutine = False
        self.suspend_points = []  # token indices of co_await/co_yield

    @property
    def qualified_name(self):
        if self.class_name:
            return "%s::%s" % (self.class_name, self.name)
        return self.name


class LambdaScope:
    __slots__ = ("capture_start", "capture_end", "params_start",
                 "params_end", "body_start", "body_end", "line",
                 "has_ref_capture", "returns_task", "is_coroutine",
                 "suspend_points")

    def __init__(self, capture_start, capture_end, params_start,
                 params_end, body_start, body_end, line,
                 has_ref_capture, returns_task):
        self.capture_start = capture_start  # index of `[`
        self.capture_end = capture_end      # index of matching `]`
        self.params_start = params_start    # index of `(` or None
        self.params_end = params_end
        self.body_start = body_start        # index of `{`
        self.body_end = body_end            # index of matching `}`
        self.line = line
        self.has_ref_capture = has_ref_capture
        self.returns_task = returns_task
        self.is_coroutine = False
        self.suspend_points = []


class ScopeModel:
    __slots__ = ("tokens", "brace_match", "paren_match", "bracket_match",
                 "classes", "functions", "lambdas")

    def __init__(self, tokens):
        self.tokens = tokens
        self.brace_match = {}
        self.paren_match = {}
        self.bracket_match = {}
        self.classes = []
        self.functions = []
        self.lambdas = []

    def match(self, idx):
        """Matching close index for the opener at ``idx`` (or None)."""
        t = self.tokens[idx]
        if t.is_punct("{"):
            return self.brace_match.get(idx)
        if t.is_punct("("):
            return self.paren_match.get(idx)
        if t.is_punct("["):
            return self.bracket_match.get(idx)
        return None

    def enclosing_class(self, idx):
        """Innermost class whose body contains token ``idx``."""
        best = None
        for c in self.classes:
            if c.body_start < idx < c.body_end:
                if best is None or c.body_start > best.body_start:
                    best = c
        return best

    def enclosing_function(self, idx):
        """Innermost function or lambda whose body contains ``idx``."""
        best = None
        for f in list(self.functions) + list(self.lambdas):
            if f.body_start < idx < f.body_end:
                if best is None or f.body_start > best.body_start:
                    best = f
        return best


def _match_brackets(model):
    stacks = {"{": [], "(": [], "[": []}
    pairs = {"}": "{", ")": "(", "]": "["}
    table = {"{": model.brace_match, "(": model.paren_match,
             "[": model.bracket_match}
    for i, t in enumerate(model.tokens):
        if t.kind != "punct":
            continue
        if t.text in stacks:
            stacks[t.text].append(i)
        elif t.text in pairs:
            stack = stacks[pairs[t.text]]
            if stack:
                table[pairs[t.text]][stack.pop()] = i


def _find_classes(model):
    toks = model.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if not t.is_id("class", "struct"):
            continue
        if i > 0 and toks[i - 1].is_id("enum"):
            continue  # enum class
        # Find the class-head name: the last identifier before `:` (base
        # clause), `{`, or `;` (forward declaration / variable decl).
        name = None
        j = i + 1
        while j < n:
            tk = toks[j]
            if tk.is_punct(";"):
                break  # forward declaration
            if tk.is_punct("{"):
                if name is None:
                    break  # anonymous struct
                end = model.brace_match.get(j)
                if end is not None:
                    model.classes.append(ClassScope(name, j, end, t.line))
                break
            if tk.is_punct(":"):
                # Base clause: the body `{` follows after base names.
                k = j + 1
                depth = 0
                while k < n:
                    bk = toks[k]
                    if bk.is_punct("<"):
                        depth += 1
                    elif bk.is_punct(">"):
                        depth -= 1
                    elif bk.is_punct("{") and depth <= 0:
                        end = model.brace_match.get(k)
                        if end is not None and name is not None:
                            model.classes.append(
                                ClassScope(name, k, end, t.line))
                        k = None
                        break
                    elif bk.is_punct(";", "}"):
                        break
                    k += 1
                break
            if tk.kind == "id" and tk.text not in ("final", "alignas"):
                name = tk.text
            j += 1


# Return-type scan stops at these (statement/declaration boundaries).
_RET_STOP_PUNCT = {";", "{", "}", ",", "(", ")", ":", "?", "=", "[", "]"}
_RET_SKIP_IDS = {"static", "inline", "virtual", "constexpr", "explicit",
                 "friend", "extern", "typename", "public", "private",
                 "protected", "typedef", "using", "else", "return",
                 "co_return", "co_await", "do", "try"}


def _collect_return_tokens(toks, first_name_idx):
    """Tokens forming the return type preceding the (possibly qualified)
    function name whose first name token is at ``first_name_idx``."""
    out = []
    j = first_name_idx - 1
    budget = 24
    while j >= 0 and budget > 0:
        t = toks[j]
        if t.kind == "pp":
            break
        if t.kind == "punct" and t.text in _RET_STOP_PUNCT:
            break
        if t.is_id() and t.text in _RET_SKIP_IDS:
            j -= 1
            budget -= 1
            continue
        if t.kind in ("str", "char", "num"):
            break
        out.append(t)
        j -= 1
        budget -= 1
    out.reverse()
    return out


def _leading_name_index(toks, name_idx):
    """Walk a qualified-id chain (`A::B::name`) backwards from the name;
    returns (first_token_index, class_qualifier_or_None)."""
    j = name_idx
    qualifier = None
    while j >= 2 and toks[j - 1].is_punct("::") and toks[j - 2].is_id():
        qualifier = toks[j - 2].text
        j -= 2
    return j, qualifier


def _find_body_after_params(model, close_paren):
    """Token index of the definition body `{` after a parameter list
    ending at ``close_paren``, or None if this is not a definition.
    Handles cv/ref/noexcept/trailing-return and constructor init lists."""
    toks = model.tokens
    n = len(toks)
    j = close_paren + 1
    angle_depth = 0
    budget = 64
    while j < n and budget > 0:
        t = toks[j]
        if t.is_punct("{"):
            return j
        if t.is_punct(";"):
            return None
        if t.is_punct(":") :
            # Constructor init list: skip member initializers (which may
            # use parens OR braces) until the body brace.
            j += 1
            while j < n:
                t = toks[j]
                if t.is_punct("("):
                    m = model.paren_match.get(j)
                    if m is None:
                        return None
                    j = m + 1
                    continue
                if t.is_punct("{"):
                    m = model.brace_match.get(j)
                    if m is None:
                        return None
                    # An initializer brace follows its member or base name
                    # (`x_{x}`, `Base<T>{}`); the body brace follows the
                    # `)` or `}` that closed the last initializer.
                    if toks[j - 1].is_id() or toks[j - 1].is_punct(">"):
                        j = m + 1
                        continue
                    return j
                if t.is_punct(";", "}"):
                    return None
                j += 1
            return None
        if t.is_punct("("):
            # noexcept(...) / attribute-ish: skip the group.
            m = model.paren_match.get(j)
            if m is None:
                return None
            j = m + 1
            budget -= 1
            continue
        if t.is_punct("<"):
            angle_depth += 1
        elif t.is_punct(">"):
            angle_depth = max(0, angle_depth - 1)
        elif t.is_id():
            pass  # trailing return type names, `const`, `noexcept`, ...
        elif t.kind == "punct" and t.text not in _POST_PARAM_OK:
            return None
        elif t.kind == "pp":
            return None
        j += 1
        budget -= 1
    return None


def _find_functions(model):
    toks = model.tokens
    n = len(toks)
    for i in range(n - 1):
        t = toks[i]
        if not t.is_id() or t.text in CONTROL_KEYWORDS:
            continue
        if not toks[i + 1].is_punct("("):
            continue
        # A member access (`x.f(...)` / `p->f(...)`) or nested call is
        # never a definition head.
        first, qualifier = _leading_name_index(toks, i)
        if first > 0:
            prev = toks[first - 1]
            # `public: A(...)` is a constructor head, not an initializer.
            if first > 1 and prev.is_punct(":") and toks[first - 2].is_id(
                    "public", "protected", "private"):
                prev = toks[first - 2]
            # NB: `>` stays allowed — it closes template return types
            # (`Task<Status> Ring(...)`); expression contexts like
            # `a > b(c)` are rejected later by the body-brace scan.
            # `,` precedes a member initializer (`: a_(x), b_(y) {`),
            # never a definition.
            if prev.is_punct(".", "->", "(", ",", "!", "&&", "||", "=", "+",
                             "-", "*", "/", "%", "==", "!=",
                             "<=", ">=", "?", ":", "[", "return"):
                continue
            if prev.is_id("return", "co_return", "co_await", "co_yield",
                          "new", "throw", "case"):
                continue
        close = model.paren_match.get(i + 1)
        if close is None:
            continue
        body = _find_body_after_params(model, close)
        if body is None:
            continue
        body_end = model.brace_match.get(body)
        if body_end is None:
            continue
        ret = _collect_return_tokens(toks, first)
        enclosing = model.enclosing_class(i)
        class_name = qualifier or (enclosing.name if enclosing else None)
        fn = FunctionScope(t.text, class_name, i + 1, close, body,
                           body_end, ret, t.line)
        for k in range(body + 1, body_end):
            tk = toks[k]
            if tk.is_id(*CO_KEYWORDS):
                fn.is_coroutine = True
                if tk.text in SUSPEND_KEYWORDS:
                    fn.suspend_points.append(k)
        model.functions.append(fn)


# Token immediately before a `[` that makes it a subscript, not a
# lambda introducer.
def _is_subscript_context(prev):
    if prev is None:
        return False
    if prev.kind in ("id", "num", "str", "char"):
        # `arr[...]`, `get()[...]` — but keywords like `return` / `case`
        # / `co_return` / `co_await` introduce expressions.
        return prev.text not in ("return", "co_return", "co_await",
                                 "co_yield", "throw", "case", "delete",
                                 "new", "else", "do")
    return prev.is_punct("]", ")")


def _has_ref_capture(model, toks, cap_start, cap_end):
    """True when any capture item is by-reference: a leading `&` on an
    item (`[&]`, `[&x]`, `[x, &y]`). An `&` inside an init-capture's
    initializer (`[p = &obj]`) is address-of — that captures a POINTER
    by value, the sanctioned way to hand state to a detached coroutine
    lambda, and must not match."""
    item_start = True
    k = cap_start + 1
    while k < cap_end:
        t = toks[k]
        if item_start and t.is_punct("&"):
            return True
        item_start = False
        if t.is_punct(","):
            item_start = True
        elif t.is_punct("(", "[", "{"):
            # Skip bracketed initializer contents wholesale.
            match = (model.paren_match if t.text == "(" else
                     model.bracket_match if t.text == "[" else
                     model.brace_match)
            close = match.get(k)
            if close is not None and close < cap_end:
                k = close
        k += 1
    return False


def _find_lambdas(model):
    toks = model.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if not t.is_punct("["):
            continue
        prev = toks[i - 1] if i > 0 else None
        if _is_subscript_context(prev):
            continue
        cap_end = model.bracket_match.get(i)
        if cap_end is None:
            continue
        # `[[nodiscard]]`-style attributes: `[[` ... `]]`.
        if cap_end + 1 < n and toks[i + 1].is_punct("["):
            continue
        if prev is not None and prev.is_punct("["):
            continue
        j = cap_end + 1
        if j >= n:
            continue
        params_start = params_end = None
        if toks[j].is_punct("("):
            params_start = j
            params_end = model.paren_match.get(j)
            if params_end is None:
                continue
            j = params_end + 1
        # Scan specifiers / trailing return type for the body `{`.
        returns_task = False
        body = None
        budget = 40
        while j < n and budget > 0:
            tk = toks[j]
            if tk.is_punct("{"):
                body = j
                break
            if tk.is_punct(";", ")", ",", "]"):
                break  # not a lambda after all (e.g. `[x]` init-capture?)
            if tk.is_id(*LAZY_AWAITABLE_HEADS):
                returns_task = True
            j += 1
            budget -= 1
        if body is None:
            continue
        body_end = model.brace_match.get(body)
        if body_end is None:
            continue
        has_ref = _has_ref_capture(model, toks, i, cap_end)
        lam = LambdaScope(i, cap_end, params_start, params_end, body,
                          body_end, t.line, has_ref, returns_task)
        for k in range(body + 1, body_end):
            tk = toks[k]
            if tk.is_id(*CO_KEYWORDS):
                lam.is_coroutine = True
                if tk.text in SUSPEND_KEYWORDS:
                    lam.suspend_points.append(k)
        model.lambdas.append(lam)


def build(lexed):
    """Build the ScopeModel for a LexedFile."""
    model = ScopeModel(lexed.tokens)
    _match_brackets(model)
    _find_classes(model)
    _find_functions(model)
    _find_lambdas(model)
    return model
