"""C++ token stream for simlint.

One pass over the raw file text producing a flat list of ``Token``s plus
two per-line side tables (suppressions and self-test expectations).
Everything the old regex linter got wrong structurally is handled here,
once, for every rule:

  * ``//`` and ``/* */`` comments vanish from the stream (their only
    residue is the suppression/expectation side tables);
  * string and character literals become single opaque ``str``/``char``
    tokens — rule text inside a literal can never match;
  * raw strings (``R"delim(...)delim"``, with encoding prefixes) are
    scanned by delimiter, so embedded quotes/parens/newlines are inert;
  * preprocessor directives (with ``\\``-newline continuations folded)
    become one ``pp`` token each; ``#if 0``/``#if false`` regions are
    elided entirely (nesting-aware, ``#else`` re-enables);
  * ``\\``-newline splices in normal code read as whitespace;
  * multi-char punctuators (``::``, ``->``, ``==``, ...) are single
    tokens, so ``!=`` can never be misread as a ``=`` assignment.

Tokens carry their 1-based source line for findings.
"""

import re

# Longest-match-first punctuator table.
_PUNCTUATORS = [
    "<<=", ">>=", "->*", "...",
    "::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "##",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "<", ">", "+", "-",
    "*", "/", "%", "&", "|", "^", "~", "!", "=", "?", ":", "#", "@",
]

_ID_START = re.compile(r"[A-Za-z_]")
_ID_BODY = re.compile(r"[A-Za-z0-9_]")

# Suppression / expectation comment grammar.
_ALLOW_RE = re.compile(
    r"simlint:\s*allow\(\s*(?P<rules>[\w-]+(?:\s*,\s*[\w-]+)*)\s*\)")
_EXPECT_RE = re.compile(
    r"simlint-expect:\s*(?P<rules>[\w-]+(?:\s*,\s*[\w-]+)*)")

_RAW_STR_INTRO = re.compile(r'(?:u8|[uUL])?R"')
_STR_PREFIX = re.compile(r'(?:u8|[uUL])?"')

_IF_ZERO = re.compile(r"^#\s*if\s+(?:0|false)\b")
_IF_ANY = re.compile(r"^#\s*if(?:def|ndef)?\b")
_ELSE = re.compile(r"^#\s*else\b")
_ELIF = re.compile(r"^#\s*elif\b")
_ENDIF = re.compile(r"^#\s*endif\b")


class Token:
    """One lexical token. ``kind`` is one of:

    ``id``     identifier or keyword (rules test ``text``)
    ``num``    numeric literal
    ``str``    string literal (ordinary or raw), opaque
    ``char``   character literal, opaque
    ``punct``  punctuator/operator (possibly multi-char)
    ``pp``     one whole preprocessor directive, continuations folded
    """

    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return "Token(%r, %r, line=%d)" % (self.kind, self.text, self.line)

    def __eq__(self, other):  # convenient in unit tests
        if isinstance(other, Token):
            return (self.kind, self.text, self.line) == (
                other.kind, other.text, other.line)
        return NotImplemented

    def is_id(self, *names):
        return self.kind == "id" and (not names or self.text in names)

    def is_punct(self, *texts):
        return self.kind == "punct" and (not texts or self.text in texts)


class LexedFile:
    """Token stream + per-line side tables for one translation unit."""

    __slots__ = ("path", "tokens", "allows", "expects")

    def __init__(self, path, tokens, allows, expects):
        self.path = path
        self.tokens = tokens
        # line -> set of rule names suppressed on that line.
        self.allows = allows
        # line -> set of rule names the self-test expects on that line.
        self.expects = expects

    def allowed(self, line, rule):
        return rule in self.allows.get(line, ())


def _scan_comment_directives(comment, line, allows, expects):
    for m in _ALLOW_RE.finditer(comment):
        allows.setdefault(line, set()).update(
            r.strip() for r in m.group("rules").split(","))
    for m in _EXPECT_RE.finditer(comment):
        expects.setdefault(line, set()).update(
            r.strip() for r in m.group("rules").split(","))


def tokenize(text, path="<memory>"):
    """Lex ``text`` into a LexedFile. Never raises on malformed input —
    unterminated constructs run to end-of-file (the analyzer must keep
    working on code the compiler would reject)."""
    tokens = []
    allows = {}
    expects = {}
    i = 0
    n = len(text)
    line = 1
    at_line_start = True  # only whitespace seen since the last newline
    # Stack of #if nesting inside an elided region; None when emitting.
    elide_depth = None

    def directive_text(start):
        """Consume a preprocessor directive starting at ``start`` (the
        ``#``). Returns (folded_text, next_index, lines_consumed)."""
        j = start
        parts = []
        lines = 0
        while j < n:
            c = text[j]
            if c == "\\" and j + 1 < n and text[j + 1] == "\n":
                parts.append(" ")
                lines += 1
                j += 2
                continue
            if c == "\\" and j + 2 < n and text[j + 1] == "\r" \
                    and text[j + 2] == "\n":
                parts.append(" ")
                lines += 1
                j += 3
                continue
            if c == "\n":
                break
            if c == "/" and j + 1 < n and text[j + 1] == "/":
                # Comment ends the directive logically; still consume to
                # newline so directives never swallow the next line.
                k = text.find("\n", j)
                k = n if k == -1 else k
                _scan_comment_directives(text[j:k], line + lines,
                                         allows, expects)
                j = k
                break
            if c == "/" and j + 1 < n and text[j + 1] == "*":
                k = text.find("*/", j + 2)
                k = n - 2 if k == -1 else k
                lines += text.count("\n", j, k + 2)
                j = k + 2
                parts.append(" ")
                continue
            parts.append(c)
            j += 1
        return "".join(parts), j, lines

    while i < n:
        c = text[i]

        if c == "\n":
            line += 1
            at_line_start = True
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "\\" and i + 1 < n and text[i + 1] == "\n":
            line += 1
            i += 2
            continue

        # Comments (emitted nowhere; directives harvested).
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            _scan_comment_directives(text[i:j], line, allows, expects)
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            _scan_comment_directives(text[i:j], line, allows, expects)
            line += text.count("\n", i, j + 2)
            i = j + 2
            at_line_start = False
            continue

        # Preprocessor directive (only at start of line).
        if c == "#" and at_line_start:
            body, j, extra = directive_text(i)
            directive = body.strip()
            if elide_depth is not None:
                # Inside an elided region: only track nesting.
                if _IF_ANY.match(directive):
                    elide_depth += 1
                elif _ENDIF.match(directive):
                    elide_depth -= 1
                    if elide_depth == 0:
                        elide_depth = None
                elif elide_depth == 1 and (_ELSE.match(directive)
                                           or _ELIF.match(directive)):
                    # The branch after #else/#elif of the dead #if may be
                    # live; conservatively emit it.
                    elide_depth = None
                    tokens.append(Token("pp", directive, line))
            elif _IF_ZERO.match(directive):
                elide_depth = 1
            else:
                tokens.append(Token("pp", directive, line))
            line += extra
            i = j
            at_line_start = False
            continue

        if elide_depth is not None:
            # Dead region: skip everything except newlines/directives.
            # Strings/comments must still be scanned so a `#endif` inside
            # a literal does not terminate the region early.
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j == -1 else j
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n - 2 if j == -1 else j
                line += text.count("\n", i, j + 2)
                i = j + 2
                continue
            if c in "\"'":
                i = _skip_plain_literal(text, i, c)[0]
                continue
            i += 1
            at_line_start = False
            continue

        at_line_start = False

        # Raw string literal.
        m = _RAW_STR_INTRO.match(text, i)
        if m is not None:
            j = m.end()  # just past R"
            d_end = text.find("(", j)
            if d_end == -1:
                tokens.append(Token("str", text[i:], line))
                break
            delim = text[j:d_end]
            closer = ")" + delim + '"'
            k = text.find(closer, d_end + 1)
            k = n if k == -1 else k + len(closer)
            tokens.append(Token("str", '""', line))
            line += text.count("\n", i, k)
            i = k
            continue

        # Ordinary string literal (with optional encoding prefix).
        m = _STR_PREFIX.match(text, i)
        if m is not None:
            j, newlines = _skip_plain_literal(text, m.end() - 1, '"')
            tokens.append(Token("str", '""', line))
            line += newlines
            i = j
            continue

        if c == "'":
            j, newlines = _skip_plain_literal(text, i, "'")
            tokens.append(Token("char", "''", line))
            line += newlines
            i = j
            continue

        # Identifier / keyword.
        if _ID_START.match(c):
            j = i + 1
            while j < n and _ID_BODY.match(text[j]):
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
            continue

        # Number (incl. hex, digit separators, float exponents).
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._'"
                             or (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
            continue

        # Punctuator, longest match first.
        for p in _PUNCTUATORS:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            i += 1  # unknown byte: drop it

    return LexedFile(path, tokens, allows, expects)


def _skip_plain_literal(text, quote_idx, quote):
    """Index past the closing quote of a non-raw literal starting at
    ``quote_idx``; also returns embedded (spliced) newline count."""
    n = len(text)
    j = quote_idx + 1
    newlines = 0
    while j < n:
        c = text[j]
        if c == "\\":
            if j + 1 < n and text[j + 1] == "\n":
                newlines += 1
            j += 2
            continue
        if c == quote:
            return j + 1, newlines
        if c == "\n":
            # Unterminated literal: stop at the newline so one bad line
            # cannot swallow the rest of the file.
            return j, newlines
        j += 1
    return n, newlines


def lex_file(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return tokenize(f.read(), path)
