"""Unit tests for the simlint C++ lexer (run via ctest or directly:
`python3 -m unittest discover tools/simlint/tests`)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

from simlint.lexer import tokenize  # noqa: E402


def kinds(text):
    return [(t.kind, t.text) for t in tokenize(text, "<test>").tokens]


def texts(text):
    return [t.text for t in tokenize(text, "<test>").tokens]


class LexerBasics(unittest.TestCase):
    def test_identifiers_numbers_punct(self):
        self.assertEqual(
            kinds("int x = 42;"),
            [("id", "int"), ("id", "x"), ("punct", "="),
             ("num", "42"), ("punct", ";")])

    def test_longest_match_punctuators(self):
        self.assertEqual(texts("a->b <<= c && d ... e"),
                         ["a", "->", "b", "<<=", "c", "&&", "d", "...", "e"])

    def test_scope_and_member_operators(self):
        self.assertEqual(texts("a::b.c->*d"),
                         ["a", "::", "b", ".", "c", "->*", "d"])

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc", "<test>").tokens
        self.assertEqual([(t.text, t.line) for t in toks],
                         [("a", 1), ("b", 2), ("c", 4)])


class LexerComments(unittest.TestCase):
    def test_line_comment_stripped(self):
        self.assertEqual(texts("x; // co_await client.Call(m)\ny;"),
                         ["x", ";", "y", ";"])

    def test_block_comment_stripped_and_lines_kept(self):
        toks = tokenize("a /* line1\nline2\nline3 */ b", "<test>").tokens
        self.assertEqual([(t.text, t.line) for t in toks],
                         [("a", 1), ("b", 3)])

    def test_comment_inside_string_is_content(self):
        toks = tokenize('Log("not a // comment");', "<test>").tokens
        self.assertEqual([t.kind for t in toks],
                         ["id", "punct", "str", "punct", "punct"])


class LexerStrings(unittest.TestCase):
    def test_escaped_quote(self):
        toks = tokenize(r'f("a \" Spawn(XLoop(h)) \" b");', "<test>").tokens
        strs = [t for t in toks if t.kind == "str"]
        self.assertEqual(len(strs), 1)
        self.assertNotIn("Spawn", [t.text for t in toks if t.kind == "id"])

    def test_raw_string_with_delimiter(self):
        src = 'auto s = R"doc(co_await end.Recv(&f); ")" still raw)doc"; x;'
        ids = [t.text for t in tokenize(src, "<test>").tokens if t.kind == "id"]
        self.assertEqual(ids, ["auto", "s", "x"])

    def test_raw_string_multiline_line_tracking(self):
        src = 'a = R"(line1\nline2\nline3)";\nb;'
        toks = tokenize(src, "<test>").tokens
        b = [t for t in toks if t.text == "b"][0]
        self.assertEqual(b.line, 4)

    def test_char_literal_with_brace(self):
        toks = tokenize("char c = '{'; int y;", "<test>").tokens
        self.assertEqual([t.text for t in toks if t.is_punct("{", "}")], [])


class LexerPreprocessor(unittest.TestCase):
    def test_directive_is_one_token(self):
        toks = tokenize("#include <vector>\nint x;", "<test>").tokens
        self.assertEqual(toks[0].kind, "pp")
        self.assertEqual([t.text for t in toks[1:]], ["int", "x", ";"])

    def test_macro_continuation_lines_fold(self):
        src = "#define FIRE(h, a)   \\\n  (void)(h).Flush(a, 64);\nint y;"
        toks = tokenize(src, "<test>").tokens
        self.assertEqual(toks[0].kind, "pp")
        self.assertNotIn("Flush", [t.text for t in toks if t.kind == "id"])
        y = [t for t in toks if t.text == "y"][0]
        self.assertEqual(y.line, 3)

    def test_if0_elision(self):
        src = "#if 0\nbad.Code();\n#endif\nok;"
        ids = [t.text for t in tokenize(src, "<test>").tokens if t.kind == "id"]
        self.assertEqual(ids, ["ok"])

    def test_if0_nested_and_else(self):
        src = ("#if 0\n#if defined(X)\na;\n#endif\nb;\n"
               "#else\nc;\n#endif\nd;")
        ids = [t.text for t in tokenize(src, "<test>").tokens if t.kind == "id"]
        self.assertEqual(ids, ["c", "d"])


class LexerSideTables(unittest.TestCase):
    def test_allow_comment(self):
        import tempfile
        from simlint.lexer import lex_file
        src = ("x;  // simlint: allow(missing-deadline)\n"
               "y;  // simlint: allow(leaked-span, dangling-frame)\n"
               "z;  // lint-tasks: allow(leaked-span)\n")
        with tempfile.NamedTemporaryFile("w", suffix=".cc",
                                         delete=False) as f:
            f.write(src)
            path = f.name
        try:
            lf = lex_file(path)
        finally:
            os.unlink(path)
        self.assertTrue(lf.allowed(1, "missing-deadline"))
        self.assertTrue(lf.allowed(2, "leaked-span"))
        self.assertTrue(lf.allowed(2, "dangling-frame"))
        self.assertFalse(lf.allowed(1, "leaked-span"))
        self.assertFalse(lf.allowed(3, "leaked-span"),
                         "the retired lint-tasks spelling waives nothing")

    def test_expect_annotations(self):
        import tempfile
        from simlint.lexer import lex_file
        src = "bad();  // simlint-expect: discarded-result\n"
        with tempfile.NamedTemporaryFile("w", suffix=".cc",
                                         delete=False) as f:
            f.write(src)
            path = f.name
        try:
            lf = lex_file(path)
        finally:
            os.unlink(path)
        self.assertEqual(lf.expects, {1: {"discarded-result"}})


if __name__ == "__main__":
    unittest.main()
