"""Unit tests for the simlint scope/brace tracker."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

from simlint import scopes  # noqa: E402
from simlint.lexer import tokenize  # noqa: E402


def build(src):
    return scopes.build(tokenize(src, "<test>"))


class FunctionDetection(unittest.TestCase):
    def test_free_function(self):
        m = build("int Add(int a, int b) { return a + b; }")
        self.assertEqual([f.name for f in m.functions], ["Add"])
        self.assertFalse(m.functions[0].is_coroutine)

    def test_template_return_type(self):
        m = build("sim::Task<Status> Ring(uint64_t v) { return t; }")
        self.assertEqual([f.name for f in m.functions], ["Ring"])
        self.assertIn("Task", [t.text for t in m.functions[0].return_tokens])

    def test_member_function_gets_class_name(self):
        m = build("""
            class Sender {
             public:
              sim::Task<Status> Ring(uint64_t v) { co_return x; }
             private:
              int addr_;
            };
        """)
        fn = m.functions[0]
        self.assertEqual(fn.class_name, "Sender")
        self.assertEqual(fn.qualified_name, "Sender::Ring")
        self.assertTrue(fn.is_coroutine)

    def test_out_of_line_member(self):
        m = build("Status Pool::Grab(int n) { return OkStatus(); }")
        self.assertEqual([f.name for f in m.functions], ["Grab"])

    def test_constructor_init_list_is_not_body(self):
        m = build("""
            class A {
             public:
              A(int x) : x_(x), y_(0) { Init(); }
             private:
              int x_; int y_;
            };
        """)
        # The ctor body must be found (not the `x_(x)` initializer).
        self.assertEqual([f.name for f in m.functions], ["A"])
        body = m.tokens[m.functions[0].body_start:m.functions[0].body_end]
        self.assertIn("Init", [t.text for t in body])

    def test_out_of_line_constructor_keeps_its_own_body(self):
        # The body brace follows the `)` or `}` closing the last
        # initializer, even when the next definition starts with a name.
        for init in ("config_{config}", "config_(config)"):
            m = build("""
                Agent::Agent(Host& host, Config config)
                    : host_(host), %s { Init(); }
                sim::Task<> Agent::Serve(int x) { co_await Delay(x); }
            """ % init)
            self.assertEqual([f.qualified_name for f in m.functions],
                             ["Agent::Agent", "Agent::Serve"], init)
            ctor, serve = m.functions
            body = m.tokens[ctor.body_start:ctor.body_end]
            self.assertIn("Init", [t.text for t in body], init)
            self.assertFalse(ctor.is_coroutine, init)
            self.assertTrue(serve.is_coroutine, init)

    def test_control_flow_is_not_a_function(self):
        m = build("void F() { if (x) { y(); } while (z) { w(); } }")
        self.assertEqual([f.name for f in m.functions], ["F"])

    def test_suspend_points(self):
        m = build("""
            sim::Task<> Two(E& e) {
              co_await e.A();
              co_await e.B();
            }
        """)
        self.assertEqual(len(m.functions[0].suspend_points), 2)


class LambdaDetection(unittest.TestCase):
    def test_ref_capture_coroutine(self):
        m = build("auto f = [&x](int v) -> sim::Task<> { co_return; };")
        self.assertEqual(len(m.lambdas), 1)
        lam = m.lambdas[0]
        self.assertTrue(lam.has_ref_capture)
        self.assertTrue(lam.returns_task)
        self.assertTrue(lam.is_coroutine)

    def test_default_ref_capture(self):
        m = build("auto f = [&]() -> sim::Task<> { co_return; };")
        self.assertTrue(m.lambdas[0].has_ref_capture)

    def test_pointer_init_capture_is_value(self):
        m = build("auto f = [p = &obj](int v) -> sim::Task<> { co_return; };")
        self.assertEqual(len(m.lambdas), 1)
        self.assertFalse(m.lambdas[0].has_ref_capture)

    def test_mixed_captures(self):
        m = build("auto f = [p = &a, &q]() -> sim::Task<> { co_return; };")
        self.assertTrue(m.lambdas[0].has_ref_capture)

    def test_subscript_is_not_lambda(self):
        m = build("void F(std::vector<int>& v) { int x = v[0]; }")
        self.assertEqual(m.lambdas, [])

    def test_attribute_is_not_lambda(self):
        m = build("[[nodiscard]] int G() { return 1; }")
        self.assertEqual(m.lambdas, [])


class BraceMatching(unittest.TestCase):
    def test_nested(self):
        m = build("void F() { { { int x; } } }")
        opens = sorted(m.brace_match)
        for o in opens:
            self.assertGreater(m.brace_match[o], o)

    def test_enclosing_function(self):
        m = build("void F() { int marker; }")
        idx = next(i for i, t in enumerate(m.tokens)
                   if t.text == "marker")
        self.assertEqual(m.enclosing_function(idx).name, "F")


if __name__ == "__main__":
    unittest.main()
