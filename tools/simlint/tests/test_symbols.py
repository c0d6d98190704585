"""Unit tests for the simlint cross-file symbol index."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

from simlint import engine, scopes, symbols  # noqa: E402
from simlint.lexer import tokenize  # noqa: E402


def index_of(header_src):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "test.h")
        with open(path, "w") as f:
            f.write(header_src)
        return symbols.build([d])


class MustUseHarvest(unittest.TestCase):
    def test_inline_definitions(self):
        idx = index_of("""
            sim::Task<Status> Flush(uint64_t a) { co_return OkStatus(); }
            Status Check(int x) { return OkStatus(); }
            Result<int> Parse(const char* s) { return 1; }
            void Log(const char* m) { }
        """)
        names = idx.must_use_names()
        self.assertIn("Flush", names)
        self.assertIn("Check", names)
        self.assertIn("Parse", names)
        self.assertNotIn("Log", names)

    def test_bodyless_declarations(self):
        idx = index_of("""
            sim::Task<Status> Store(uint64_t a, std::span<const std::byte> d);
            void Reset();
        """)
        self.assertIn("Store", idx.must_use_names())
        self.assertNotIn("Reset", idx.must_use_names())

    def test_ambiguous_name_dropped(self):
        # A name with both a Task overload and a void overload is
        # unresolvable at a call site without type info: prefer the
        # false negative.
        idx = index_of("""
            sim::Task<> Drain(msg::Endpoint& e);
            void Drain();
        """)
        self.assertNotIn("Drain", idx.must_use_names())


class LazyAwaitables(unittest.TestCase):
    # HostAdapter's accessors return an Access awaitable, not a Task. It
    # has no frame but is just as lazy: nothing runs until it is awaited.
    HEADER = """
        class HostAdapter {
         public:
          class Access;
          Access Flush(uint64_t addr, uint64_t len);
          Access StoreNt(uint64_t addr, std::span<const std::byte> in);
        };
        inline HostAdapter::Access HostAdapter::Flush(uint64_t a, uint64_t n) {
          return Access(*this, a, n);
        }
    """

    def test_access_returners_are_must_use(self):
        names = index_of(self.HEADER).must_use_names()
        self.assertIn("Flush", names)
        self.assertIn("StoreNt", names)
        self.assertNotIn("Access", names)

    def test_discarded_and_dangling_access(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "host.h"), "w") as f:
                f.write(self.HEADER)
            src = os.path.join(d, "user.cc")
            with open(src, "w") as f:
                f.write("""
                    void Drop(HostAdapter& host, uint64_t a) {
                      host.Flush(a, 64);
                    }
                    cxl::HostAdapter::Access Ring(HostAdapter& host, uint64_t a) {
                      std::array<std::byte, 8> buf;
                      return host.StoreNt(a, buf);
                    }
                    cxl::HostAdapter::Access Forward(HostAdapter& host, uint64_t a,
                                                     std::span<const std::byte> in) {
                      return host.StoreNt(a, in);
                    }
                """)
            findings, _ = engine.Analyzer(
                [d], ["discarded-result", "dangling-frame"]).lint_file(src)
        self.assertEqual([(f.line, f.rule) for f in findings],
                         [(3, "discarded-result"), (7, "dangling-frame")])


class StopTokenAndMembers(unittest.TestCase):
    def test_stop_token_param(self):
        idx = index_of("""
            sim::Task<> ScrubLoop(Pool& p, sim::StopToken& stop);
        """)
        self.assertIn("ScrubLoop", idx.takes_stop_token)

    def test_class_members(self):
        idx = index_of("""
            class Path {
             public:
              sim::Task<Status> Write(uint64_t o, uint64_t v);
             private:
              msg::RpcClient* client_;
              sim::EventLoop& loop_;
              uint64_t stats_ = 0;
            };
        """)
        members = idx.members_of("Path")
        self.assertIn("client_", members)
        self.assertIn("loop_", members)
        self.assertIn("stats_", members)
        self.assertNotIn("Write", members)


class FileOverlay(unittest.TestCase):
    def test_local_definition_disambiguates(self):
        # The regression that motivated the overlay: a test fixture's
        # local `void Drain()` must shadow a header's Task-returning
        # Drain at call sites in that file.
        lexed = tokenize("void Drain() { } "
                         "sim::Task<Status> Local(int x) { co_return s; }",
                         "<test>")
        model = scopes.build(lexed)
        local_must, local_other = symbols.file_overlay(model)
        self.assertIn("Drain", local_other)
        self.assertIn("Local", local_must)


if __name__ == "__main__":
    unittest.main()
