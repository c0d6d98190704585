#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cxl/pod.h"
#include "src/msg/channel.h"
#include "src/netsim/fault_plane.h"
#include "src/sim/random.h"
#include "src/msg/retry.h"
#include "src/msg/ring.h"
#include "src/msg/rpc.h"
#include "src/msg/submit.h"
#include "src/msg/wire.h"
#include "src/obs/obs.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"
#include "tests/test_metrics.h"

namespace cxlpool::msg {
namespace {

using sim::RunBlocking;
using sim::Spawn;
using sim::Task;

std::vector<std::byte> Msg(std::string_view s) {
  std::vector<std::byte> out(s.size());
  if (!s.empty()) {
    std::memcpy(out.data(), s.data(), s.size());
  }
  return out;
}

std::string AsString(std::span<const std::byte> b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

class MsgTest : public ::testing::Test {
 protected:
  MsgTest() : pod_(loop_, Config()) {}

  static cxl::CxlPodConfig Config() {
    cxl::CxlPodConfig c;
    c.num_hosts = 2;
    c.num_mhds = 1;
    c.mhd_capacity = 16 * kMiB;
    c.dram_per_host = 1 * kMiB;
    // Figure 4 setup: PCIe-5.0 x16 links to the pool.
    c.link.lanes = 16;
    return c;
  }

  RingConfig MakeRing(uint32_t slots = 64) {
    auto seg = pod_.pool().Allocate(RingFootprint(slots));
    CXLPOOL_CHECK_OK(seg.status());
    RingConfig rc;
    rc.base = seg->base;
    rc.slots = slots;
    return rc;
  }

  // Host `host`'s counter in the pod's registry (the MsgTest channels run
  // host 0 -> host 1: clients and senders on 0, servers and receivers on 1).
  uint64_t Count(uint32_t host, const std::string& name) {
    return CounterValue(pod_.metrics(), name, HostLabels(host));
  }
  // Standalone retry policies, told apart by name.
  obs::Scope PolicyScope(const std::string& policy) {
    return obs::Scope(pod_.metrics(), {{"policy", policy}});
  }
  uint64_t PolicyCount(const std::string& policy, const std::string& field) {
    return CounterValue(pod_.metrics(), "retry." + field, {{"policy", policy}});
  }

  sim::EventLoop loop_;
  cxl::CxlPod pod_;
};

// --- Wire helpers ---

TEST(WireTest, RoundTripIntegers) {
  std::vector<std::byte> buf;
  wire::Writer w(&buf);
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  wire::Reader r(buf);
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, BytesAndRest) {
  std::vector<std::byte> buf;
  wire::Writer w(&buf);
  w.U16(7);
  w.Bytes(Msg("hello"));
  wire::Reader r(buf);
  EXPECT_EQ(r.U16(), 7);
  EXPECT_EQ(AsString(r.Rest()), "hello");
}

// --- Ring ---

TEST_F(MsgTest, SingleSlotMessageRoundTrip) {
  RingConfig rc = MakeRing();
  RingSender tx(pod_.host(0), rc);
  RingReceiver rx(pod_.host(1), rc);

  auto t = [](RingSender& s, RingReceiver& r, sim::EventLoop& loop) -> Task<std::string> {
    CXLPOOL_CHECK_OK(co_await s.Send(Msg("ping")));
    std::vector<std::byte> got;
    CXLPOOL_CHECK_OK(co_await r.Recv(&got, loop.now() + kMillisecond));
    co_return AsString(got);
  };
  EXPECT_EQ(RunBlocking(loop_, t(tx, rx, loop_)), "ping");
}

TEST_F(MsgTest, SubMicrosecondDelivery) {
  // Paper Figure 4: message passing over the CXL ring is sub-us (~600 ns
  // median, slightly above one CXL write + one CXL read).
  RingConfig rc = MakeRing();
  RingSender tx(pod_.host(0), rc);
  RingReceiver rx(pod_.host(1), rc);

  auto t = [](RingSender& s, RingReceiver& r, sim::EventLoop& loop) -> Task<Nanos> {
    Nanos start = loop.now();
    CXLPOOL_CHECK_OK(co_await s.Send(Msg("x")));
    std::vector<std::byte> got;
    CXLPOOL_CHECK_OK(co_await r.Recv(&got, loop.now() + kMillisecond));
    co_return loop.now() - start;
  };
  Nanos latency = RunBlocking(loop_, t(tx, rx, loop_));
  const auto& timing = pod_.host(0).timing();
  EXPECT_GE(latency, (timing.cxl_write + timing.cxl_read) * 7 / 10);  // jittered floor
  EXPECT_LT(latency, kMicrosecond);
}

TEST_F(MsgTest, ManyMessagesInOrder) {
  RingConfig rc = MakeRing();
  RingSender tx(pod_.host(0), rc);
  RingReceiver rx(pod_.host(1), rc);
  constexpr int kCount = 500;  // > slots: exercises wrap + flow control

  auto producer = [](RingSender& s) -> Task<> {
    for (int i = 0; i < kCount; ++i) {
      std::vector<std::byte> m;
      wire::Writer w(&m);
      w.U32(static_cast<uint32_t>(i));
      CXLPOOL_CHECK_OK(co_await s.Send(m));
    }
  };
  auto consumer = [](RingReceiver& r, sim::EventLoop& loop,
                     std::vector<uint32_t>& out) -> Task<> {
    for (int i = 0; i < kCount; ++i) {
      std::vector<std::byte> m;
      CXLPOOL_CHECK_OK(co_await r.Recv(&m, loop.now() + 10 * kMillisecond));
      wire::Reader rd(m);
      out.push_back(rd.U32());
    }
  };

  std::vector<uint32_t> got;
  Spawn(producer(tx));
  Spawn(consumer(rx, loop_, got));
  loop_.Run();
  ASSERT_EQ(got.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[i], static_cast<uint32_t>(i));
  }
  EXPECT_EQ(rx.messages_received(), static_cast<uint64_t>(kCount));
}

TEST_F(MsgTest, MultiSlotMessage) {
  RingConfig rc = MakeRing();
  RingSender tx(pod_.host(0), rc);
  RingReceiver rx(pod_.host(1), rc);

  std::vector<std::byte> big(1000);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = std::byte{static_cast<uint8_t>(i * 7)};
  }
  auto t = [](RingSender& s, RingReceiver& r, sim::EventLoop& loop,
              std::span<const std::byte> data) -> Task<std::vector<std::byte>> {
    CXLPOOL_CHECK_OK(co_await s.Send(data));
    std::vector<std::byte> got;
    CXLPOOL_CHECK_OK(co_await r.Recv(&got, loop.now() + kMillisecond));
    co_return got;
  };
  auto got = RunBlocking(loop_, t(tx, rx, loop_, big));
  ASSERT_EQ(got.size(), big.size());
  EXPECT_EQ(std::memcmp(got.data(), big.data(), big.size()), 0);
}

TEST_F(MsgTest, EmptyMessage) {
  RingConfig rc = MakeRing();
  RingSender tx(pod_.host(0), rc);
  RingReceiver rx(pod_.host(1), rc);
  auto t = [](RingSender& s, RingReceiver& r, sim::EventLoop& loop) -> Task<size_t> {
    CXLPOOL_CHECK_OK(co_await s.Send({}));
    std::vector<std::byte> got;
    CXLPOOL_CHECK_OK(co_await r.Recv(&got, loop.now() + kMillisecond));
    co_return got.size();
  };
  EXPECT_EQ(RunBlocking(loop_, t(tx, rx, loop_)), 0u);
}

TEST_F(MsgTest, OversizedMessageRejected) {
  RingConfig rc = MakeRing();
  RingSender tx(pod_.host(0), rc);
  std::vector<std::byte> huge(kMaxMessageSize + 1);
  auto t = [](RingSender& s, std::span<const std::byte> m) -> Task<Status> {
    co_return co_await s.Send(m);
  };
  EXPECT_EQ(RunBlocking(loop_, t(tx, huge)).code(), StatusCode::kInvalidArgument);
}

TEST_F(MsgTest, RecvDeadlineExpires) {
  RingConfig rc = MakeRing();
  RingReceiver rx(pod_.host(1), rc);
  auto t = [](RingReceiver& r, sim::EventLoop& loop) -> Task<Status> {
    std::vector<std::byte> got;
    co_return co_await r.Recv(&got, loop.now() + 10 * kMicrosecond);
  };
  EXPECT_EQ(RunBlocking(loop_, t(rx, loop_)).code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(loop_.now(), 10 * kMicrosecond);
}

TEST_F(MsgTest, TryRecvNonBlocking) {
  RingConfig rc = MakeRing();
  RingSender tx(pod_.host(0), rc);
  RingReceiver rx(pod_.host(1), rc);
  auto t = [](RingSender& s, RingReceiver& r, sim::EventLoop& loop)
      -> Task<std::pair<Status, Status>> {
    std::vector<std::byte> got;
    Status empty = co_await r.TryRecv(&got);
    CXLPOOL_CHECK_OK(co_await s.Send(Msg("a")));
    co_await sim::Delay(loop, kMicrosecond);  // posted-write media commit
    Status full = co_await r.TryRecv(&got);
    co_return std::make_pair(empty, full);
  };
  auto [empty, full] = RunBlocking(loop_, t(tx, rx, loop_));
  EXPECT_EQ(empty.code(), StatusCode::kNotFound);
  EXPECT_TRUE(full.ok());
}

TEST_F(MsgTest, SenderBlocksWhenRingFullThenDrains) {
  RingConfig rc = MakeRing(8);  // tiny ring
  RingSender tx(pod_.host(0), rc);
  RingReceiver rx(pod_.host(1), rc);
  constexpr int kCount = 64;

  int sent = 0;
  auto producer = [](RingSender& s, int& count) -> Task<> {
    std::vector<std::byte> m(4);
    for (int i = 0; i < kCount; ++i) {
      CXLPOOL_CHECK_OK(co_await s.Send(m));
      ++count;
    }
  };
  Spawn(producer(tx, sent));
  loop_.RunFor(kMillisecond);
  EXPECT_LT(sent, kCount);  // stuck on flow control

  int received = 0;
  auto consumer = [](RingReceiver& r, sim::EventLoop& loop, int& count) -> Task<> {
    std::vector<std::byte> m;
    while (count < kCount) {
      m.clear();
      CXLPOOL_CHECK_OK(co_await r.Recv(&m, loop.now() + 100 * kMillisecond));
      ++count;
    }
  };
  Spawn(consumer(rx, loop_, received));
  loop_.Run();
  EXPECT_EQ(sent, kCount);
  EXPECT_EQ(received, kCount);
}

TEST_F(MsgTest, RingFailsWhenMhdDies) {
  RingConfig rc = MakeRing();
  RingSender tx(pod_.host(0), rc);
  pod_.FailMhd(MhdId(0));
  auto t = [](RingSender& s) -> Task<Status> { co_return co_await s.Send(Msg("x")); };
  EXPECT_EQ(RunBlocking(loop_, t(tx)).code(), StatusCode::kUnavailable);
}

// --- Channel ---

TEST_F(MsgTest, ChannelBidirectional) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  auto t = [](Channel& c, sim::EventLoop& loop) -> Task<std::pair<std::string, std::string>> {
    CXLPOOL_CHECK_OK(co_await c.end_a().Send(Msg("from-a")));
    std::vector<std::byte> at_b;
    CXLPOOL_CHECK_OK(co_await c.end_b().Recv(&at_b, loop.now() + kMillisecond));
    CXLPOOL_CHECK_OK(co_await c.end_b().Send(Msg("from-b")));
    std::vector<std::byte> at_a;
    CXLPOOL_CHECK_OK(co_await c.end_a().Recv(&at_a, loop.now() + kMillisecond));
    co_return std::make_pair(AsString(at_b), AsString(at_a));
  };
  auto [at_b, at_a] = RunBlocking(loop_, t(**ch, loop_));
  EXPECT_EQ(at_b, "from-a");
  EXPECT_EQ(at_a, "from-b");
}

TEST_F(MsgTest, PingPongLatencyMatchesFigure4Band) {
  // Median ping-pong one-way latency should be in the 500-800 ns band with
  // a median around 600 ns (paper Figure 4).
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;

  sim::Histogram latencies;
  sim::StopToken stop;

  auto pong = [](Channel& chan, sim::EventLoop& loop, sim::StopToken& st) -> Task<> {
    while (!st.stopped()) {
      std::vector<std::byte> m;
      Status s = co_await chan.end_b().Recv(&m, loop.now() + 10 * kMicrosecond);
      if (s.code() == StatusCode::kDeadlineExceeded) {
        continue;
      }
      CXLPOOL_CHECK_OK(s);
      CXLPOOL_CHECK_OK(co_await chan.end_b().Send(m));
    }
  };
  auto ping = [](Channel& chan, sim::EventLoop& loop, sim::Histogram& hist,
                 sim::StopToken& st) -> Task<> {
    std::vector<std::byte> payload = Msg("0123456789abcdef");  // 16 B
    for (int i = 0; i < 200; ++i) {
      Nanos start = loop.now();
      CXLPOOL_CHECK_OK(co_await chan.end_a().Send(payload));
      std::vector<std::byte> echo;
      CXLPOOL_CHECK_OK(co_await chan.end_a().Recv(&echo, loop.now() + kMillisecond));
      hist.Add((loop.now() - start) / 2);  // one-way
    }
    st.Stop();
  };
  Spawn(pong(c, loop_, stop));
  Spawn(ping(c, loop_, latencies, stop));
  loop_.Run();

  int64_t p50 = latencies.Percentile(0.5);
  EXPECT_GE(p50, 500);
  EXPECT_LE(p50, 800);
  EXPECT_LT(latencies.Percentile(0.99), 2 * kMicrosecond);
}

// --- RPC ---

TEST_F(MsgTest, RpcEcho) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;

  sim::StopToken stop;
  RpcServer server(c.end_b(), [](uint16_t method, std::span<const std::byte> req)
                                   -> Task<Result<std::vector<std::byte>>> {
    if (method == 99) {
      co_return NotFound("no such method");
    }
    std::vector<std::byte> resp(req.begin(), req.end());
    resp.push_back(std::byte{static_cast<uint8_t>(method)});
    co_return resp;
  });
  Spawn(server.Serve(stop));

  RpcClient client(c.end_a());
  auto t = [](RpcClient& cl, sim::EventLoop& loop, sim::StopToken& st)
      -> Task<std::pair<std::string, StatusCode>> {
    auto ok = co_await cl.Call(7, Msg("hi"), loop.now() + kMillisecond);
    CXLPOOL_CHECK(ok.ok());
    std::string body = AsString(*ok);
    auto err = co_await cl.Call(99, Msg(""), loop.now() + kMillisecond);
    st.Stop();
    co_return std::make_pair(body, err.ok() ? StatusCode::kOk : err.status().code());
  };
  auto [body, err_code] = RunBlocking(loop_, t(client, loop_, stop));
  EXPECT_EQ(body, std::string("hi") + char(7));
  EXPECT_EQ(err_code, StatusCode::kNotFound);
  EXPECT_EQ(server.calls_served(), 2u);
}

TEST_F(MsgTest, RpcRoundTripIsFewMicroseconds) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  RpcServer server(c.end_b(),
                   [](uint16_t, std::span<const std::byte> req)
                       -> Task<Result<std::vector<std::byte>>> {
                     co_return std::vector<std::byte>(req.begin(), req.end());
                   });
  Spawn(server.Serve(stop));
  RpcClient client(c.end_a());
  auto t = [](RpcClient& cl, sim::EventLoop& loop, sim::StopToken& st) -> Task<Nanos> {
    // Warm up once (server parked in long poll), then measure.
    (void)co_await cl.Call(1, Msg("w"), loop.now() + kMillisecond);
    Nanos start = loop.now();
    auto r = co_await cl.Call(1, Msg("x"), loop.now() + kMillisecond);
    CXLPOOL_CHECK(r.ok());
    st.Stop();
    co_return loop.now() - start;
  };
  Nanos rtt = RunBlocking(loop_, t(client, loop_, stop));
  EXPECT_LT(rtt, 5 * kMicrosecond);  // two ring traversals + handler
  EXPECT_GT(rtt, 1 * kMicrosecond);
}

// --- RPC supervision & retry (robustness) ---

TEST_F(MsgTest, ServeCountsAbortWhenChannelDies) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  RpcServer server(c.end_b(),
                   [](uint16_t, std::span<const std::byte> req)
                       -> Task<Result<std::vector<std::byte>>> {
                     co_return std::vector<std::byte>(req.begin(), req.end());
                   });
  Spawn(server.Serve(stop));
  RpcClient client(c.end_a());

  auto call = [](RpcClient& cl, sim::EventLoop& loop) -> Task<bool> {
    auto r = co_await cl.Call(1, Msg("x"), loop.now() + kMillisecond);
    co_return r.ok();
  };
  EXPECT_TRUE(RunBlocking(loop_, call(client, loop_)));
  EXPECT_EQ(server.calls_served(), 1u);

  // The rings live on MHD 0; killing it kills the serve loop — which must
  // exit loudly (counted), not spin or vanish silently.
  pod_.FailMhd(MhdId(0));
  loop_.RunFor(300 * kMicrosecond);
  EXPECT_GE(Count(1, "rpc_server.serve_aborts"), 1u);
  EXPECT_EQ(Count(1, "rpc_server.restarts"), 0u);  // plain Serve never restarts
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
}

TEST_F(MsgTest, ServeLoopKilledByHostCrashCountsAndLeavesFlightNote) {
  // A pod with an observability bundle: the server notes through its host.
  obs::Observability obs;
  cxl::CxlPodConfig pc = Config();
  pc.obs = &obs;
  cxl::CxlPod pod(loop_, pc);
  auto ch = Channel::Create(pod.pool(), pod.host(0), pod.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  RpcServer server(c.end_b(),
                   [](uint16_t, std::span<const std::byte> req)
                       -> Task<Result<std::vector<std::byte>>> {
                     co_return std::vector<std::byte>(req.begin(), req.end());
                   });
  Spawn(server.Serve(stop));
  loop_.RunFor(10 * kMicrosecond);
  EXPECT_EQ(obs.flight().recorded(), 0u);

  // The serving host crashes: the loop's next memory op fails and it exits,
  // counted and noted in the host's flight ring rather than logged.
  pod.FailHost(HostId(1));
  loop_.RunFor(300 * kMicrosecond);
  EXPECT_EQ(CounterValue(obs.metrics(), "rpc_server.serve_aborts", HostLabels(1)), 1u);
  std::vector<obs::FlightRecorder::Event> notes = obs.flight().Snapshot();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].host, 1u);
  EXPECT_STREQ(notes[0].category, "rpc");
  EXPECT_NE(std::string(notes[0].msg).find("serve loop aborted on channel death"),
            std::string::npos)
      << notes[0].msg;
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
}

TEST_F(MsgTest, ServeSupervisedComesBackAfterRepair) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  RpcServer server(c.end_b(),
                   [](uint16_t, std::span<const std::byte> req)
                       -> Task<Result<std::vector<std::byte>>> {
                     co_return std::vector<std::byte>(req.begin(), req.end());
                   });
  Spawn(server.ServeSupervised(stop));
  RpcClient client(c.end_a());

  auto call = [](RpcClient& cl, sim::EventLoop& loop) -> Task<bool> {
    auto r = co_await cl.Call(1, Msg("x"), loop.now() + kMillisecond);
    co_return r.ok();
  };
  EXPECT_TRUE(RunBlocking(loop_, call(client, loop_)));

  pod_.FailMhd(MhdId(0));
  loop_.RunFor(500 * kMicrosecond);
  EXPECT_GE(Count(1, "rpc_server.serve_aborts"), 1u);

  // After repair the supervisor re-enters Serve within its max backoff
  // (200 µs) and calls succeed again.
  pod_.RepairMhd(MhdId(0));
  loop_.RunFor(500 * kMicrosecond);
  EXPECT_TRUE(RunBlocking(loop_, call(client, loop_)));
  EXPECT_GE(Count(1, "rpc_server.restarts"), 1u);
  EXPECT_EQ(server.calls_served(), 2u);
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
}

TEST_F(MsgTest, RetryPolicySucceedsOnceServerAppears) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  RpcServer server(c.end_b(),
                   [](uint16_t, std::span<const std::byte> req)
                       -> Task<Result<std::vector<std::byte>>> {
                     co_return std::vector<std::byte>(req.begin(), req.end());
                   });
  // The server only starts 150 µs in: the first attempt must time out and
  // a backed-off retry must land.
  auto late_start = [](RpcServer& s, sim::EventLoop& loop,
                       sim::StopToken& st) -> Task<> {
    co_await sim::Delay(loop, 150 * kMicrosecond);
    Spawn(s.Serve(st));
  };
  Spawn(late_start(server, loop_, stop));

  RetryPolicy::Options ro;
  ro.max_attempts = 5;
  ro.initial_backoff = 50 * kMicrosecond;
  RetryPolicy policy(PolicyScope("policy"), ro);
  RpcClient client(c.end_a());
  auto t = [](RetryPolicy& p, RpcClient& cl, sim::EventLoop& loop) -> Task<bool> {
    auto r = co_await p.Call(cl, 1, Msg("x"), 100 * kMicrosecond, loop);
    co_return r.ok();
  };
  EXPECT_TRUE(RunBlocking(loop_, t(policy, client, loop_)));
  EXPECT_EQ(PolicyCount("policy", "calls"), 1u);
  EXPECT_GE(PolicyCount("policy", "retries"), 1u);
  EXPECT_EQ(PolicyCount("policy", "exhausted"), 0u);
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
}

TEST_F(MsgTest, RetryPolicyDoesNotRetryApplicationErrors) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  RpcServer server(c.end_b(),
                   [](uint16_t, std::span<const std::byte>)
                       -> Task<Result<std::vector<std::byte>>> {
                     co_return NotFound("no such method");
                   });
  Spawn(server.Serve(stop));

  RetryPolicy policy(PolicyScope("policy"));
  RpcClient client(c.end_a());
  auto t = [](RetryPolicy& p, RpcClient& cl, sim::EventLoop& loop,
              sim::StopToken& st) -> Task<StatusCode> {
    auto r = co_await p.Call(cl, 99, Msg(""), 100 * kMicrosecond, loop);
    st.Stop();
    co_return r.ok() ? StatusCode::kOk : r.status().code();
  };
  EXPECT_EQ(RunBlocking(loop_, t(policy, client, loop_, stop)),
            StatusCode::kNotFound);
  EXPECT_EQ(PolicyCount("policy", "retries"), 0u);  // terminal error: one attempt
  EXPECT_EQ(PolicyCount("policy", "exhausted"), 0u);
}

TEST_F(MsgTest, RetryPolicyExhaustsOnDeadPath) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  // No server at all: every attempt times out.
  RetryPolicy::Options ro;
  ro.max_attempts = 3;
  ro.initial_backoff = 20 * kMicrosecond;
  RetryPolicy policy(PolicyScope("policy"), ro);
  RpcClient client(c.end_a());
  auto t = [](RetryPolicy& p, RpcClient& cl, sim::EventLoop& loop) -> Task<bool> {
    auto r = co_await p.Call(cl, 1, Msg("x"), 50 * kMicrosecond, loop);
    co_return r.ok();
  };
  EXPECT_FALSE(RunBlocking(loop_, t(policy, client, loop_)));
  EXPECT_EQ(PolicyCount("policy", "retries"), 2u);  // attempts 2 and 3
  EXPECT_EQ(PolicyCount("policy", "exhausted"), 1u);
}

TEST_F(MsgTest, RetryPolicyTimeoutEscalationOutwaitsSlowServer) {
  // A slow-but-alive server: every reply takes ~8us of handler time, well
  // past an aggressive 2us first-attempt deadline. Without escalation,
  // every attempt times out; with timeout_multiplier the later attempts
  // wait long enough to land. This is the pattern ForwardedMmioPath uses
  // to turn gray-slow peers into dedup hits instead of errors.
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  RpcServer server(c.end_b(),
                   [this](uint16_t, std::span<const std::byte> req)
                       -> Task<Result<std::vector<std::byte>>> {
                     co_await sim::Delay(loop_, 8 * kMicrosecond);
                     co_return std::vector<std::byte>(req.begin(), req.end());
                   });
  Spawn(server.Serve(stop));
  RpcClient client(c.end_a());

  auto call = [](RetryPolicy& p, RpcClient& cl, sim::EventLoop& loop) -> Task<bool> {
    auto r = co_await p.Call(cl, 1, Msg("x"), 2 * kMicrosecond, loop);
    co_return r.ok();
  };

  // Flat deadlines: exhausted.
  RetryPolicy::Options flat;
  flat.max_attempts = 3;
  flat.initial_backoff = 5 * kMicrosecond;
  RetryPolicy flat_policy(PolicyScope("flat_policy"), flat);
  EXPECT_FALSE(RunBlocking(loop_, call(flat_policy, client, loop_)));
  EXPECT_EQ(PolicyCount("flat_policy", "exhausted"), 1u);

  // Escalating deadlines: 2us, 8us, 32us — attempt 3 outwaits the server.
  RetryPolicy::Options esc = flat;
  esc.timeout_multiplier = 4.0;
  RetryPolicy esc_policy(PolicyScope("esc_policy"), esc);
  EXPECT_TRUE(RunBlocking(loop_, call(esc_policy, client, loop_)));
  EXPECT_GE(PolicyCount("esc_policy", "retries"), 1u);
  EXPECT_EQ(PolicyCount("esc_policy", "exhausted"), 0u);
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
}

TEST(RetryPolicyTest, BackoffIsDeterministicSeededAndBounded) {
  RetryPolicy::Options o;
  o.seed = 42;
  obs::Registry registry;
  RetryPolicy a(obs::Scope(registry, {{"policy", "a"}}), o);
  RetryPolicy b(obs::Scope(registry, {{"policy", "b"}}), o);
  for (int retry = 1; retry <= 6; ++retry) {
    Nanos d = a.BackoffFor(retry);
    EXPECT_EQ(d, b.BackoffFor(retry));  // same seed, same jitter draws
    EXPECT_GE(d, static_cast<Nanos>(
                     static_cast<double>(o.initial_backoff) * (1.0 - o.jitter)));
    EXPECT_LE(d, static_cast<Nanos>(
                     static_cast<double>(o.max_backoff) * (1.0 + o.jitter)));
  }
}

// --- Wire versioning ---

TEST_F(MsgTest, ServerDropsBadVersionRequest) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  int handler_calls = 0;
  RpcServer server(c.end_b(),
                   [&handler_calls](uint16_t, std::span<const std::byte> req)
                       -> Task<Result<std::vector<std::byte>>> {
                     ++handler_calls;
                     co_return std::vector<std::byte>(req.begin(), req.end());
                   });
  Spawn(server.Serve(stop));

  // A frame from a future (or corrupted) client: full-size header, wrong
  // version byte. The server must count + drop it — it cannot even trust
  // the call_id enough to reply — and keep serving.
  auto send_old = [](Endpoint& e, sim::EventLoop& loop) -> Task<> {
    std::vector<std::byte> frame;
    wire::Writer w(&frame);
    w.U8(kRpcWireVersion + 1);  // not ours
    w.U8(kRpcRequest);
    w.U64(77);                           // call_id
    w.U16(1);                            // method
    w.U8(kPriorityData);                 // priority
    w.U64(0);                            // deadline
    w.U64(0);                            // trace_id
    w.U64(0);                            // parent_span
    w.U64(static_cast<uint64_t>(loop.now()));  // sent_at
    w.Bytes(Msg("boo"));
    CXLPOOL_CHECK_OK(co_await e.Send(frame));
  };
  RunBlocking(loop_, send_old(c.end_a(), loop_));
  loop_.RunFor(50 * kMicrosecond);
  EXPECT_EQ(Count(1, "rpc_server.bad_version"), 1u);
  EXPECT_EQ(handler_calls, 0);
  EXPECT_EQ(server.calls_served(), 0u);

  // The serve loop survived: a well-formed call still lands.
  RpcClient client(c.end_a());
  auto call = [](RpcClient& cl, sim::EventLoop& loop) -> Task<bool> {
    auto r = co_await cl.Call(1, Msg("x"), loop.now() + kMillisecond);
    co_return r.ok();
  };
  EXPECT_TRUE(RunBlocking(loop_, call(client, loop_)));
  EXPECT_EQ(handler_calls, 1);
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
}

TEST_F(MsgTest, ClientRejectsBadVersionResponse) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;

  // A rogue responder: echoes the request's call_id back under an alien
  // wire version. The client must fail the call typed, not misparse.
  auto rogue = [](Endpoint& e, sim::EventLoop& loop) -> Task<> {
    std::vector<std::byte> req;
    CXLPOOL_CHECK_OK(co_await e.Recv(&req, loop.now() + kMillisecond));
    wire::Reader r(req);
    r.U8();  // version
    r.U8();  // kind
    uint64_t call_id = r.U64();
    std::vector<std::byte> resp;
    wire::Writer w(&resp);
    w.U8(kRpcWireVersion + 5);
    w.U8(kRpcResponse);
    w.U64(call_id);
    w.U16(1);
    CXLPOOL_CHECK_OK(co_await e.Send(resp));
  };
  Spawn(rogue(c.end_b(), loop_));

  RpcClient client(c.end_a());
  auto call = [](RpcClient& cl, sim::EventLoop& loop) -> Task<StatusCode> {
    auto r = co_await cl.Call(1, Msg("x"), loop.now() + kMillisecond);
    co_return r.ok() ? StatusCode::kOk : r.status().code();
  };
  EXPECT_EQ(RunBlocking(loop_, call(client, loop_)),
            StatusCode::kInvalidArgument);
}

// --- Deadline propagation ---

TEST_F(MsgTest, ExpiredRequestRefusedBeforeHandler) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  int handler_calls = 0;
  RpcServer server(c.end_b(),
                   [&handler_calls](uint16_t, std::span<const std::byte> req)
                       -> Task<Result<std::vector<std::byte>>> {
                     ++handler_calls;
                     co_return std::vector<std::byte>(req.begin(), req.end());
                   });
  Spawn(server.Serve(stop));
  RpcClient client(c.end_a());

  // op_deadline = "now" at origin: by the time the frame crosses the ring
  // it is already dead. The server must refuse at dequeue — the handler
  // (in production: the device BAR access) never runs for dead work.
  loop_.RunFor(10 * kMicrosecond);  // off t=0: deadline 0 means "none"
  auto call = [](RpcClient& cl, sim::EventLoop& loop) -> Task<StatusCode> {
    auto r = co_await cl.Call(1, Msg("x"), loop.now() + kMillisecond, {},
                              kPriorityData, /*op_deadline=*/loop.now());
    co_return r.ok() ? StatusCode::kOk : r.status().code();
  };
  EXPECT_EQ(RunBlocking(loop_, call(client, loop_)),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(handler_calls, 0);
  EXPECT_EQ(Count(1, "rpc_server.expired"), 1u);
  EXPECT_EQ(server.calls_served(), 0u);
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
}

// --- Priority and bounded client queues ---

namespace {
// Issues one call and appends `tag` to `order` when it completes.
Task<> TaggedCall(RpcClient& cl, sim::EventLoop& loop, uint8_t priority,
                  std::string tag, std::vector<std::string>& order,
                  std::vector<std::string>& failed) {
  auto r = co_await cl.Call(1, Msg("x"), loop.now() + 10 * kMillisecond, {},
                            priority);
  (r.ok() ? order : failed).push_back(std::move(tag));
}
}  // namespace

TEST_F(MsgTest, ControlPriorityJumpsDataQueue) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  RpcServer server(c.end_b(),
                   [this](uint16_t, std::span<const std::byte> req)
                       -> Task<Result<std::vector<std::byte>>> {
                     co_await sim::Delay(loop_, 5 * kMicrosecond);
                     co_return std::vector<std::byte>(req.begin(), req.end());
                   });
  Spawn(server.Serve(stop));
  RpcClient client(c.end_a());

  std::vector<std::string> order, failed;
  auto drive = [&](RpcClient& cl, sim::EventLoop& loop) -> Task<> {
    Spawn(TaggedCall(cl, loop, kPriorityData, "d1", order, failed));
    co_await sim::Delay(loop, 1 * kMicrosecond);  // d1 now in flight
    Spawn(TaggedCall(cl, loop, kPriorityData, "d2", order, failed));
    Spawn(TaggedCall(cl, loop, kPriorityData, "d3", order, failed));
    co_await sim::Delay(loop, 1 * kMicrosecond);  // d2, d3 queued
    Spawn(TaggedCall(cl, loop, kPriorityControl, "ctl", order, failed));
    co_return;
  };
  RunBlocking(loop_, drive(client, loop_));
  loop_.RunFor(kMillisecond);
  // The control call arrived last but runs right after the in-flight d1 —
  // ahead of both queued data calls.
  ASSERT_EQ(order.size(), 4u);
  EXPECT_TRUE(failed.empty());
  EXPECT_EQ(order[0], "d1");
  EXPECT_EQ(order[1], "ctl");
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
}

TEST_F(MsgTest, BoundedClientQueueRejectNew) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  RpcServer server(c.end_b(),
                   [this](uint16_t, std::span<const std::byte> req)
                       -> Task<Result<std::vector<std::byte>>> {
                     co_await sim::Delay(loop_, 5 * kMicrosecond);
                     co_return std::vector<std::byte>(req.begin(), req.end());
                   });
  Spawn(server.Serve(stop));
  RpcClient::Options opts;
  opts.max_pending = 1;
  RpcClient client(c.end_a(), opts);

  std::vector<StatusCode> codes(4, StatusCode::kOk);
  auto one = [&codes](RpcClient& cl, sim::EventLoop& loop, int i,
                      uint8_t prio) -> Task<> {
    auto r = co_await cl.Call(1, Msg("x"), loop.now() + 10 * kMillisecond, {},
                              prio);
    codes[static_cast<size_t>(i)] =
        r.ok() ? StatusCode::kOk : r.status().code();
  };
  auto drive = [&](RpcClient& cl, sim::EventLoop& loop) -> Task<> {
    Spawn(one(cl, loop, 0, kPriorityData));  // in flight
    co_await sim::Delay(loop, 1 * kMicrosecond);
    Spawn(one(cl, loop, 1, kPriorityData));  // fills the 1-deep queue
    Spawn(one(cl, loop, 2, kPriorityData));  // refused on arrival
    // Control is exempt from the bound: admitted even with the queue full.
    Spawn(one(cl, loop, 3, kPriorityControl));
    co_return;
  };
  RunBlocking(loop_, drive(client, loop_));
  loop_.RunFor(kMillisecond);
  EXPECT_EQ(codes[0], StatusCode::kOk);
  EXPECT_EQ(codes[1], StatusCode::kOk);
  EXPECT_EQ(codes[2], StatusCode::kOverloaded);
  EXPECT_EQ(codes[3], StatusCode::kOk);
  EXPECT_EQ(Count(0, "rpc_client.rejected"), 1u);
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
}

TEST_F(MsgTest, RingSendOverloadedPastFullWait) {
  Channel::Options copt;
  copt.slots = 4;
  copt.full_wait = 5 * kMicrosecond;
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1), copt);
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;

  // Nobody receives: the sender fills the ring, then the bounded wait
  // converts "stuck forever" into a typed kOverloaded push-back.
  auto t = [](Endpoint& e, sim::EventLoop& loop) -> Task<StatusCode> {
    for (;;) {
      Status st = co_await e.Send(Msg("x"));
      if (!st.ok()) {
        co_return st.code();
      }
    }
  };
  Nanos start = loop_.now();
  EXPECT_EQ(RunBlocking(loop_, t(c.end_a(), loop_)), StatusCode::kOverloaded);
  EXPECT_GE(loop_.now() - start, 5 * kMicrosecond);
}

// --- AdmissionController ---

TEST(AdmissionControllerTest, CoDelShedsOnlyAfterSustainedDelay) {
  AdmissionController::Options o;
  o.target = 5 * kMicrosecond;
  o.interval = 100 * kMicrosecond;
  obs::Registry registry;
  AdmissionController ac(obs::Scope(registry), o);
  Nanos t = 1 * kMillisecond;
  Nanos high = 20 * kMicrosecond;

  // A burst above target sheds nothing until it persists a full interval.
  EXPECT_FALSE(ac.ShouldShed(high, kPriorityData, t));  // arms the interval
  EXPECT_FALSE(ac.ShouldShed(high, kPriorityData, t + 50 * kMicrosecond));
  EXPECT_TRUE(ac.ShouldShed(high, kPriorityData, t + 110 * kMicrosecond));
  EXPECT_EQ(CounterValue(registry, "admission.shed"), 1u);

  // In the dropping state the cadence is interval/sqrt(drop_count): the
  // next shed comes only after that gap, then the gaps shrink.
  Nanos t2 = t + 110 * kMicrosecond;
  EXPECT_FALSE(ac.ShouldShed(high, kPriorityData, t2 + 10 * kMicrosecond));
  EXPECT_TRUE(ac.ShouldShed(high, kPriorityData, t2 + 101 * kMicrosecond));
  EXPECT_EQ(CounterValue(registry, "admission.shed"), 2u);

  // One sojourn below target resets everything.
  EXPECT_FALSE(
      ac.ShouldShed(1 * kMicrosecond, kPriorityData, t2 + 200 * kMicrosecond));
  EXPECT_FALSE(ac.ShouldShed(high, kPriorityData, t2 + 201 * kMicrosecond));
  EXPECT_EQ(CounterValue(registry, "admission.shed"), 2u);
}

TEST(AdmissionControllerTest, ControlIsNeverShedAndNeverDrivesState) {
  AdmissionController::Options o;
  o.target = 5 * kMicrosecond;
  o.interval = 100 * kMicrosecond;
  obs::Registry registry;
  AdmissionController ac(obs::Scope(registry), o);
  // Hammer it with control-priority sojourns far above target, far past
  // the interval: no shed, and the CoDel state stays disarmed.
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(ac.ShouldShed(kMillisecond, kPriorityControl,
                               static_cast<Nanos>(i) * kMillisecond));
  }
  EXPECT_EQ(CounterValue(registry, "admission.shed"), 0u);
  // The very next data sojourn above target only ARMS the interval — the
  // control storm left no armed state behind.
  EXPECT_FALSE(ac.ShouldShed(kMillisecond, kPriorityData, 60 * kMillisecond));
  EXPECT_EQ(CounterValue(registry, "admission.shed"), 0u);
}

TEST(AdmissionControllerTest, InflightBound) {
  AdmissionController::Options o;
  o.max_inflight = 2;
  obs::Registry registry;
  AdmissionController ac(obs::Scope(registry), o);
  EXPECT_TRUE(ac.TryEnterServe());
  EXPECT_TRUE(ac.TryEnterServe());
  EXPECT_FALSE(ac.TryEnterServe());
  EXPECT_EQ(CounterValue(registry, "admission.inflight_rejects"), 1u);
  ac.ExitServe();
  EXPECT_TRUE(ac.TryEnterServe());
  EXPECT_EQ(ac.inflight(), 2u);

  AdmissionController unlimited{obs::Scope(registry, {{"controller", "unlimited"}})};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(unlimited.TryEnterServe());
  }
}

// --- CircuitBreaker ---

TEST(CircuitBreakerTest, TripOpenHalfOpenClose) {
  CircuitBreaker::Options o;
  o.failure_threshold = 3;
  o.open_duration = 100 * kMicrosecond;
  o.half_open_successes = 2;
  obs::Registry registry;
  CircuitBreaker cb(obs::Scope(registry), o);
  int opens_seen = 0;
  cb.OnOpen([&opens_seen] { ++opens_seen; });

  Nanos t = 1 * kMillisecond;
  cb.RecordFailure(t);
  cb.RecordFailure(t);
  EXPECT_EQ(cb.state(t), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.Allow(t));
  cb.RecordFailure(t);  // third consecutive: trip
  EXPECT_EQ(cb.state(t), CircuitBreaker::State::kOpen);
  EXPECT_EQ(opens_seen, 1);
  EXPECT_FALSE(cb.Allow(t + 50 * kMicrosecond));
  EXPECT_EQ(CounterValue(registry, "breaker.fast_fails"), 1u);

  // After open_duration the breaker half-opens and probes flow again.
  Nanos probe_t = t + 150 * kMicrosecond;
  EXPECT_TRUE(cb.Allow(probe_t));
  EXPECT_EQ(cb.state(probe_t), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(CounterValue(registry, "breaker.probes"), 1u);
  cb.RecordSuccess(probe_t);
  EXPECT_EQ(cb.state(probe_t), CircuitBreaker::State::kHalfOpen);
  cb.RecordSuccess(probe_t + kMicrosecond);  // second success: close
  EXPECT_EQ(cb.state(probe_t + kMicrosecond), CircuitBreaker::State::kClosed);
  EXPECT_EQ(CounterValue(registry, "breaker.opens"), 1u);

  // An intervening success in closed state resets the failure streak.
  cb.RecordFailure(probe_t + 2 * kMicrosecond);
  cb.RecordFailure(probe_t + 3 * kMicrosecond);
  cb.RecordSuccess(probe_t + 4 * kMicrosecond);
  cb.RecordFailure(probe_t + 5 * kMicrosecond);
  cb.RecordFailure(probe_t + 6 * kMicrosecond);
  EXPECT_EQ(cb.state(probe_t + 6 * kMicrosecond),
            CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensImmediately) {
  CircuitBreaker::Options o;
  o.failure_threshold = 2;
  o.open_duration = 100 * kMicrosecond;
  obs::Registry registry;
  CircuitBreaker cb(obs::Scope(registry), o);
  Nanos t = 0;
  cb.RecordFailure(t);
  cb.RecordFailure(t);
  EXPECT_EQ(cb.state(t), CircuitBreaker::State::kOpen);
  Nanos probe_t = t + 100 * kMicrosecond;
  EXPECT_TRUE(cb.Allow(probe_t));  // half-open probe
  cb.RecordFailure(probe_t);       // probe failed: straight back to open
  EXPECT_EQ(cb.state(probe_t), CircuitBreaker::State::kOpen);
  EXPECT_EQ(CounterValue(registry, "breaker.opens"), 2u);
  EXPECT_FALSE(cb.Allow(probe_t + kMicrosecond));
}

TEST(CircuitBreakerTest, OverloadedIsNotABreakerFailure) {
  // A peer answering kOverloaded is alive — only transport silence
  // (kDeadlineExceeded) or a dead path (kUnavailable) count.
  EXPECT_FALSE(CircuitBreaker::IsBreakerFailure(Overloaded("busy")));
  EXPECT_FALSE(CircuitBreaker::IsBreakerFailure(NotFound("app error")));
  EXPECT_TRUE(CircuitBreaker::IsBreakerFailure(DeadlineExceeded("silence")));
  EXPECT_TRUE(CircuitBreaker::IsBreakerFailure(Unavailable("dead path")));
}

// --- Retry budget ---

TEST_F(MsgTest, RetryBudgetCapsAmplification) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  // Dead path (no server): every call would burn max_attempts - 1
  // retries. The token bucket caps total retries at ratio * calls + burst.
  RetryPolicy::Options ro;
  ro.max_attempts = 4;
  ro.initial_backoff = 2 * kMicrosecond;
  ro.max_backoff = 4 * kMicrosecond;
  ro.budget_ratio = 0.1;
  ro.budget_burst = 2.0;
  RetryPolicy policy(PolicyScope("policy"), ro);
  RpcClient client(c.end_a());

  // Dead-but-draining peer: consumes frames, never replies — otherwise the
  // abandoned requests fill the 64-slot ring and senders wedge on it.
  sim::StopToken stop;
  auto sink = [](Endpoint& e, sim::EventLoop& loop, sim::StopToken& st) -> Task<> {
    std::vector<std::byte> buf;
    while (!st.stopped()) {
      (void)co_await e.Recv(&buf, loop.now() + 50 * kMicrosecond);
    }
  };
  Spawn(sink(c.end_b(), loop_, stop));

  constexpr int kCalls = 30;
  auto drive = [](RetryPolicy& p, RpcClient& cl, sim::EventLoop& loop) -> Task<> {
    for (int i = 0; i < kCalls; ++i) {
      (void)co_await p.Call(cl, 1, Msg("x"), 5 * kMicrosecond, loop);
    }
  };
  RunBlocking(loop_, drive(policy, client, loop_));
  EXPECT_EQ(PolicyCount("policy", "calls"), static_cast<uint64_t>(kCalls));
  EXPECT_GT(PolicyCount("policy", "retries"), 0u);
  EXPECT_LE(static_cast<double>(PolicyCount("policy", "retries")),
            ro.budget_ratio * kCalls + ro.budget_burst);
  EXPECT_GT(PolicyCount("policy", "budget_denied"), 0u);
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
}

TEST_F(MsgTest, TimeoutEscalationCutShortByBudget) {
  // A server slow enough (10us/request) that only the THIRD escalated
  // attempt (2us -> 8us -> 32us) can land — it must also outwait the
  // backlog the abandoned attempts left behind (~30us total). With one
  // retry token the escalation is cut off mid-ladder and the call fails;
  // with a full bucket it succeeds. Retry budgets bound amplification even
  // when escalation "would have worked eventually".
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  RpcServer server(c.end_b(),
                   [this](uint16_t, std::span<const std::byte> req)
                       -> Task<Result<std::vector<std::byte>>> {
                     co_await sim::Delay(loop_, 10 * kMicrosecond);
                     co_return std::vector<std::byte>(req.begin(), req.end());
                   });
  Spawn(server.Serve(stop));
  RpcClient client(c.end_a());

  RetryPolicy::Options ro;
  ro.max_attempts = 3;
  ro.timeout_multiplier = 4.0;
  ro.initial_backoff = 1 * kMicrosecond;
  ro.max_backoff = 2 * kMicrosecond;
  ro.budget_ratio = 0.01;
  ro.budget_burst = 1.0;  // one retry token: dies between attempts 2 and 3
  RetryPolicy starved(PolicyScope("starved"), ro);
  auto call = [](RetryPolicy& p, RpcClient& cl, sim::EventLoop& loop) -> Task<bool> {
    auto r = co_await p.Call(cl, 1, Msg("x"), 2 * kMicrosecond, loop);
    co_return r.ok();
  };
  EXPECT_FALSE(RunBlocking(loop_, call(starved, client, loop_)));
  EXPECT_EQ(PolicyCount("starved", "retries"), 1u);
  EXPECT_EQ(PolicyCount("starved", "budget_denied"), 1u);

  loop_.RunFor(100 * kMicrosecond);  // let the slow server drain
  RetryPolicy::Options full = ro;
  full.budget_burst = 10.0;
  RetryPolicy healthy(PolicyScope("healthy"), full);
  EXPECT_TRUE(RunBlocking(loop_, call(healthy, client, loop_)));
  EXPECT_EQ(PolicyCount("healthy", "retries"), 2u);
  EXPECT_EQ(PolicyCount("healthy", "budget_denied"), 0u);
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
}

TEST_F(MsgTest, RetryBudgetRefillIsDeterministic) {
  // Two identical policies driven through identical seeded runs must agree
  // on every stat and on the residual token count — the budget arithmetic
  // is part of the simulation's determinism contract.
  auto ch1 = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  auto ch2 = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch1.ok());
  ASSERT_TRUE(ch2.ok());
  RetryPolicy::Options ro;
  ro.max_attempts = 3;
  ro.initial_backoff = 2 * kMicrosecond;
  ro.budget_ratio = 0.25;
  ro.budget_burst = 3.0;
  ro.seed = 77;
  RetryPolicy a(PolicyScope("a"), ro), b(PolicyScope("b"), ro);
  RpcClient ca((*ch1)->end_a()), cb((*ch2)->end_a());

  auto drive = [](RetryPolicy& p, RpcClient& cl, sim::EventLoop& loop) -> Task<> {
    for (int i = 0; i < 12; ++i) {
      (void)co_await p.Call(cl, 1, Msg("x"), 5 * kMicrosecond, loop);
    }
  };
  // Interleave-free: run A fully, then B — both see dead channels and the
  // same per-call timing structure.
  RunBlocking(loop_, drive(a, ca, loop_));
  RunBlocking(loop_, drive(b, cb, loop_));
  EXPECT_EQ(PolicyCount("a", "calls"), PolicyCount("b", "calls"));
  EXPECT_EQ(PolicyCount("a", "retries"), PolicyCount("b", "retries"));
  EXPECT_EQ(PolicyCount("a", "budget_denied"), PolicyCount("b", "budget_denied"));
  EXPECT_EQ(PolicyCount("a", "exhausted"), PolicyCount("b", "exhausted"));
  EXPECT_DOUBLE_EQ(a.budget_tokens(), b.budget_tokens());
}

// --- Batched ring transfer ---

TEST_F(MsgTest, SendBatchPreservesOrderAndCountsStats) {
  RingConfig rc = MakeRing();
  RingSender tx(pod_.host(0), rc);
  RingReceiver rx(pod_.host(1), rc);

  auto t = [](RingSender& s, RingReceiver& r,
              sim::EventLoop& loop) -> Task<std::vector<std::string>> {
    std::vector<std::vector<std::byte>> msgs;
    for (int i = 0; i < 6; ++i) {
      msgs.push_back(Msg(std::string("m") + static_cast<char>('0' + i)));
    }
    msgs.push_back(std::vector<std::byte>(200, std::byte{0x7f}));  // 4 slots
    std::vector<std::span<const std::byte>> views(msgs.begin(), msgs.end());
    CXLPOOL_CHECK_OK(co_await s.SendBatch(views));
    std::vector<std::string> got;
    for (size_t i = 0; i < msgs.size(); ++i) {
      std::vector<std::byte> m;
      CXLPOOL_CHECK_OK(co_await r.Recv(&m, loop.now() + kMillisecond));
      got.push_back(AsString(m));
    }
    co_return got;
  };
  auto got = RunBlocking(loop_, t(tx, rx, loop_));
  ASSERT_EQ(got.size(), 7u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)],
              std::string("m") + static_cast<char>('0' + i));
  }
  EXPECT_EQ(got[6].size(), 200u);  // the multi-slot straggler, intact
  EXPECT_EQ(Count(0, "ring.batch_sends"), 1u);
  EXPECT_EQ(Count(0, "ring.batched_messages"), 7u);
  // Write-combining: far fewer nt-store issues than slots written.
  EXPECT_GE(Count(0, "ring.nt_store_runs"), 1u);
  EXPECT_LT(Count(0, "ring.nt_store_runs"), 10u);
  EXPECT_LE(Count(0, "ring.cursor_refreshes"), 1u);
  EXPECT_EQ(rx.messages_received(), 7u);
  // Burst drain: the receiver served some slots from its cached window.
  EXPECT_GE(Count(1, "ring.window_hits"), 1u);
}

// --- MPSC submission front ---

TEST_F(MsgTest, MpscSubmitterFairnessUnderSaturation) {
  RingConfig rc = MakeRing();
  RingSender tx(pod_.host(0), rc);
  RingReceiver rx(pod_.host(1), rc);
  MpscSubmitter sub(tx);
  constexpr uint32_t kProducers = 4;
  constexpr uint32_t kPer = 25;

  auto producer = [](MpscSubmitter& s, uint32_t p) -> Task<> {
    for (uint32_t i = 0; i < kPer; ++i) {
      std::vector<std::byte> m;
      wire::Writer w(&m);
      w.U32(p);
      w.U32(i);
      CXLPOOL_CHECK_OK(co_await s.Submit(m));
    }
  };
  std::vector<std::pair<uint32_t, uint32_t>> got;
  auto consumer = [&got](RingReceiver& r, sim::EventLoop& loop) -> Task<> {
    for (uint32_t i = 0; i < kProducers * kPer; ++i) {
      std::vector<std::byte> m;
      CXLPOOL_CHECK_OK(co_await r.Recv(&m, loop.now() + 10 * kMillisecond));
      wire::Reader rd(m);
      uint32_t p = rd.U32();
      uint32_t seq = rd.U32();
      got.emplace_back(p, seq);
    }
  };
  for (uint32_t p = 0; p < kProducers; ++p) {
    Spawn(producer(sub, p));
  }
  Spawn(consumer(rx, loop_));
  loop_.Run();

  ASSERT_EQ(got.size(), static_cast<size_t>(kProducers * kPer));
  // Per-producer FIFO survives the shared staging queue.
  std::vector<uint32_t> next(kProducers, 0);
  for (const auto& [p, seq] : got) {
    ASSERT_LT(p, kProducers);
    EXPECT_EQ(seq, next[p]);
    ++next[p];
  }
  for (uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[p], kPer);  // nobody starved
  }
  // Fairness under saturation: early output interleaves producers instead
  // of draining one producer's whole backlog first.
  std::set<uint32_t> early;
  for (size_t i = 0; i < 16 && i < got.size(); ++i) {
    early.insert(got[i].first);
  }
  EXPECT_GE(early.size(), 2u);
  EXPECT_EQ(Count(0, "submit.submitted"), static_cast<uint64_t>(kProducers * kPer));
  const sim::Histogram* batches =
      pod_.metrics().FindHistogram("submit.batch_frames", HostLabels(0));
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(std::llround(batches->mean() * static_cast<double>(batches->count())),
            kProducers * kPer);           // every frame rode some batch
  EXPECT_GE(batches->max(), 2);           // real folding happened
  EXPECT_LE(batches->max(),               // and respected the watermark
            static_cast<int64_t>(MpscSubmitter::kWatermark));
  EXPECT_GE(Count(0, "submit.handoffs"), 1u);  // no head-of-line combiner
  EXPECT_GE(Count(0, "ring.batch_sends"), 1u);
}

// --- Pipelined RPC client ---

namespace {
// Reads the call_id out of a request frame.
uint64_t RequestCallId(std::span<const std::byte> frame) {
  wire::Reader r(frame);
  r.U8();  // version
  r.U8();  // kind
  return r.U64();
}
}  // namespace

TEST_F(MsgTest, PipelinedResponsesMatchOutOfOrder) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;

  // Hand-rolled responder: takes both requests, then replies NEWEST first.
  auto responder = [](Endpoint& e, sim::EventLoop& loop) -> Task<> {
    std::vector<std::pair<uint64_t, std::vector<std::byte>>> reqs;
    for (int i = 0; i < 2; ++i) {
      std::vector<std::byte> f;
      CXLPOOL_CHECK_OK(co_await e.Recv(&f, loop.now() + kMillisecond));
      wire::Reader r(f);
      r.U8();  // version
      r.U8();  // kind
      uint64_t id = r.U64();
      r.U16();  // method
      r.U8();   // priority
      r.U64();  // op deadline
      r.U64();  // trace id
      r.U64();  // parent span
      r.U64();  // sent_at
      auto rest = r.Rest();
      reqs.emplace_back(id, std::vector<std::byte>(rest.begin(), rest.end()));
    }
    for (int i = 1; i >= 0; --i) {
      std::vector<std::byte> resp;
      wire::Writer w(&resp);
      w.U8(kRpcWireVersion);
      w.U8(kRpcResponse);
      w.U64(reqs[static_cast<size_t>(i)].first);
      w.U16(1);
      w.Bytes(reqs[static_cast<size_t>(i)].second);
      CXLPOOL_CHECK_OK(co_await e.Send(resp));
    }
  };

  RpcClient::Options opts;
  opts.max_inflight = 2;
  RpcClient client(c.end_a(), opts);
  std::vector<std::string> done_order;
  auto one = [&done_order](RpcClient& cl, sim::EventLoop& loop,
                           std::string tag) -> Task<> {
    auto r = co_await cl.Call(1, Msg(tag), loop.now() + kMillisecond);
    CXLPOOL_CHECK(r.ok());
    // Matched by call_id, not by arrival order: each echo is its own.
    CXLPOOL_CHECK(AsString(*r) == tag);
    done_order.push_back(std::move(tag));
  };
  Spawn(one(client, loop_, "first"));
  Spawn(one(client, loop_, "second"));
  Spawn(responder(c.end_b(), loop_));
  loop_.Run();
  ASSERT_EQ(done_order.size(), 2u);
  EXPECT_EQ(done_order[0], "second");  // completed out of order...
  EXPECT_EQ(done_order[1], "first");   // ...and both landed correctly
  EXPECT_EQ(Count(0, "rpc_client.stale_responses"), 0u);
  EXPECT_EQ(client.inflight(), 0u);
}

TEST_F(MsgTest, PipelinedMidFlightOverloadExpiryAndStale) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;

  // Responder script: refuse call 2 with kOverloaded while call 1 stays in
  // flight; let call 1 expire client-side; send its response too late (a
  // stale); then serve one more call normally.
  auto responder = [](Endpoint& e, sim::EventLoop& loop) -> Task<> {
    std::vector<std::byte> f1, f2;
    CXLPOOL_CHECK_OK(co_await e.Recv(&f1, loop.now() + kMillisecond));
    CXLPOOL_CHECK_OK(co_await e.Recv(&f2, loop.now() + kMillisecond));
    uint64_t id1 = RequestCallId(f1);
    uint64_t id2 = RequestCallId(f2);
    std::vector<std::byte> busy;
    wire::Writer wb(&busy);
    wb.U8(kRpcWireVersion);
    wb.U8(kRpcErrorResponse);
    wb.U64(id2);
    wb.U16(static_cast<uint16_t>(StatusCode::kOverloaded));
    CXLPOOL_CHECK_OK(co_await e.Send(busy));
    co_await sim::Delay(loop, 60 * kMicrosecond);  // outlive call 1's wait
    std::vector<std::byte> late;
    wire::Writer wl(&late);
    wl.U8(kRpcWireVersion);
    wl.U8(kRpcResponse);
    wl.U64(id1);
    wl.U16(1);
    CXLPOOL_CHECK_OK(co_await e.Send(late));
    std::vector<std::byte> f3;
    CXLPOOL_CHECK_OK(co_await e.Recv(&f3, loop.now() + kMillisecond));
    std::vector<std::byte> ok;
    wire::Writer wo(&ok);
    wo.U8(kRpcWireVersion);
    wo.U8(kRpcResponse);
    wo.U64(RequestCallId(f3));
    wo.U16(1);
    wo.Bytes(Msg("fresh"));
    CXLPOOL_CHECK_OK(co_await e.Send(ok));
  };

  RpcClient::Options opts;
  opts.max_inflight = 4;
  RpcClient client(c.end_a(), opts);
  StatusCode code1 = StatusCode::kOk;
  StatusCode code2 = StatusCode::kOk;
  auto call1 = [&code1](RpcClient& cl, sim::EventLoop& loop) -> Task<> {
    auto r = co_await cl.Call(1, Msg("slow"), loop.now() + 30 * kMicrosecond);
    code1 = r.ok() ? StatusCode::kOk : r.status().code();
  };
  auto call2 = [&code2](RpcClient& cl, sim::EventLoop& loop) -> Task<> {
    auto r = co_await cl.Call(1, Msg("busy"), loop.now() + kMillisecond);
    code2 = r.ok() ? StatusCode::kOk : r.status().code();
  };
  Spawn(call1(client, loop_));
  Spawn(call2(client, loop_));
  Spawn(responder(c.end_b(), loop_));
  loop_.RunFor(200 * kMicrosecond);
  EXPECT_EQ(code1, StatusCode::kDeadlineExceeded);  // expired mid-flight
  EXPECT_EQ(code2, StatusCode::kOverloaded);        // refused mid-flight
  EXPECT_EQ(Count(0, "rpc_client.expired_in_flight"), 1u);
  EXPECT_EQ(Count(0, "rpc_client.stale_responses"), 0u);  // late frame still queued

  // The next call's pump drains the late response first: counted stale,
  // never misdelivered, and the fresh call still completes.
  auto call3 = [](RpcClient& cl, sim::EventLoop& loop) -> Task<std::string> {
    auto r = co_await cl.Call(1, Msg("again"), loop.now() + kMillisecond);
    CXLPOOL_CHECK(r.ok());
    co_return AsString(*r);
  };
  EXPECT_EQ(RunBlocking(loop_, call3(client, loop_)), "fresh");
  EXPECT_EQ(Count(0, "rpc_client.stale_responses"), 1u);
  EXPECT_EQ(client.inflight(), 0u);
}

// --- Fault plane: directed partitions, asymmetric and lossy links ---

TEST(FaultPlaneTest, DirectedCutAndPartitionBookkeeping) {
  obs::Registry registry;
  netsim::FaultPlane plane(1, obs::Scope(registry));
  EXPECT_FALSE(plane.active());
  EXPECT_EQ(plane.Judge(HostId(0), HostId(1)).verdict,
            netsim::FaultPlane::Verdict::kDeliver);

  plane.Cut(HostId(0), HostId(1));
  EXPECT_TRUE(plane.active());
  EXPECT_TRUE(plane.IsCut(HostId(0), HostId(1)));
  EXPECT_FALSE(plane.IsCut(HostId(1), HostId(0)));  // directed
  EXPECT_EQ(plane.Judge(HostId(0), HostId(1)).verdict,
            netsim::FaultPlane::Verdict::kDrop);
  EXPECT_EQ(plane.Judge(HostId(1), HostId(0)).verdict,
            netsim::FaultPlane::Verdict::kDeliver);
  plane.Heal(HostId(0), HostId(1));
  EXPECT_FALSE(plane.active());  // clean edges are garbage-collected

  const HostId a[] = {HostId(0), HostId(1)};
  const HostId b[] = {HostId(2)};
  plane.Partition(a, b);
  EXPECT_TRUE(plane.IsCut(HostId(0), HostId(2)));
  EXPECT_TRUE(plane.IsCut(HostId(2), HostId(0)));
  EXPECT_TRUE(plane.IsCut(HostId(1), HostId(2)));
  EXPECT_FALSE(plane.IsCut(HostId(0), HostId(1)));  // same side untouched
  plane.HealPartition(a, b);
  EXPECT_FALSE(plane.active());
  EXPECT_GE(CounterValue(registry, "fault_plane.cuts"), 5u);
  EXPECT_GE(CounterValue(registry, "fault_plane.heals"), 5u);
}

TEST(FaultPlaneTest, LossyVerdictsAreSeedDeterministic) {
  netsim::FaultPlane::LinkState lossy;
  lossy.drop_p = 0.3;
  lossy.dup_p = 0.2;
  lossy.delay_p = 0.2;
  lossy.delay_min = 5 * kMicrosecond;
  lossy.delay_max = 40 * kMicrosecond;

  auto run = [&lossy](uint64_t seed) {
    obs::Registry registry;
    netsim::FaultPlane plane(seed, obs::Scope(registry));
    plane.SetLossy(HostId(0), HostId(1), lossy);
    std::vector<std::pair<int, Nanos>> fates;
    for (int i = 0; i < 500; ++i) {
      auto fate = plane.Judge(HostId(0), HostId(1));
      fates.emplace_back(static_cast<int>(fate.verdict), fate.delay);
    }
    return fates;
  };
  auto first = run(42);
  EXPECT_EQ(first, run(42));   // same seed, same storm
  EXPECT_NE(first, run(43));   // different seed, different storm

  // All four verdicts occurred and delays stay inside the window.
  std::set<int> seen;
  for (const auto& [v, d] : first) {
    seen.insert(v);
    if (v == static_cast<int>(netsim::FaultPlane::Verdict::kDelay)) {
      EXPECT_GE(d, 5 * kMicrosecond);
      EXPECT_LE(d, 40 * kMicrosecond);
    }
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST_F(MsgTest, RingCutDropsFramesUntilHealed) {
  netsim::FaultPlane plane(7, obs::Scope(pod_.metrics(), {{"plane", "test"}}));
  RingConfig rc = MakeRing();
  rc.fault_plane = &plane;
  rc.src_host = HostId(0);
  rc.dst_host = HostId(1);
  RingSender tx(pod_.host(0), rc);
  RingReceiver rx(pod_.host(1), rc);

  plane.Cut(HostId(0), HostId(1));
  auto send_recv = [](RingSender& s, RingReceiver& r,
                      sim::EventLoop& loop) -> Task<Status> {
    CXLPOOL_CHECK_OK(co_await s.Send(Msg("gone")));
    std::vector<std::byte> got;
    co_return co_await r.Recv(&got, loop.now() + 100 * kMicrosecond);
  };
  // The send itself succeeds (posted into the ring); the receiver's
  // consume-then-judge path eats the frame.
  EXPECT_EQ(RunBlocking(loop_, send_recv(tx, rx, loop_)).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Count(1, "ring.faults_dropped"), 1u);

  plane.Heal(HostId(0), HostId(1));
  auto ok_path = [](RingSender& s, RingReceiver& r,
                    sim::EventLoop& loop) -> Task<std::string> {
    CXLPOOL_CHECK_OK(co_await s.Send(Msg("back")));
    std::vector<std::byte> got;
    CXLPOOL_CHECK_OK(co_await r.Recv(&got, loop.now() + kMillisecond));
    co_return AsString(got);
  };
  EXPECT_EQ(RunBlocking(loop_, ok_path(tx, rx, loop_)), "back");
}

TEST_F(MsgTest, RingDuplicateDeliversFrameTwice) {
  netsim::FaultPlane plane(7, obs::Scope(pod_.metrics(), {{"plane", "test"}}));
  RingConfig rc = MakeRing();
  rc.fault_plane = &plane;
  rc.src_host = HostId(0);
  rc.dst_host = HostId(1);
  RingSender tx(pod_.host(0), rc);
  RingReceiver rx(pod_.host(1), rc);

  netsim::FaultPlane::LinkState dup_always;
  dup_always.dup_p = 1.0;
  plane.SetLossy(HostId(0), HostId(1), dup_always);

  auto t = [](RingSender& s, RingReceiver& r,
              sim::EventLoop& loop) -> Task<std::pair<std::string, std::string>> {
    CXLPOOL_CHECK_OK(co_await s.Send(Msg("echo")));
    std::vector<std::byte> a, b;
    CXLPOOL_CHECK_OK(co_await r.Recv(&a, loop.now() + kMillisecond));
    CXLPOOL_CHECK_OK(co_await r.Recv(&b, loop.now() + kMillisecond));
    co_return std::make_pair(AsString(a), AsString(b));
  };
  auto [a, b] = RunBlocking(loop_, t(tx, rx, loop_));
  EXPECT_EQ(a, "echo");
  EXPECT_EQ(b, "echo");
  EXPECT_EQ(Count(1, "ring.faults_duplicated"), 1u);
}

TEST_F(MsgTest, RingDelayHoldsFrameForConfiguredWindow) {
  netsim::FaultPlane plane(7, obs::Scope(pod_.metrics(), {{"plane", "test"}}));
  RingConfig rc = MakeRing();
  rc.fault_plane = &plane;
  rc.src_host = HostId(0);
  rc.dst_host = HostId(1);
  RingSender tx(pod_.host(0), rc);
  RingReceiver rx(pod_.host(1), rc);

  netsim::FaultPlane::LinkState delay_always;
  delay_always.delay_p = 1.0;
  delay_always.delay_min = 30 * kMicrosecond;
  delay_always.delay_max = 30 * kMicrosecond;
  plane.SetLossy(HostId(0), HostId(1), delay_always);

  auto t = [](RingSender& s, RingReceiver& r,
              sim::EventLoop& loop) -> Task<Nanos> {
    Nanos sent_at = loop.now();
    CXLPOOL_CHECK_OK(co_await s.Send(Msg("late")));
    std::vector<std::byte> got;
    CXLPOOL_CHECK_OK(co_await r.Recv(&got, loop.now() + kMillisecond));
    co_return loop.now() - sent_at;
  };
  Nanos elapsed = RunBlocking(loop_, t(tx, rx, loop_));
  EXPECT_GE(elapsed, 30 * kMicrosecond);
  EXPECT_EQ(Count(1, "ring.faults_delayed"), 1u);
}

// A storm of seeded garbage frames — random lengths, random bytes, and
// truncated-but-versioned runts — must never kill the serve loop or reach
// the handler; a well-formed call afterwards still lands.
TEST_F(MsgTest, RpcServerSurvivesGarbageFrameStorm) {
  auto ch = Channel::Create(pod_.pool(), pod_.host(0), pod_.host(1));
  ASSERT_TRUE(ch.ok());
  Channel& c = **ch;
  sim::StopToken stop;
  int handler_calls = 0;
  RpcServer server(c.end_b(),
                   [&handler_calls](uint16_t, std::span<const std::byte> req)
                       -> Task<Result<std::vector<std::byte>>> {
                     ++handler_calls;
                     co_return std::vector<std::byte>(req.begin(), req.end());
                   });
  Spawn(server.Serve(stop));

  auto storm = [](Endpoint& e) -> Task<> {
    sim::Rng rng(0xBADF00D);
    for (int i = 0; i < 64; ++i) {
      std::vector<std::byte> frame(
          static_cast<size_t>(rng.UniformInt(1, 48)));
      for (std::byte& byt : frame) {
        byt = static_cast<std::byte>(rng.NextU32() & 0xff);
      }
      if (i % 4 == 0) {
        frame[0] = std::byte{kRpcWireVersion};  // versioned runt/garbage
      }
      CXLPOOL_CHECK_OK(co_await e.Send(frame));
    }
    co_return;
  };
  RunBlocking(loop_, storm(c.end_a()));
  loop_.RunFor(200 * kMicrosecond);
  EXPECT_EQ(handler_calls, 0);

  RpcClient client(c.end_a());
  auto call = [](RpcClient& cl, sim::EventLoop& loop) -> Task<bool> {
    auto r = co_await cl.Call(1, Msg("still-alive"), loop.now() + kMillisecond);
    co_return r.ok();
  };
  EXPECT_TRUE(RunBlocking(loop_, call(client, loop_)));
  EXPECT_EQ(handler_calls, 1);
  stop.Stop();
  loop_.RunFor(100 * kMicrosecond);
}

}  // namespace
}  // namespace cxlpool::msg
