// KV subsystem tests: wire codec hardening (truncations and seeded bit
// flips must produce typed errors, never a crash — the PR 9 fuzz
// discipline), store semantics (LRU overflow to SSD, hydration, typed
// exhaustion, poison handling), and the node end to end over UDP.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/core/rack.h"
#include "src/cxl/pod.h"
#include "src/kv/loadgen.h"
#include "src/kv/node.h"
#include "src/kv/store.h"
#include "src/kv/wire.h"
#include "src/sim/random.h"
#include "src/sim/task.h"
#include "src/stack/buffer_pool.h"
#include "src/stack/udp.h"
#include "tests/test_metrics.h"

namespace cxlpool::kv {
namespace {

using core::DeviceType;
using core::Rack;
using core::RackConfig;
using core::VirtualNic;
using core::VirtualSsd;
using sim::RunBlocking;
using sim::Spawn;
using sim::Task;
using stack::BufferPool;
using stack::Placement;
using stack::UdpSocket;
using stack::UdpStack;

std::vector<std::byte> Bytes(std::string_view s) {
  std::vector<std::byte> out(s.size());
  if (!s.empty()) {
    std::memcpy(out.data(), s.data(), s.size());
  }
  return out;
}

std::string AsString(std::span<const std::byte> b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

Request MakeSet(std::string key, std::string value) {
  Request req;
  req.opcode = Opcode::kSet;
  req.client_id = 7;
  req.seq = 42;
  req.deadline = 123456789;
  req.key = std::move(key);
  req.value = Bytes(value);
  return req;
}

// --- Wire codec ---

TEST(KvWireTest, RequestRoundTrip) {
  Request req = MakeSet("user:1234", "the quick brown fox");
  auto frame = EncodeRequest(req);
  auto dec = DecodeRequest(frame);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_EQ(dec->opcode, Opcode::kSet);
  EXPECT_EQ(dec->client_id, 7u);
  EXPECT_EQ(dec->seq, 42u);
  EXPECT_EQ(dec->deadline, 123456789);
  EXPECT_EQ(dec->key, "user:1234");
  EXPECT_EQ(AsString(dec->value), "the quick brown fox");
}

TEST(KvWireTest, ResponseRoundTrip) {
  Response rsp;
  rsp.opcode = Opcode::kGet;
  rsp.status = WireStatus::kOk;
  rsp.origin = Origin::kSsd;
  rsp.client_id = 9;
  rsp.seq = 1000;
  rsp.value = Bytes("hydrated");
  auto frame = EncodeResponse(rsp);
  auto dec = DecodeResponse(frame);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_EQ(dec->opcode, Opcode::kGet);
  EXPECT_EQ(dec->status, WireStatus::kOk);
  EXPECT_EQ(dec->origin, Origin::kSsd);
  EXPECT_EQ(dec->seq, 1000u);
  EXPECT_EQ(AsString(dec->value), "hydrated");
}

// Every truncation point of a valid frame must yield a typed error — a
// length-check miss would CHECK-fail inside wire::Reader and crash.
TEST(KvWireTest, EveryRequestTruncationIsTypedError) {
  auto frame = EncodeRequest(MakeSet("truncate-me", "0123456789abcdef"));
  for (size_t len = 0; len < frame.size(); ++len) {
    auto dec = DecodeRequest(std::span<const std::byte>(frame.data(), len));
    EXPECT_FALSE(dec.ok()) << "prefix of length " << len << " decoded";
  }
  auto whole = DecodeRequest(frame);
  EXPECT_TRUE(whole.ok());
}

TEST(KvWireTest, EveryResponseTruncationIsTypedError) {
  Response rsp;
  rsp.opcode = Opcode::kGet;
  rsp.status = WireStatus::kOk;
  rsp.origin = Origin::kPool;
  rsp.client_id = 1;
  rsp.seq = 2;
  rsp.value = Bytes("payload-bytes");
  auto frame = EncodeResponse(rsp);
  for (size_t len = 0; len < frame.size(); ++len) {
    auto dec = DecodeResponse(std::span<const std::byte>(frame.data(), len));
    EXPECT_FALSE(dec.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(KvWireTest, RejectsBadMagicVersionAndShape) {
  auto frame = EncodeRequest(MakeSet("k", "v"));
  auto bad_magic = frame;
  bad_magic[0] = std::byte{0x00};
  EXPECT_EQ(DecodeRequest(bad_magic).status().code(),
            StatusCode::kInvalidArgument);

  auto bad_version = frame;
  bad_version[1] = std::byte{99};
  EXPECT_EQ(DecodeRequest(bad_version).status().code(),
            StatusCode::kUnimplemented);

  auto bad_opcode = frame;
  bad_opcode[2] = std::byte{0x77};
  EXPECT_FALSE(DecodeRequest(bad_opcode).ok());

  // Trailing junk breaks the length accounting.
  auto trailing = frame;
  trailing.push_back(std::byte{0xff});
  EXPECT_FALSE(DecodeRequest(trailing).ok());

  // A GET carrying a value is malformed.
  Request get = MakeSet("k", "v");
  get.opcode = Opcode::kGet;
  EXPECT_FALSE(DecodeRequest(EncodeRequest(get)).ok());
}

// Seeded mutation fuzz: random bit flips and random garbage must always
// come back as ok-or-typed-error. A crash here is the bug being hunted.
TEST(KvWireTest, SeededBitFlipsNeverCrashDecoders) {
  sim::Rng rng(20250808);
  auto req_frame = EncodeRequest(MakeSet("fuzz-key", "fuzz-value-payload"));
  Response rsp;
  rsp.opcode = Opcode::kSet;
  rsp.status = WireStatus::kOk;
  rsp.client_id = 3;
  rsp.seq = 4;
  auto rsp_frame = EncodeResponse(rsp);
  for (int iter = 0; iter < 4000; ++iter) {
    auto frame = (iter % 2 == 0) ? req_frame : rsp_frame;
    int flips = 1 + static_cast<int>(rng.UniformInt(uint64_t{8}));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.UniformInt(frame.size());
      frame[pos] ^= static_cast<std::byte>(1u << rng.UniformInt(uint64_t{8}));
    }
    if (iter % 2 == 0) {
      auto dec = DecodeRequest(frame);
      if (dec.ok()) {
        EXPECT_LE(dec->key.size(), kMaxKeyLen);
      }
    } else {
      (void)DecodeResponse(frame);
    }
  }
  // Pure garbage of every small length.
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> junk(rng.UniformInt(uint64_t{128}));
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.UniformInt(uint64_t{256}));
    }
    (void)DecodeRequest(junk);
    (void)DecodeResponse(junk);
  }
}

// --- Store (pool-only) ---

class KvStoreTest : public ::testing::Test {
 protected:
  static cxl::CxlPodConfig PodConfig() {
    cxl::CxlPodConfig c;
    c.num_hosts = 1;
    c.num_mhds = 1;
    c.mhd_capacity = 16 * kMiB;
    c.dram_per_host = 1 * kMiB;
    return c;
  }

  KvStoreTest() : pod_(loop_, PodConfig()) {}

  std::unique_ptr<BufferPool> MakePool(uint32_t buffers, uint32_t size) {
    auto pool =
        BufferPool::Create(pod_.host(0), Placement::kCxlPool, buffers, size);
    CXLPOOL_CHECK_OK(pool.status());
    return std::move(*pool);
  }

  sim::EventLoop loop_;
  cxl::CxlPod pod_;
};

TEST_F(KvStoreTest, SetGetDeleteRoundTrip) {
  auto pool = MakePool(16, 2048);
  Store store(pool.get(), nullptr, 0, StoreConfig{}, nullptr);
  auto t = [&]() -> Task<> {
    CXLPOOL_CHECK_OK(co_await store.Set("alpha", Bytes("one"), 0));
    CXLPOOL_CHECK_OK(co_await store.Set("beta", Bytes("two"), 0));
    auto got = co_await store.Get("alpha", 0);
    CXLPOOL_CHECK_OK(got.status());
    CXLPOOL_CHECK(AsString(got->value) == "one");
    CXLPOOL_CHECK(got->origin == Origin::kPool);
    // Overwrite wins.
    CXLPOOL_CHECK_OK(co_await store.Set("alpha", Bytes("uno"), 0));
    got = co_await store.Get("alpha", 0);
    CXLPOOL_CHECK_OK(got.status());
    CXLPOOL_CHECK(AsString(got->value) == "uno");
    CXLPOOL_CHECK_OK(co_await store.Delete("alpha", 0));
    auto miss = co_await store.Get("alpha", 0);
    CXLPOOL_CHECK(miss.status().code() == StatusCode::kNotFound);
    CXLPOOL_CHECK((co_await store.Delete("alpha", 0)).code() ==
                  StatusCode::kNotFound);
  };
  RunBlocking(loop_, t());
  EXPECT_EQ(GaugeValue(pod_.metrics(), "kv.resident_entries", HostLabels(0)), 1);  // beta
}

TEST_F(KvStoreTest, ExhaustionWithoutColdTierIsTypedOverload) {
  auto pool = MakePool(4, 2048);
  StoreConfig sc;
  sc.free_low_water = 0;
  Store store(pool.get(), nullptr, 0, sc, nullptr);
  auto t = [&]() -> Task<int> {
    int stored = 0;
    for (int i = 0; i < 8; ++i) {
      Status st = co_await store.Set("key" + std::to_string(i),
                                     Bytes("payload"), 0);
      if (st.ok()) {
        ++stored;
      } else {
        // No SSD: allocation pressure is kOverloaded, never a crash.
        CXLPOOL_CHECK(st.code() == StatusCode::kOverloaded);
      }
    }
    co_return stored;
  };
  int stored = RunBlocking(loop_, t());
  EXPECT_EQ(stored, 4);
  EXPECT_EQ(GaugeValue(pod_.metrics(), "kv.resident_entries", HostLabels(0)), 4);
}

TEST_F(KvStoreTest, PoisonedValueIsDroppedScrubbedAndKeyReusable) {
  auto pool = MakePool(1, 2048);
  uint64_t buf0 = pool->base();  // the only buffer
  Store store(pool.get(), nullptr, 0, StoreConfig{}, nullptr);
  auto t = [&]() -> Task<> {
    CXLPOOL_CHECK_OK(co_await store.Set("victim", Bytes("precious"), 0));
    pod_.PoisonLine(buf0);
    // First read observes the loss (typed, not a crash)...
    auto got = co_await store.Get("victim", 0);
    CXLPOOL_CHECK(got.status().code() == StatusCode::kDataLoss);
    // ... the entry is gone afterwards ...
    got = co_await store.Get("victim", 0);
    CXLPOOL_CHECK(got.status().code() == StatusCode::kNotFound);
    // ... and the scrub healed the media: the buffer is reusable.
    CXLPOOL_CHECK_OK(co_await store.Set("victim", Bytes("reborn"), 0));
    got = co_await store.Get("victim", 0);
    CXLPOOL_CHECK_OK(got.status());
    CXLPOOL_CHECK(AsString(got->value) == "reborn");
  };
  RunBlocking(loop_, t());
  EXPECT_EQ(store.poison_dropped_keys(), 1u);
  EXPECT_EQ(pod_.PoisonedLineCount(), 0u);
}

TEST_F(KvStoreTest, ScrubOnceSweepsPoisonedEntries) {
  auto pool = MakePool(8, 2048);
  Store store(pool.get(), nullptr, 0, StoreConfig{}, nullptr);
  auto t = [&]() -> Task<uint64_t> {
    for (int i = 0; i < 4; ++i) {
      CXLPOOL_CHECK_OK(
          co_await store.Set("k" + std::to_string(i), Bytes("vvvv"), 0));
    }
    // LIFO alloc: the first Set landed in the highest buffer.
    pod_.PoisonLine(pool->base() + 7 * pool->buffer_size());
    co_return co_await store.ScrubOnce();
  };
  uint64_t dropped = RunBlocking(loop_, t());
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(GaugeValue(pod_.metrics(), "kv.resident_entries", HostLabels(0)), 3);
  EXPECT_EQ(pod_.PoisonedLineCount(), 0u);
}

// --- Store with SSD cold tier (whole-rack fixture) ---

RackConfig KvRack(int hosts) {
  RackConfig rc;
  rc.pod.num_hosts = hosts;
  rc.pod.num_mhds = 2;
  rc.pod.mhd_capacity = 64 * kMiB;
  rc.pod.dram_per_host = 16 * kMiB;
  rc.ssds_per_host = 1;
  return rc;
}

TEST(KvStoreSsdTest, ColdTailSpillsAndHydratesBack) {
  sim::EventLoop loop;
  Rack rack(loop, KvRack(2));
  rack.Start();

  auto t = [](Rack& rack, sim::EventLoop& loop) -> Task<bool> {
    auto lease = rack.AcquireDevice(HostId(0), DeviceType::kSsd);
    CXLPOOL_CHECK_OK(lease.status());
    auto ssd = co_await VirtualSsd::Create(rack.pod().host(0),
                                           std::move(lease->mmio), {});
    CXLPOOL_CHECK_OK(ssd.status());
    auto pool = BufferPool::Create(rack.pod().host(0), Placement::kCxlPool,
                                   8, 2048);
    CXLPOOL_CHECK_OK(pool.status());
    StoreConfig sc;
    sc.shards = 1;  // one LRU chain makes the eviction order observable
    sc.free_low_water = 2;
    Store store(pool->get(), ssd->get(), 1 * kMiB, sc, nullptr);

    // 16 values through an 8-buffer pool: the cold tail must spill.
    for (int i = 0; i < 16; ++i) {
      std::string v = "value-" + std::to_string(i) + std::string(900, 'x');
      CXLPOOL_CHECK_OK(co_await store.Set("key" + std::to_string(i),
                                          Bytes(v), loop.now() + kSecond));
    }
    const obs::Registry& metrics = rack.pod().metrics();
    CXLPOOL_CHECK(GaugeValue(metrics, "kv.spilled_entries", HostLabels(0)) > 0);
    CXLPOOL_CHECK(GaugeValue(metrics, "kv.resident_entries", HostLabels(0)) +
                      GaugeValue(metrics, "kv.spilled_entries", HostLabels(0)) ==
                  16);

    // Every value — hot or cold — reads back intact; cold ones hydrate.
    bool saw_ssd_origin = false;
    for (int i = 0; i < 16; ++i) {
      auto got = co_await store.Get("key" + std::to_string(i),
                                    loop.now() + kSecond);
      CXLPOOL_CHECK_OK(got.status());
      std::string expect = "value-" + std::to_string(i) + std::string(900, 'x');
      CXLPOOL_CHECK(AsString(got->value) == expect);
      saw_ssd_origin = saw_ssd_origin || got->origin == Origin::kSsd;
    }
    co_return saw_ssd_origin;
  };
  EXPECT_TRUE(RunBlocking(loop, t(rack, loop)));
  EXPECT_EQ(rack.pod().TotalLostDirtyLines(), 0u);
}

TEST(KvStoreSsdTest, HydrationShedsWhenDeadlineTooTight) {
  sim::EventLoop loop;
  Rack rack(loop, KvRack(2));
  rack.Start();

  auto t = [](Rack& rack, sim::EventLoop& loop) -> Task<> {
    auto lease = rack.AcquireDevice(HostId(0), DeviceType::kSsd);
    CXLPOOL_CHECK_OK(lease.status());
    auto ssd = co_await VirtualSsd::Create(rack.pod().host(0),
                                           std::move(lease->mmio), {});
    CXLPOOL_CHECK_OK(ssd.status());
    auto pool = BufferPool::Create(rack.pod().host(0), Placement::kCxlPool,
                                   4, 2048);
    CXLPOOL_CHECK_OK(pool.status());
    StoreConfig sc;
    sc.shards = 1;
    Store store(pool->get(), ssd->get(), 1 * kMiB, sc, nullptr);
    for (int i = 0; i < 8; ++i) {
      CXLPOOL_CHECK_OK(co_await store.Set("key" + std::to_string(i),
                                          Bytes("cold-candidate"),
                                          loop.now() + kSecond));
    }
    CXLPOOL_CHECK(
        GaugeValue(rack.pod().metrics(), "kv.spilled_entries", HostLabels(0)) > 0);
    // key0 is the coldest — certainly spilled. A deadline tighter than
    // kSsdMinHeadroom must shed before touching the device (PR 6).
    auto got = co_await store.Get("key0", loop.now() + 5 * kMicrosecond);
    CXLPOOL_CHECK(got.status().code() == StatusCode::kDeadlineExceeded);
    // With room to breathe the same GET hydrates fine.
    got = co_await store.Get("key0", loop.now() + kSecond);
    CXLPOOL_CHECK_OK(got.status());
    CXLPOOL_CHECK(got->origin == Origin::kSsd);
  };
  RunBlocking(loop, t(rack, loop));
}

// --- Node end to end over UDP ---

struct Endpoint {
  Rack::VirtualNicHandle nic;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<UdpStack> stack;
};

Task<> MakeEndpoint(Rack& rack, HostId host, Endpoint* out) {
  VirtualNic::Config vc;
  vc.rings_in_cxl = true;
  auto handle = co_await rack.CreateVirtualNic(host, vc);
  CXLPOOL_CHECK(handle.ok());
  out->nic = std::move(*handle);
  auto pool =
      BufferPool::Create(rack.pod().host(host), Placement::kCxlPool, 256, 2048);
  CXLPOOL_CHECK_OK(pool.status());
  out->pool = std::move(*pool);
  out->stack = std::make_unique<UdpStack>(rack.pod().host(host),
                                          out->nic.vnic.get(), out->pool.get(),
                                          out->nic.mac, UdpStack::Config{});
  CXLPOOL_CHECK_OK(co_await out->stack->Start(rack.stop_token()));
}

// One client request/response exchange against a running node.
Task<Response> Exchange(UdpSocket* sock, netsim::MacAddr server_mac,
                        uint16_t server_port, Request req) {
  sim::EventLoop& loop = sock->Loop();
  CXLPOOL_CHECK_OK(
      co_await sock->SendTo(server_mac, server_port, EncodeRequest(req)));
  while (true) {
    auto d = co_await sock->Recv(loop.now() + 2 * kMillisecond);
    CXLPOOL_CHECK_OK(d.status());
    auto rsp = DecodeResponse(d->payload);
    CXLPOOL_CHECK_OK(rsp.status());
    if (rsp->seq == req.seq) {
      co_return std::move(*rsp);
    }
  }
}

TEST(KvNodeTest, ServesGetSetDeleteOverUdp) {
  sim::EventLoop loop;
  Rack rack(loop, KvRack(3));
  rack.Start();

  Endpoint server;
  Endpoint client;
  RunBlocking(loop, MakeEndpoint(rack, HostId(1), &server));
  RunBlocking(loop, MakeEndpoint(rack, HostId(2), &client));

  auto value_pool = BufferPool::Create(rack.pod().host(1), Placement::kCxlPool,
                                       64, 2048);
  CXLPOOL_CHECK_OK(value_pool.status());
  obs::Registry registry;
  Store store(value_pool->get(), nullptr, 0, StoreConfig{}, &registry);
  KvNode node(server.stack.get(), &store, NodeConfig{}, &registry);
  ASSERT_TRUE(node.Start(rack.stop_token()).ok());

  auto t = [&](sim::EventLoop& loop) -> Task<> {
    auto sock = client.stack->Bind(9100);
    CXLPOOL_CHECK_OK(sock.status());
    uint64_t seq = 1;
    auto mk = [&](Opcode op, std::string key, std::string value) {
      Request r;
      r.opcode = op;
      r.client_id = 1;
      r.seq = seq++;
      r.deadline = loop.now() + kMillisecond;
      r.key = std::move(key);
      r.value = Bytes(value);
      return r;
    };
    netsim::MacAddr mac = server.nic.mac;
    auto rsp = co_await Exchange(*sock, mac, 11211,
                                 mk(Opcode::kGet, "ghost", ""));
    CXLPOOL_CHECK(rsp.status == WireStatus::kNotFound);
    rsp = co_await Exchange(*sock, mac, 11211,
                            mk(Opcode::kSet, "greeting", "hello pool"));
    CXLPOOL_CHECK(rsp.status == WireStatus::kOk);
    rsp = co_await Exchange(*sock, mac, 11211,
                            mk(Opcode::kGet, "greeting", ""));
    CXLPOOL_CHECK(rsp.status == WireStatus::kOk);
    CXLPOOL_CHECK(AsString(rsp.value) == "hello pool");
    CXLPOOL_CHECK(rsp.origin == Origin::kPool);
    rsp = co_await Exchange(*sock, mac, 11211,
                            mk(Opcode::kDelete, "greeting", ""));
    CXLPOOL_CHECK(rsp.status == WireStatus::kOk);
    rsp = co_await Exchange(*sock, mac, 11211,
                            mk(Opcode::kGet, "greeting", ""));
    CXLPOOL_CHECK(rsp.status == WireStatus::kNotFound);

    // Hostile bytes on the node port: dropped and counted, no reply, and
    // the node keeps serving.
    std::vector<std::byte> junk(11, std::byte{0x5a});
    CXLPOOL_CHECK_OK(co_await (*sock)->SendTo(mac, 11211, junk));
    rsp = co_await Exchange(*sock, mac, 11211,
                            mk(Opcode::kSet, "after-junk", "still alive"));
    CXLPOOL_CHECK(rsp.status == WireStatus::kOk);
  };
  RunBlocking(loop, t(loop));
  auto* decode_errors = registry.FindCounter("kv.decode_errors");
  ASSERT_NE(decode_errors, nullptr);
  EXPECT_EQ(decode_errors->value(), 1);
  auto* rx = registry.FindCounter("kv.rx_requests");
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->value(), 6);
  rack.Shutdown();
  loop.RunFor(kMillisecond);
}

TEST(KvNodeTest, ShedsOverloadAtTheFrontDoor) {
  sim::EventLoop loop;
  Rack rack(loop, KvRack(3));
  rack.Start();

  Endpoint server;
  Endpoint client;
  RunBlocking(loop, MakeEndpoint(rack, HostId(1), &server));
  RunBlocking(loop, MakeEndpoint(rack, HostId(2), &client));

  auto value_pool = BufferPool::Create(rack.pod().host(1), Placement::kCxlPool,
                                       64, 2048);
  CXLPOOL_CHECK_OK(value_pool.status());
  obs::Registry registry;
  Store store(value_pool->get(), nullptr, 0, StoreConfig{}, &registry);
  NodeConfig nc;
  nc.max_inflight = 0;  // admit nothing: every request sheds at the front
  KvNode node(server.stack.get(), &store, nc, &registry);
  ASSERT_TRUE(node.Start(rack.stop_token()).ok());

  auto t = [&](sim::EventLoop& loop) -> Task<> {
    auto sock = client.stack->Bind(9101);
    CXLPOOL_CHECK_OK(sock.status());
    Request r;
    r.opcode = Opcode::kSet;
    r.client_id = 1;
    r.seq = 77;
    r.deadline = loop.now() + kMillisecond;
    r.key = "rejected";
    r.value = Bytes("never stored");
    auto rsp = co_await Exchange(*sock, server.nic.mac, 11211, r);
    CXLPOOL_CHECK(rsp.status == WireStatus::kOverloaded);
  };
  RunBlocking(loop, t(loop));
  auto* shed = registry.FindCounter("kv.shed_front");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->value(), 1);
  // The store never saw the request.
  auto* sets = registry.FindCounter("kv.sets");
  ASSERT_NE(sets, nullptr);
  EXPECT_EQ(sets->value(), 0);
  rack.Shutdown();
  loop.RunFor(kMillisecond);
}

// --- LoadGen ---

TEST(KvLoadGenTest, ValuePatternDetectsTampering) {
  LoadGenConfig cfg;
  auto value = LoadGen::MakeValue(123, 7, cfg);
  ASSERT_GE(value.size(), cfg.value_bytes_min);
  ASSERT_LE(value.size(), cfg.value_bytes_max);
  uint64_t rank = 0;
  uint64_t version = 0;
  EXPECT_TRUE(LoadGen::CheckValue(value, &rank, &version));
  EXPECT_EQ(rank, 123u);
  EXPECT_EQ(version, 7u);
  // Same (rank, version) is deterministic.
  EXPECT_EQ(LoadGen::MakeValue(123, 7, cfg), value);
  // Any flipped byte is caught.
  auto torn = value;
  torn[torn.size() - 1] ^= std::byte{0x01};
  EXPECT_FALSE(LoadGen::CheckValue(torn, &rank, &version));
  auto short_value = std::vector<std::byte>(8);
  EXPECT_FALSE(LoadGen::CheckValue(short_value, &rank, &version));
}

TEST(KvLoadGenTest, OpenLoopPhaseAgainstLiveNodeAuditsClean) {
  sim::EventLoop loop;
  Rack rack(loop, KvRack(3));
  rack.Start();

  Endpoint server;
  Endpoint client;
  RunBlocking(loop, MakeEndpoint(rack, HostId(1), &server));
  RunBlocking(loop, MakeEndpoint(rack, HostId(2), &client));

  auto value_pool = BufferPool::Create(rack.pod().host(1), Placement::kCxlPool,
                                       256, 2048);
  CXLPOOL_CHECK_OK(value_pool.status());
  obs::Registry registry;
  Store store(value_pool->get(), nullptr, 0, StoreConfig{}, &registry);
  KvNode node(server.stack.get(), &store, NodeConfig{}, &registry);
  ASSERT_TRUE(node.Start(rack.stop_token()).ok());

  LoadGenConfig lc;
  lc.keys = 128;
  lc.value_bytes_min = 64;
  lc.value_bytes_max = 512;
  lc.connections = 2;
  lc.seed = 7;
  LoadGen gen(client.stack.get(), server.nic.mac, 11211, /*client_id=*/1, lc,
              &registry);
  ASSERT_TRUE(gen.Start(rack.stop_token()).ok());

  auto t = [&]() -> Task<PhaseStats> {
    co_return co_await gen.RunPhase(/*offered_ops=*/40000.0,
                                    /*duration=*/25 * kMillisecond,
                                    /*warmup=*/5 * kMillisecond);
  };
  PhaseStats stats = RunBlocking(loop, t());
  EXPECT_GT(stats.sent, 400u);
  EXPECT_GT(stats.ok, 300u);
  EXPECT_EQ(gen.integrity_failures(), 0u);
  EXPECT_GT(gen.acked_sets(), 0u);
  EXPECT_GT(stats.goodput_ops, 0.0);

  auto audit = [&]() -> Task<AuditResult> {
    co_return co_await gen.VerifyAckedSets(/*exempt_before=*/0);
  };
  AuditResult result = RunBlocking(loop, audit());
  EXPECT_GT(result.checked, 0u);
  EXPECT_EQ(result.integrity_failures, 0u);
  EXPECT_EQ(result.missing_recent, 0u);
  EXPECT_EQ(result.missing_old, 0u);
  EXPECT_EQ(result.unverifiable, 0u);
  EXPECT_EQ(result.present_ok, result.checked);

  rack.Shutdown();
  loop.RunFor(kMillisecond);
}

}  // namespace
}  // namespace cxlpool::kv
