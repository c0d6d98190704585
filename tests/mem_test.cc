#include <gtest/gtest.h>
#include "src/common/check.h"

#include <cstring>
#include <list>
#include <map>
#include <vector>

#include "src/mem/address_map.h"
#include "src/mem/backend.h"
#include "src/mem/cache.h"
#include "src/sim/random.h"
#include "tests/test_metrics.h"

namespace cxlpool::mem {
namespace {

std::array<std::byte, kCachelineSize> LinePattern(uint8_t fill) {
  std::array<std::byte, kCachelineSize> a;
  a.fill(std::byte{fill});
  return a;
}

// --- MemoryBackend ---

TEST(BackendTest, ZeroInitialized) {
  MemoryBackend b("test", 4096);
  std::array<std::byte, 16> buf;
  buf.fill(std::byte{0xff});
  b.Read(100, buf);
  for (std::byte x : buf) {
    EXPECT_EQ(x, std::byte{0});
  }
}

TEST(BackendTest, RoundTrip) {
  MemoryBackend b("test", 4096);
  std::array<std::byte, 8> in{std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4},
                              std::byte{5}, std::byte{6}, std::byte{7}, std::byte{8}};
  b.Write(1000, in);
  std::array<std::byte, 8> out{};
  b.Read(1000, out);
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 8), 0);
}

TEST(BackendTest, EdgeOfCapacity) {
  MemoryBackend b("test", 128);
  std::array<std::byte, 128> buf{};
  b.Read(0, buf);  // exactly full range is legal
  std::array<std::byte, 1> one{std::byte{9}};
  b.Write(127, one);
  b.Read(127, one);
  EXPECT_EQ(one[0], std::byte{9});
}

TEST(BackendTest, BoundsCheckFailureNamesTheBackendAndOffsets) {
  // A bounds CHECK in a sim with dozens of backends is undebuggable
  // without context: the message must say WHICH backend, WHERE, and how
  // big the access and the backend are.
  MemoryBackend b("nic0-bar", 4096);
  std::array<std::byte, 16> buf{};
  EXPECT_DEATH(b.Read(5000, buf),
               "backend 'nic0-bar'.*16 bytes at offset 5000.*backend size 4096");
  EXPECT_DEATH(b.Write(4090, buf),
               "backend 'nic0-bar'.*16 bytes at offset 4090.*backend size 4096");
}

// --- Media poison (RAS) ---

TEST(BackendTest, PoisonTracksWholeLines) {
  MemoryBackend b("test", 4096);
  EXPECT_FALSE(b.RangePoisoned(0, 4096));
  b.PoisonLine(130);  // anywhere inside the line poisons [128, 192)
  EXPECT_TRUE(b.LinePoisoned(128));
  EXPECT_TRUE(b.LinePoisoned(191));
  EXPECT_FALSE(b.LinePoisoned(192));
  EXPECT_FALSE(b.LinePoisoned(64));
  EXPECT_TRUE(b.RangePoisoned(0, 4096));
  EXPECT_TRUE(b.RangePoisoned(190, 4));  // straddles into the poisoned line
  EXPECT_FALSE(b.RangePoisoned(192, 64));
  EXPECT_EQ(b.poisoned_line_count(), 1u);
}

TEST(BackendTest, FullLineWriteClearsPoisonPartialDoesNot) {
  MemoryBackend b("test", 4096);
  b.PoisonLine(128);
  // A partial write cannot re-establish ECC for the whole line.
  std::array<std::byte, 8> partial{};
  b.Write(128, partial);
  EXPECT_TRUE(b.LinePoisoned(128));
  // A full-line write is fresh data + fresh ECC: poison clears.
  std::array<std::byte, kCachelineSize> full{};
  b.Write(128, full);
  EXPECT_FALSE(b.LinePoisoned(128));
  EXPECT_EQ(b.poisoned_line_count(), 0u);
}

TEST(BackendTest, ClearPoisonIsExplicit) {
  MemoryBackend b("test", 4096);
  b.PoisonLine(0);
  b.PoisonLine(64);
  b.ClearPoison(0);
  EXPECT_FALSE(b.LinePoisoned(0));
  EXPECT_TRUE(b.LinePoisoned(64));
}

// --- AddressMap ---

class AddressMapTest : public ::testing::Test {
 protected:
  AddressMapTest() : dram_("dram", 64 * kKiB), pool_("pool", 64 * kKiB) {
    Region r1;
    r1.base = 0x1000;
    r1.size = 64 * kKiB;
    r1.kind = MemoryKind::kLocalDram;
    r1.dram_host = HostId(0);
    r1.backend = &dram_;
    CXLPOOL_CHECK_OK(map_.Register(r1));

    Region r2;
    r2.base = 0x1000000;
    r2.size = 64 * kKiB;
    r2.kind = MemoryKind::kCxlPool;
    r2.mhd = MhdId(0);
    r2.backend = &pool_;
    CXLPOOL_CHECK_OK(map_.Register(r2));
  }

  MemoryBackend dram_;
  MemoryBackend pool_;
  AddressMap map_;
};

TEST_F(AddressMapTest, LookupFindsRegion) {
  const Region* r = map_.Lookup(0x1000);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->kind, MemoryKind::kLocalDram);
  EXPECT_EQ(map_.Lookup(0x1000 + 64 * kKiB - 1)->kind, MemoryKind::kLocalDram);
  EXPECT_EQ(map_.Lookup(0x1000000)->kind, MemoryKind::kCxlPool);
}

TEST_F(AddressMapTest, LookupMissReturnsNull) {
  EXPECT_EQ(map_.Lookup(0), nullptr);
  EXPECT_EQ(map_.Lookup(0xfff), nullptr);
  EXPECT_EQ(map_.Lookup(0x1000 + 64 * kKiB), nullptr);
  EXPECT_EQ(map_.Lookup(0xffffffff), nullptr);
}

TEST_F(AddressMapTest, ResolveRejectsCrossRegion) {
  auto r = map_.Resolve(0x1000 + 64 * kKiB - 8, 16);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST_F(AddressMapTest, ResolveRejectsUnmapped) {
  auto r = map_.Resolve(0x0, 8);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(AddressMapTest, OverlapRejected) {
  MemoryBackend extra("x", 4096);
  Region r;
  r.base = 0x1800;  // inside the dram region
  r.size = 4096;
  r.backend = &extra;
  auto st = map_.Register(r);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);

  r.base = 0x1000 - 100;  // tail overlaps head of dram region
  st = map_.Register(r);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST_F(AddressMapTest, BackendCapacityValidated) {
  MemoryBackend small("s", 1024);
  Region r;
  r.base = 0x20000000;
  r.size = 4096;  // bigger than backend
  r.backend = &small;
  EXPECT_EQ(map_.Register(r).code(), StatusCode::kOutOfRange);
}

TEST_F(AddressMapTest, ReadWriteBytesRouteToBackend) {
  std::array<std::byte, 4> in{std::byte{0xde}, std::byte{0xad}, std::byte{0xbe},
                              std::byte{0xef}};
  map_.WriteBytes(0x1000000 + 128, in);
  std::array<std::byte, 4> direct{};
  pool_.Read(128, direct);
  EXPECT_EQ(std::memcmp(in.data(), direct.data(), 4), 0);

  std::array<std::byte, 4> out{};
  map_.ReadBytes(0x1000000 + 128, out);
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 4), 0);
}

TEST_F(AddressMapTest, BackendOffsetApplied) {
  MemoryBackend shared("sh", 8192);
  Region r;
  r.base = 0x40000000;
  r.size = 4096;
  r.kind = MemoryKind::kCxlPool;
  r.backend = &shared;
  r.backend_offset = 4096;
  ASSERT_TRUE(map_.Register(r).ok());
  std::array<std::byte, 1> in{std::byte{7}};
  map_.WriteBytes(0x40000000, in);
  std::array<std::byte, 1> direct{};
  shared.Read(4096, direct);
  EXPECT_EQ(direct[0], std::byte{7});
}

TEST_F(AddressMapTest, PoisonRoutesThroughRegions) {
  // Poison by pod address, translated to the backing store (including
  // backend_offset), surfaced again by the region's CheckPoison.
  ASSERT_TRUE(map_.PoisonLine(0x1000000 + 256).ok());
  EXPECT_TRUE(map_.RangePoisoned(0x1000000 + 256, 1));
  EXPECT_TRUE(pool_.LinePoisoned(256));
  EXPECT_FALSE(dram_.RangePoisoned(0, 64 * kKiB));

  const Region* pool_region = map_.Lookup(0x1000000);
  ASSERT_NE(pool_region, nullptr);
  Status st = pool_region->CheckPoison(0x1000000 + 256, 64);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(pool_region->CheckPoison(0x1000000, 64).ok());
  // Unmapped addresses are not poisoned (the access fails elsewhere).
  EXPECT_FALSE(map_.RangePoisoned(0, 8));

  ASSERT_TRUE(map_.ClearPoison(0x1000000 + 256).ok());
  EXPECT_TRUE(pool_region->CheckPoison(0x1000000 + 256, 64).ok());
}

TEST_F(AddressMapTest, PoisonUnmappedAddressFails) {
  EXPECT_FALSE(map_.PoisonLine(0x0).ok());
  EXPECT_FALSE(map_.ClearPoison(0x0).ok());
}

// --- WriteBackCache ---

// A cache counting into its own registry.
struct CountedCache {
  explicit CountedCache(size_t capacity) : cache(capacity, obs::Scope(metrics)) {}
  uint64_t count(const char* name) const { return CounterValue(metrics, name); }
  obs::Registry metrics;
  WriteBackCache cache;
};

TEST(CacheTest, MissThenHit) {
  CountedCache counted(16);
  WriteBackCache& cache = counted.cache;
  EXPECT_EQ(cache.Find(0), nullptr);
  auto data = LinePattern(0xaa);
  cache.Install(0, data.data(), false);
  WriteBackCache::Line* line = cache.Find(0);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->data[0], std::byte{0xaa});
  EXPECT_FALSE(line->dirty);
  EXPECT_EQ(counted.count("cache.hits"), 1u);
  EXPECT_EQ(counted.count("cache.misses"), 1u);
}

TEST(CacheTest, DirtyBitSticky) {
  CountedCache counted(16);
  WriteBackCache& cache = counted.cache;
  auto data = LinePattern(1);
  cache.Install(64, data.data(), true);
  // Re-installing clean does not clear dirty.
  cache.Install(64, data.data(), false);
  EXPECT_TRUE(cache.Find(64)->dirty);
}

TEST(CacheTest, LruEviction) {
  CountedCache counted(2);
  WriteBackCache& cache = counted.cache;
  auto d = LinePattern(1);
  EXPECT_FALSE(cache.Install(0, d.data(), false).has_value());
  EXPECT_FALSE(cache.Install(64, d.data(), false).has_value());
  cache.Find(0);  // make line 0 most-recent
  auto ev = cache.Install(128, d.data(), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 64u);  // 64 was least-recent
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CacheTest, EvictedDirtyLineCarriesData) {
  CountedCache counted(1);
  WriteBackCache& cache = counted.cache;
  auto d1 = LinePattern(0x11);
  cache.Install(0, d1.data(), true);
  auto d2 = LinePattern(0x22);
  auto ev = cache.Install(64, d2.data(), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);
  EXPECT_EQ(ev->data[5], std::byte{0x11});
  EXPECT_EQ(counted.count("cache.writebacks"), 1u);
}

TEST(CacheTest, RemoveReturnsContent) {
  CountedCache counted(4);
  WriteBackCache& cache = counted.cache;
  auto d = LinePattern(0x33);
  cache.Install(192, d.data(), true);
  auto ev = cache.Remove(192);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->dirty);
  EXPECT_EQ(ev->data[0], std::byte{0x33});
  EXPECT_EQ(cache.Find(192), nullptr);
  EXPECT_FALSE(cache.Remove(192).has_value());
}

TEST(CacheTest, ZeroCapacityNeverCaches) {
  CountedCache counted(0);
  WriteBackCache& cache = counted.cache;
  auto d = LinePattern(1);
  EXPECT_FALSE(cache.Install(0, d.data(), true).has_value());
  EXPECT_EQ(cache.Find(0), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheTest, DropAllForgetsEverything) {
  CountedCache counted(8);
  WriteBackCache& cache = counted.cache;
  auto d = LinePattern(1);
  cache.Install(0, d.data(), true);
  cache.Install(64, d.data(), false);
  cache.DropAll();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Find(0), nullptr);
}

TEST(CacheTest, PeekDoesNotBumpLru) {
  CountedCache counted(2);
  WriteBackCache& cache = counted.cache;
  auto d = LinePattern(1);
  cache.Install(0, d.data(), false);
  cache.Install(64, d.data(), false);
  cache.Peek(0);  // would make 0 MRU if it bumped
  auto ev = cache.Install(128, d.data(), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 0u);  // 0 still LRU: Peek had no effect
}

// Find vs Peek contrast on the same cache: Find's LRU bump protects a
// line from eviction, Peek's lack of one does not, and Peek never touches
// the hit/miss counters (it is the observer path — e.g. DMA snooping).
TEST(CacheTest, FindBumpsLruPeekDoesNotAndPeekIsStatFree) {
  CountedCache counted(2);
  WriteBackCache& cache = counted.cache;
  auto d = LinePattern(1);
  cache.Install(0, d.data(), false);
  cache.Install(64, d.data(), false);
  const uint64_t hits = counted.count("cache.hits");
  const uint64_t misses = counted.count("cache.misses");
  EXPECT_NE(cache.Peek(0), nullptr);
  EXPECT_EQ(cache.Peek(999 * kCachelineSize), nullptr);  // miss: no count
  EXPECT_EQ(counted.count("cache.hits"), hits);
  EXPECT_EQ(counted.count("cache.misses"), misses);

  cache.Find(0);  // bump: 64 becomes LRU
  auto ev1 = cache.Install(128, d.data(), false);
  ASSERT_TRUE(ev1.has_value());
  EXPECT_EQ(ev1->line_addr, 64u);

  cache.Peek(0);  // no bump: 0 stays LRU behind 128
  auto ev2 = cache.Install(192, d.data(), false);
  ASSERT_TRUE(ev2.has_value());
  EXPECT_EQ(ev2->line_addr, 0u);
}

// Capacity 1 is the degenerate LRU: every distinct install evicts the
// previous line, re-installing the resident line evicts nothing, and the
// dirty victim's bytes ride out intact.
TEST(CacheTest, CapacityOneEvictsEveryNewcomerButNotReinstalls) {
  CountedCache counted(1);
  WriteBackCache& cache = counted.cache;
  auto d1 = LinePattern(0x11);
  auto d2 = LinePattern(0x22);
  EXPECT_FALSE(cache.Install(0, d1.data(), true).has_value());
  EXPECT_FALSE(cache.Install(0, d2.data(), false).has_value());  // same line
  EXPECT_EQ(cache.size(), 1u);

  auto ev = cache.Install(64, d1.data(), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 0u);
  EXPECT_TRUE(ev->dirty);                     // sticky from the first install
  EXPECT_EQ(ev->data[3], std::byte{0x22});    // latest content, not first
  EXPECT_EQ(cache.size(), 1u);

  auto ev2 = cache.Install(128, d2.data(), true);
  ASSERT_TRUE(ev2.has_value());
  EXPECT_EQ(ev2->line_addr, 64u);
  EXPECT_FALSE(ev2->dirty);
  EXPECT_EQ(counted.count("cache.writebacks"), 1u);  // only the dirty victim counted
}

// Install over an existing line replaces bytes in place: no victim, no
// size change, dirty stays sticky, and the line is bumped to MRU.
TEST(CacheTest, InstallOverExistingReplacesContentInPlace) {
  CountedCache counted(2);
  WriteBackCache& cache = counted.cache;
  auto d1 = LinePattern(0x0d);
  auto d2 = LinePattern(0x0e);
  cache.Install(0, d1.data(), true);
  cache.Install(64, d1.data(), false);

  EXPECT_FALSE(cache.Install(0, d2.data(), false).has_value());
  EXPECT_EQ(cache.size(), 2u);
  const WriteBackCache::Line* line = cache.Peek(0);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->data[7], std::byte{0x0e});  // content replaced...
  EXPECT_TRUE(line->dirty);                   // ...dirty not cleared

  // The overwrite bumped line 0 to MRU, so 64 is the next victim.
  auto ev = cache.Install(128, d1.data(), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 64u);
}

// DropAll is the power-off path: it must NOT count write-backs or
// invalidations for the dirty lines it destroys (those counters feed the
// coherence accounting; a crash is not a write-back), and counters keep
// accumulating normally afterwards.
TEST(CacheTest, DropAllCountsNoWritebacksOrInvalidations) {
  CountedCache counted(4);
  WriteBackCache& cache = counted.cache;
  auto d = LinePattern(5);
  cache.Install(0, d.data(), true);
  cache.Install(64, d.data(), true);
  cache.Find(0);
  const uint64_t writebacks = counted.count("cache.writebacks");
  const uint64_t invalidations = counted.count("cache.invalidations");
  const uint64_t hits = counted.count("cache.hits");
  const uint64_t misses = counted.count("cache.misses");

  cache.DropAll();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(counted.count("cache.writebacks"), writebacks);
  EXPECT_EQ(counted.count("cache.invalidations"), invalidations);
  EXPECT_EQ(counted.count("cache.hits"), hits);
  EXPECT_EQ(counted.count("cache.misses"), misses);

  EXPECT_EQ(cache.Find(0), nullptr);  // gone, and the miss still counts
  EXPECT_EQ(counted.count("cache.misses"), misses + 1);
}

// The LRU semantics WriteBackCache must reproduce, kept deliberately naive:
// a recency list plus an ordered map, with the same counters.
class ReferenceLru {
 public:
  using Line = WriteBackCache::Line;
  using EvictedLine = WriteBackCache::EvictedLine;

  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  const Line* Find(uint64_t addr) {
    auto it = lines_.find(addr);
    if (it == lines_.end()) {
      ++misses;
      return nullptr;
    }
    ++hits;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return &it->second.line;
  }

  const Line* Peek(uint64_t addr) const {
    auto it = lines_.find(addr);
    return it == lines_.end() ? nullptr : &it->second.line;
  }

  std::optional<EvictedLine> Install(uint64_t addr, const std::byte* data, bool dirty) {
    if (capacity_ == 0) {
      return std::nullopt;
    }
    if (auto it = lines_.find(addr); it != lines_.end()) {
      std::memcpy(it->second.line.data.data(), data, kCachelineSize);
      it->second.line.dirty = it->second.line.dirty || dirty;
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      return std::nullopt;
    }
    std::optional<EvictedLine> victim;
    if (lines_.size() == capacity_) {
      victim = Take(lru_.back());
      writebacks += victim->dirty ? 1 : 0;
    }
    lru_.push_front(addr);
    Resident& r = lines_[addr];
    std::memcpy(r.line.data.data(), data, kCachelineSize);
    r.line.dirty = dirty;
    r.pos = lru_.begin();
    return victim;
  }

  std::optional<EvictedLine> Remove(uint64_t addr) {
    if (!lines_.contains(addr)) {
      return std::nullopt;
    }
    EvictedLine ev = Take(addr);
    writebacks += ev.dirty ? 1 : 0;
    ++invalidations;
    return ev;
  }

  void DropAll() {
    lines_.clear();
    lru_.clear();
  }

  size_t size() const { return lines_.size(); }
  // Resident addresses, most recent first.
  const std::list<uint64_t>& lru() const { return lru_; }

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t writebacks = 0;
  uint64_t invalidations = 0;

 private:
  struct Resident {
    Line line;
    std::list<uint64_t>::iterator pos;
  };

  EvictedLine Take(uint64_t addr) {
    auto it = lines_.find(addr);
    EvictedLine ev;
    ev.line_addr = addr;
    ev.dirty = it->second.line.dirty;
    ev.data = it->second.line.data;
    lru_.erase(it->second.pos);
    lines_.erase(it);
    return ev;
  }

  size_t capacity_;
  std::map<uint64_t, Resident> lines_;
  std::list<uint64_t> lru_;
};

void ExpectSameLine(const WriteBackCache::Line* got, const WriteBackCache::Line* want,
                    const std::string& where) {
  ASSERT_EQ(got == nullptr, want == nullptr) << where;
  if (got != nullptr) {
    EXPECT_EQ(got->dirty, want->dirty) << where;
    EXPECT_EQ(got->data, want->data) << where;
  }
}

void ExpectSameVictim(const std::optional<WriteBackCache::EvictedLine>& got,
                      const std::optional<WriteBackCache::EvictedLine>& want,
                      const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (got) {
    EXPECT_EQ(got->line_addr, want->line_addr) << where;
    EXPECT_EQ(got->dirty, want->dirty) << where;
    EXPECT_EQ(got->data, want->data) << where;
  }
}

// A seeded random mix of every operation, compared with the reference LRU at
// each step. The addresses come from a small set so that lines are evicted,
// re-installed and removed often; it mixes neighbouring lines, lines a large
// power-of-two stride apart and lines at the top of the address space, so
// probe chains form, wrap around the directory and are shortened by removal.
class CacheReferenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CacheReferenceTest, MatchesReferenceLru) {
  const size_t capacity = GetParam();
  CountedCache counted(capacity);
  WriteBackCache& cache = counted.cache;
  ReferenceLru ref(capacity);
  sim::Rng rng(capacity * 7919 + 1);

  std::vector<uint64_t> addrs;
  for (uint64_t i = 0; i < 3 * capacity + 8; ++i) {
    addrs.push_back(i * kCachelineSize);
    addrs.push_back((i << 20) * kCachelineSize);
    addrs.push_back(UINT64_MAX - kCachelineSize + 1 - i * kCachelineSize);
  }

  for (int step = 0; step < 20000; ++step) {
    const std::string where = "capacity " + std::to_string(capacity) + " step " +
                              std::to_string(step);
    uint64_t addr = addrs[rng.UniformInt(addrs.size())];
    uint64_t op = rng.UniformInt(uint64_t{100});
    if (op < 30) {
      ExpectSameLine(cache.Find(addr), ref.Find(addr), where + " Find");
    } else if (op < 45) {
      ExpectSameLine(cache.Peek(addr), ref.Peek(addr), where + " Peek");
    } else if (op < 84) {
      if (op < 55 && ref.size() > 0) {
        // Install over a resident line.
        auto pos = ref.lru().begin();
        std::advance(pos, rng.UniformInt(ref.size()));
        addr = *pos;
      }
      auto data = LinePattern(static_cast<uint8_t>(rng.UniformInt(uint64_t{256})));
      bool dirty = rng.Bernoulli(0.4);
      ExpectSameVictim(cache.Install(addr, data.data(), dirty),
                       ref.Install(addr, data.data(), dirty), where + " Install");
    } else if (op < 99) {
      ExpectSameVictim(cache.Remove(addr), ref.Remove(addr), where + " Remove");
    } else {
      cache.DropAll();
      ref.DropAll();
    }
    ASSERT_EQ(cache.size(), ref.size()) << where;
    ASSERT_EQ(counted.count("cache.hits"), ref.hits) << where;
    ASSERT_EQ(counted.count("cache.misses"), ref.misses) << where;
    ASSERT_EQ(counted.count("cache.writebacks"), ref.writebacks) << where;
    ASSERT_EQ(counted.count("cache.invalidations"), ref.invalidations) << where;
    if (HasFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheReferenceTest, ::testing::Values(1, 7, 64));

// Parameterized capacity sweep: occupancy never exceeds capacity and the
// cache stays internally consistent under a deterministic access pattern.
class CacheCapacityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CacheCapacityTest, OccupancyBounded) {
  size_t cap = GetParam();
  CountedCache counted(cap);
  WriteBackCache& cache = counted.cache;
  auto d = LinePattern(0x7f);
  for (uint64_t i = 0; i < 1000; ++i) {
    uint64_t addr = (i * 37 % 256) * kCachelineSize;
    if (cache.Find(addr) == nullptr) {
      cache.Install(addr, d.data(), i % 3 == 0);
    }
    EXPECT_LE(cache.size(), cap);
  }
  EXPECT_EQ(counted.count("cache.hits") + counted.count("cache.misses"), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacityTest,
                         ::testing::Values(1, 2, 7, 64, 1024));

}  // namespace
}  // namespace cxlpool::mem
