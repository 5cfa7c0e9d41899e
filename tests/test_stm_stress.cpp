// Randomized MPMC stress sweep for the STM channel, run under TSan in CI.
//
// Several producers, consumers, and an attach/detach chaos thread hammer one
// channel while a sampler repeatedly snapshots Stats() and asserts the
// cross-counter invariant that must hold at every locked instant:
//
//   puts == reclaimed + dropped + occupancy
//
// The sweep runs over both storage modes (map and ring) and over bounded and
// unbounded capacities, so data races in either backend, in the cached
// min-frontier bookkeeping, or in the waiter-count wakeup discipline surface
// as TSan reports or invariant violations.
#include <gtest/gtest.h>

#include <atomic>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "stm/channel.hpp"

namespace ss::stm {
namespace {

struct StressCase {
  const char* name;
  StorageMode storage;
  std::size_t capacity;
};

// gtest would otherwise print the struct's bytes, `name`'s pointer among
// them, which moves with every run, into the listed test names that ctest
// registers.
void PrintTo(const StressCase& c, std::ostream* os) { *os << c.name; }

class StmStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(StmStress, InvariantHoldsUnderRandomizedTraffic) {
  const StressCase& c = GetParam();
  Channel ch(ChannelId(0), std::string("stress-") + c.name,
             ChannelOptions{c.capacity, c.storage});

  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPutsPerProducer = 2000;
  std::atomic<Timestamp> next_ts{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;

  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(static_cast<std::uint64_t>(p) * 7919 + 1);
      ConnId out = ch.Attach(ConnDir::kOutput);
      for (int i = 0; i < kPutsPerProducer; ++i) {
        const Timestamp ts = next_ts.fetch_add(1);
        // Only deadline-free modes, so the test cannot stall: drops and
        // WouldBlock failures are part of the traffic being stressed.
        const PutMode mode = rng.NextBelow(2) ? PutMode::kDropOldest
                                              : PutMode::kNonBlocking;
        if (rng.NextBelow(4) == 0) {
          (void)ch.PutBatch(
              out, {Item{ts, Payload::Make<int>(i)}}, mode);
        } else if (rng.NextBelow(2) == 0) {
          (void)ch.PutValue<int>(out, ts, i, mode);
        } else {
          (void)ch.Put(out, ts, Payload::Make<int>(i), mode);
        }
      }
      ch.Detach(out);
    });
  }

  for (int k = 0; k < kConsumers; ++k) {
    threads.emplace_back([&, k] {
      Rng rng(static_cast<std::uint64_t>(k) * 104729 + 5);
      ConnId in = ch.Attach(ConnDir::kInput);
      Timestamp seen = kNoTimestamp;
      while (!stop.load(std::memory_order_relaxed)) {
        TsQuery q;
        switch (rng.NextBelow(5)) {
          case 0: q = TsQuery::Newest(); break;
          case 1: q = TsQuery::Oldest(); break;
          case 2: q = TsQuery::NewestUnseen(); break;
          case 3: q = TsQuery::After(seen); break;
          default:
            q = TsQuery::Exact(static_cast<Timestamp>(
                rng.NextBelow(static_cast<std::uint64_t>(
                    next_ts.load() + 1))));
            break;
        }
        Expected<Item> item = rng.NextBelow(8) == 0
                                  ? ch.GetFor(in, q, /*timeout=*/500)
                                  : ch.Get(in, q, GetMode::kNonBlocking);
        if (item.ok()) seen = std::max(seen, item->ts);
        if (rng.NextBelow(4) == 0 && seen != kNoTimestamp) {
          (void)ch.Consume(in, seen - 8);
        }
      }
      // Unpin GC before the final drain check.
      (void)ch.Consume(in, next_ts.load());
      ch.Detach(in);
    });
  }

  // Chaos: attach and detach connections of both directions so conns_
  // reallocates while getters are blocked and frontiers come and go.
  threads.emplace_back([&] {
    Rng rng(424243);
    while (!stop.load(std::memory_order_relaxed)) {
      ConnId extra = ch.Attach(rng.NextBelow(2) ? ConnDir::kInput
                                                : ConnDir::kOutput);
      std::this_thread::yield();
      ch.Detach(extra);
    }
  });

  // Sampler: the coherent-snapshot invariant must hold on every sample.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const ChannelStats s = ch.Stats();
      ASSERT_EQ(s.puts, s.reclaimed + s.dropped + s.occupancy);
      if (c.capacity != 0) {
        ASSERT_LE(s.occupancy, c.capacity);
      }
      ASSERT_LE(s.occupancy, s.max_occupancy);
      std::this_thread::yield();
    }
  });

  // Producers finish on their own; everyone else runs until stopped.
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)]
      .join();
  stop.store(true);
  for (std::size_t i = kProducers; i < threads.size(); ++i) threads[i].join();
  ch.Shutdown();

  const ChannelStats s = ch.Stats();
  EXPECT_EQ(s.puts, s.reclaimed + s.dropped + s.occupancy);
  if (c.capacity != 0) {
    EXPECT_LE(s.max_occupancy, c.capacity);
  }
  EXPECT_GT(s.puts, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StmStress,
    ::testing::Values(StressCase{"map_unbounded", StorageMode::kMap, 0},
                      StressCase{"map_bounded", StorageMode::kMap, 32},
                      StressCase{"ring_small", StorageMode::kRing, 8},
                      StressCase{"ring_large", StorageMode::kRing, 256}),
    [](const ::testing::TestParamInfo<StressCase>& case_info) {
      return std::string(case_info.param.name);
    });

}  // namespace
}  // namespace ss::stm
