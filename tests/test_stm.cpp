// Tests for Space-Time Memory: channel semantics (puts/gets/wildcards/
// ts_range neighbors), consume-driven garbage collection, capacity flow
// control, shutdown, the channel table and the work queue.
#include <gtest/gtest.h>

#include <thread>

#include "core/time.hpp"
#include "stm/channel.hpp"
#include "stm/channel_table.hpp"
#include "stm/work_queue.hpp"

namespace ss::stm {
namespace {

class ChannelFixture : public ::testing::Test {
 protected:
  ChannelFixture() : ch_(ChannelId(0), "test") {
    in_ = ch_.Attach(ConnDir::kInput);
    out_ = ch_.Attach(ConnDir::kOutput);
  }

  Status PutInt(Timestamp ts, int value,
                PutMode mode = PutMode::kNonBlocking) {
    return ch_.Put(out_, ts, Payload::Make<int>(value), mode);
  }

  Expected<int> GetInt(TsQuery q, GetMode mode = GetMode::kNonBlocking) {
    auto item = ch_.Get(in_, q, mode);
    if (!item.ok()) return item.status();
    return *item->payload.As<int>();
  }

  Channel ch_;
  ConnId in_;
  ConnId out_;
};

TEST_F(ChannelFixture, PutThenExactGet) {
  ASSERT_TRUE(PutInt(5, 55).ok());
  auto v = GetInt(TsQuery::Exact(5));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 55);
}

TEST_F(ChannelFixture, GetMissingReturnsNotFound) {
  auto v = GetInt(TsQuery::Exact(5));
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST_F(ChannelFixture, DuplicateTimestampRejected) {
  ASSERT_TRUE(PutInt(1, 10).ok());
  EXPECT_EQ(PutInt(1, 11).code(), StatusCode::kAlreadyExists);
}

TEST_F(ChannelFixture, ItemsMayArriveOutOfOrder) {
  ASSERT_TRUE(PutInt(7, 70).ok());
  ASSERT_TRUE(PutInt(3, 30).ok());
  ASSERT_TRUE(PutInt(5, 50).ok());
  EXPECT_EQ(*GetInt(TsQuery::Oldest()), 30);
  EXPECT_EQ(*GetInt(TsQuery::Newest()), 70);
  EXPECT_EQ(*GetInt(TsQuery::Exact(5)), 50);
}

TEST_F(ChannelFixture, NeighborsReportedOnExactMiss) {
  ASSERT_TRUE(PutInt(2, 20).ok());
  ASSERT_TRUE(PutInt(8, 80).ok());
  TsNeighbors nb;
  auto item = ch_.Get(in_, TsQuery::Exact(5), GetMode::kNonBlocking, &nb);
  EXPECT_FALSE(item.ok());
  ASSERT_TRUE(nb.before.has_value());
  ASSERT_TRUE(nb.after.has_value());
  EXPECT_EQ(*nb.before, 2);
  EXPECT_EQ(*nb.after, 8);
}

TEST_F(ChannelFixture, NeighborsPartialWhenOnOneSide) {
  ASSERT_TRUE(PutInt(2, 20).ok());
  TsNeighbors nb;
  (void)ch_.Get(in_, TsQuery::Exact(5), GetMode::kNonBlocking, &nb);
  EXPECT_TRUE(nb.before.has_value());
  EXPECT_FALSE(nb.after.has_value());
}

TEST_F(ChannelFixture, NewestUnseenAdvances) {
  ASSERT_TRUE(PutInt(1, 10).ok());
  EXPECT_EQ(*GetInt(TsQuery::NewestUnseen()), 10);
  // Nothing new yet.
  EXPECT_EQ(GetInt(TsQuery::NewestUnseen()).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(PutInt(2, 20).ok());
  EXPECT_EQ(*GetInt(TsQuery::NewestUnseen()), 20);
}

TEST_F(ChannelFixture, AfterQueryReturnsOldestNewer) {
  ASSERT_TRUE(PutInt(2, 20).ok());
  ASSERT_TRUE(PutInt(4, 40).ok());
  ASSERT_TRUE(PutInt(6, 60).ok());
  auto item = ch_.Get(in_, TsQuery::After(2), GetMode::kNonBlocking);
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(item->ts, 4);
}

TEST_F(ChannelFixture, ConsumeDrivesGarbageCollection) {
  for (Timestamp t = 0; t < 5; ++t) ASSERT_TRUE(PutInt(t, 0).ok());
  EXPECT_EQ(ch_.Occupancy(), 5u);
  ASSERT_TRUE(ch_.Consume(in_, 2).ok());
  EXPECT_EQ(ch_.Occupancy(), 2u);
  EXPECT_EQ(ch_.Stats().reclaimed, 3u);
  ASSERT_TRUE(ch_.GcFrontier().has_value());
  EXPECT_EQ(*ch_.GcFrontier(), 2);
}

TEST_F(ChannelFixture, GcWaitsForAllInputConnections) {
  ConnId in2 = ch_.Attach(ConnDir::kInput);
  for (Timestamp t = 0; t < 4; ++t) ASSERT_TRUE(PutInt(t, 0).ok());
  ASSERT_TRUE(ch_.Consume(in_, 3).ok());
  EXPECT_EQ(ch_.Occupancy(), 4u);  // in2 has not consumed
  ASSERT_TRUE(ch_.Consume(in2, 1).ok());
  EXPECT_EQ(ch_.Occupancy(), 2u);  // min(3, 1) = 1 reclaimed 0..1
}

TEST_F(ChannelFixture, DetachedConnectionNoLongerPinsItems) {
  ConnId in2 = ch_.Attach(ConnDir::kInput);
  for (Timestamp t = 0; t < 4; ++t) ASSERT_TRUE(PutInt(t, 0).ok());
  ASSERT_TRUE(ch_.Consume(in_, 3).ok());
  EXPECT_EQ(ch_.Occupancy(), 4u);
  ch_.Detach(in2);
  EXPECT_EQ(ch_.Occupancy(), 0u);
}

TEST_F(ChannelFixture, GetBelowGcFrontierIsOutOfRange) {
  for (Timestamp t = 0; t < 3; ++t) ASSERT_TRUE(PutInt(t, 0).ok());
  ASSERT_TRUE(ch_.Consume(in_, 1).ok());
  EXPECT_EQ(GetInt(TsQuery::Exact(0)).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(ChannelFixture, PutBelowGcFrontierRejected) {
  for (Timestamp t = 0; t < 3; ++t) ASSERT_TRUE(PutInt(t, 0).ok());
  ASSERT_TRUE(ch_.Consume(in_, 1).ok());
  EXPECT_EQ(PutInt(0, 99).code(), StatusCode::kOutOfRange);
}

TEST_F(ChannelFixture, PutOnInputConnectionFails) {
  EXPECT_EQ(ch_.Put(in_, 0, Payload::Make<int>(1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ChannelFixture, GetOnOutputConnectionFails) {
  EXPECT_EQ(ch_.Get(out_, TsQuery::Newest()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ChannelFixture, InvalidConnectionRejected) {
  EXPECT_EQ(ch_.Put(ConnId(), 0, Payload::Make<int>(1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ch_.Get(ConnId(99), TsQuery::Newest()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ChannelFixture, StatsTrackOccupancyHighWater) {
  for (Timestamp t = 0; t < 6; ++t) ASSERT_TRUE(PutInt(t, 0).ok());
  ASSERT_TRUE(ch_.Consume(in_, 5).ok());
  auto stats = ch_.Stats();
  EXPECT_EQ(stats.puts, 6u);
  EXPECT_EQ(stats.max_occupancy, 6u);
  EXPECT_EQ(stats.occupancy, 0u);
}

TEST(ChannelCapacityTest, NonBlockingPutFailsWhenFull) {
  Channel ch(ChannelId(0), "bounded", ChannelOptions{2});
  ConnId out = ch.Attach(ConnDir::kOutput);
  EXPECT_TRUE(ch.Put(out, 0, Payload::Make<int>(0),
                     PutMode::kNonBlocking).ok());
  EXPECT_TRUE(ch.Put(out, 1, Payload::Make<int>(1),
                     PutMode::kNonBlocking).ok());
  EXPECT_EQ(ch.Put(out, 2, Payload::Make<int>(2),
                   PutMode::kNonBlocking).code(),
            StatusCode::kWouldBlock);
}

TEST(ChannelCapacityTest, DropOldestMakesRoom) {
  Channel ch(ChannelId(0), "bounded", ChannelOptions{2});
  ConnId out = ch.Attach(ConnDir::kOutput);
  ConnId in = ch.Attach(ConnDir::kInput);
  EXPECT_TRUE(ch.Put(out, 0, Payload::Make<int>(0)).ok());
  EXPECT_TRUE(ch.Put(out, 1, Payload::Make<int>(1)).ok());
  EXPECT_TRUE(ch.Put(out, 2, Payload::Make<int>(2),
                     PutMode::kDropOldest).ok());
  EXPECT_EQ(ch.Occupancy(), 2u);
  EXPECT_EQ(ch.Stats().dropped, 1u);
  auto oldest = ch.Get(in, TsQuery::Oldest(), GetMode::kNonBlocking);
  ASSERT_TRUE(oldest.ok());
  EXPECT_EQ(oldest->ts, 1);
}

TEST(ChannelCapacityTest, DropOldestRejectsStaleInsert) {
  Channel ch(ChannelId(0), "bounded", ChannelOptions{2});
  ConnId out = ch.Attach(ConnDir::kOutput);
  EXPECT_TRUE(ch.Put(out, 5, Payload::Make<int>(0)).ok());
  EXPECT_TRUE(ch.Put(out, 6, Payload::Make<int>(1)).ok());
  // Inserting ts=3 would evict ts=5 and land below the frontier.
  EXPECT_EQ(ch.Put(out, 3, Payload::Make<int>(2),
                   PutMode::kDropOldest).code(),
            StatusCode::kOutOfRange);
}

TEST(ChannelBlockingTest, BlockingGetWokenByPut) {
  Channel ch(ChannelId(0), "blocking");
  ConnId in = ch.Attach(ConnDir::kInput);
  ConnId out = ch.Attach(ConnDir::kOutput);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(ch.Put(out, 1, Payload::Make<int>(42)).ok());
  });
  auto item = ch.Get(in, TsQuery::Exact(1), GetMode::kBlocking);
  producer.join();
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(*item->payload.As<int>(), 42);
}

TEST(ChannelBlockingTest, BlockingPutWokenByConsume) {
  Channel ch(ChannelId(0), "blocking", ChannelOptions{1});
  ConnId in = ch.Attach(ConnDir::kInput);
  ConnId out = ch.Attach(ConnDir::kOutput);
  ASSERT_TRUE(ch.Put(out, 0, Payload::Make<int>(0)).ok());
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(ch.Consume(in, 0).ok());
  });
  EXPECT_TRUE(ch.Put(out, 1, Payload::Make<int>(1),
                     PutMode::kBlocking).ok());
  consumer.join();
  EXPECT_GE(ch.Stats().blocked_puts, 1u);
}

TEST(ChannelBlockingTest, GetForTimesOut) {
  Channel ch(ChannelId(0), "deadline");
  ConnId in = ch.Attach(ConnDir::kInput);
  Stopwatch sw;
  auto item = ch.GetFor(in, TsQuery::Exact(1), ticks::FromMillis(30));
  EXPECT_EQ(item.status().code(), StatusCode::kWouldBlock);
  EXPECT_GE(sw.Elapsed(), ticks::FromMillis(25));
  EXPECT_LT(sw.Elapsed(), ticks::FromSeconds(2));
}

TEST(ChannelBlockingTest, GetForReturnsWhenItemArrives) {
  Channel ch(ChannelId(0), "deadline");
  ConnId in = ch.Attach(ConnDir::kInput);
  ConnId out = ch.Attach(ConnDir::kOutput);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(ch.Put(out, 1, Payload::Make<int>(7)).ok());
  });
  auto item = ch.GetFor(in, TsQuery::Exact(1), ticks::FromSeconds(5));
  producer.join();
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(*item->payload.As<int>(), 7);
}

TEST(ChannelBlockingTest, GetForFailsFastBelowGcFrontier) {
  Channel ch(ChannelId(0), "deadline");
  ConnId in = ch.Attach(ConnDir::kInput);
  ConnId out = ch.Attach(ConnDir::kOutput);
  ASSERT_TRUE(ch.Put(out, 0, Payload::Make<int>(0)).ok());
  ASSERT_TRUE(ch.Consume(in, 0).ok());
  Stopwatch sw;
  auto item = ch.GetFor(in, TsQuery::Exact(0), ticks::FromSeconds(5));
  // OutOfRange can never be satisfied: no waiting.
  EXPECT_EQ(item.status().code(), StatusCode::kOutOfRange);
  EXPECT_LT(sw.Elapsed(), ticks::FromSeconds(1));
}

TEST(ChannelBlockingTest, ShutdownWakesBlockedGet) {
  Channel ch(ChannelId(0), "blocking");
  ConnId in = ch.Attach(ConnDir::kInput);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Shutdown();
  });
  auto item = ch.Get(in, TsQuery::Exact(1), GetMode::kBlocking);
  closer.join();
  EXPECT_EQ(item.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(ch.shut_down());
}

TEST(ChannelBlockingTest, ShutdownDrainsExistingItems) {
  Channel ch(ChannelId(0), "drain");
  ConnId in = ch.Attach(ConnDir::kInput);
  ConnId out = ch.Attach(ConnDir::kOutput);
  ASSERT_TRUE(ch.Put(out, 0, Payload::Make<int>(10)).ok());
  ASSERT_TRUE(ch.Put(out, 1, Payload::Make<int>(11)).ok());
  ch.Shutdown();
  // Existing items stay readable after shutdown (drain semantics)...
  auto item = ch.Get(in, TsQuery::Exact(1), GetMode::kNonBlocking);
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(*item->payload.As<int>(), 11);
  // ...but missing items report cancellation instead of waiting,
  EXPECT_EQ(ch.Get(in, TsQuery::Exact(5), GetMode::kBlocking)
                .status()
                .code(),
            StatusCode::kCancelled);
  // and new puts are rejected.
  EXPECT_EQ(ch.Put(out, 2, Payload::Make<int>(12)).code(),
            StatusCode::kCancelled);
}

TEST(ChannelBlockingTest, ConcurrentProducerConsumerInOrder) {
  Channel ch(ChannelId(0), "stream", ChannelOptions{4});
  ConnId in = ch.Attach(ConnDir::kInput);
  ConnId out = ch.Attach(ConnDir::kOutput);
  constexpr int kN = 200;
  std::thread producer([&] {
    for (Timestamp t = 0; t < kN; ++t) {
      ASSERT_TRUE(ch.Put(out, t, Payload::Make<int>(static_cast<int>(t) * 3),
                         PutMode::kBlocking).ok());
    }
  });
  for (Timestamp t = 0; t < kN; ++t) {
    auto item = ch.Get(in, TsQuery::Exact(t), GetMode::kBlocking);
    ASSERT_TRUE(item.ok());
    EXPECT_EQ(*item->payload.As<int>(), static_cast<int>(t) * 3);
    ASSERT_TRUE(ch.Consume(in, t).ok());
  }
  producer.join();
  // Flow control bounded occupancy the whole way.
  EXPECT_LE(ch.Stats().max_occupancy, 4u);
}

TEST(ChannelTest, LateAttachingInputStartsAtGcFrontier) {
  Channel ch(ChannelId(0), "late");
  ConnId in = ch.Attach(ConnDir::kInput);
  ConnId out = ch.Attach(ConnDir::kOutput);
  for (Timestamp t = 0; t < 4; ++t) {
    ASSERT_TRUE(ch.Put(out, t, Payload::Make<int>(0)).ok());
  }
  ASSERT_TRUE(ch.Consume(in, 1).ok());
  // A new input connection must not block GC below the current frontier.
  ConnId in2 = ch.Attach(ConnDir::kInput);
  ASSERT_TRUE(ch.Consume(in, 3).ok());
  EXPECT_EQ(ch.Occupancy(), 2u);  // pinned by in2's frontier at 1
  ASSERT_TRUE(ch.Consume(in2, 3).ok());
  EXPECT_EQ(ch.Occupancy(), 0u);
}

TEST(ChannelTest, TypedHelpers) {
  Channel ch(ChannelId(0), "typed");
  ConnId in = ch.Attach(ConnDir::kInput);
  ConnId out = ch.Attach(ConnDir::kOutput);
  ASSERT_TRUE(ch.PutValue<std::string>(out, 0, "hello").ok());
  auto got = ch.GetValue<std::string>(in, TsQuery::Newest(),
                                      GetMode::kNonBlocking);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->first, 0);
  EXPECT_EQ(*got->second, "hello");
}

// ---- channel table ------------------------------------------------------------

TEST(ChannelTableTest, CreateAndFind) {
  ChannelTable table;
  auto created = table.Create("frames", ChannelOptions{8}, NodeId(1));
  ASSERT_TRUE(created.ok());
  auto found = table.Find("frames");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*created, *found);
  EXPECT_EQ(table.Home((*found)->id()), NodeId(1));
  EXPECT_EQ(table.size(), 1u);
}

TEST(ChannelTableTest, DuplicateNameRejected) {
  ChannelTable table;
  ASSERT_TRUE(table.Create("x").ok());
  EXPECT_EQ(table.Create("x").status().code(), StatusCode::kAlreadyExists);
}

TEST(ChannelTableTest, FindMissingFails) {
  ChannelTable table;
  EXPECT_EQ(table.Find("nope").status().code(), StatusCode::kNotFound);
}

TEST(ChannelTableTest, GetByIdAndStats) {
  ChannelTable table;
  auto a = table.Create("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(table.Get((*a)->id()), *a);
  EXPECT_EQ(table.Get(ChannelId(42)), nullptr);
  auto stats = table.AllStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].first, "a");
}

TEST(ChannelTableTest, ShutdownAllWakesWaiters) {
  ChannelTable table;
  auto ch = table.Create("c");
  ASSERT_TRUE(ch.ok());
  ConnId in = (*ch)->Attach(ConnDir::kInput);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    table.ShutdownAll();
  });
  auto item = (*ch)->Get(in, TsQuery::Newest(), GetMode::kBlocking);
  closer.join();
  EXPECT_EQ(item.status().code(), StatusCode::kCancelled);
}

// ---- storage modes ---------------------------------------------------------------

TEST(StorageModeTest, AutoResolvesFromCapacity) {
  Channel unbounded(ChannelId(0), "u");
  EXPECT_EQ(unbounded.storage_mode(), StorageMode::kMap);
  Channel small(ChannelId(1), "s", ChannelOptions{8});
  EXPECT_EQ(small.storage_mode(), StorageMode::kRing);
  Channel big(ChannelId(2), "b",
              ChannelOptions{kRingAutoMaxCapacity + 1});
  EXPECT_EQ(big.storage_mode(), StorageMode::kMap);
  Channel forced(ChannelId(3), "f", ChannelOptions{8, StorageMode::kMap});
  EXPECT_EQ(forced.storage_mode(), StorageMode::kMap);
}

/// ChannelFixture's semantics, over ring storage.
class RingChannelFixture : public ::testing::Test {
 protected:
  RingChannelFixture()
      : ch_(ChannelId(0), "ring",
            ChannelOptions{8, StorageMode::kRing}) {
    in_ = ch_.Attach(ConnDir::kInput);
    out_ = ch_.Attach(ConnDir::kOutput);
  }

  Status PutInt(Timestamp ts, int value,
                PutMode mode = PutMode::kNonBlocking) {
    return ch_.Put(out_, ts, Payload::Make<int>(value), mode);
  }

  Expected<int> GetInt(TsQuery q, GetMode mode = GetMode::kNonBlocking) {
    auto item = ch_.Get(in_, q, mode);
    if (!item.ok()) return item.status();
    return *item->payload.As<int>();
  }

  Channel ch_;
  ConnId in_;
  ConnId out_;
};

TEST_F(RingChannelFixture, OutOfOrderPutsStaySorted) {
  ASSERT_TRUE(PutInt(7, 70).ok());
  ASSERT_TRUE(PutInt(3, 30).ok());
  ASSERT_TRUE(PutInt(5, 50).ok());
  EXPECT_EQ(*GetInt(TsQuery::Oldest()), 30);
  EXPECT_EQ(*GetInt(TsQuery::Newest()), 70);
  EXPECT_EQ(*GetInt(TsQuery::Exact(5)), 50);
  EXPECT_EQ(GetInt(TsQuery::Exact(4)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(RingChannelFixture, NeighborsReportedOnExactMiss) {
  ASSERT_TRUE(PutInt(2, 20).ok());
  ASSERT_TRUE(PutInt(8, 80).ok());
  TsNeighbors nb;
  auto item = ch_.Get(in_, TsQuery::Exact(5), GetMode::kNonBlocking, &nb);
  EXPECT_FALSE(item.ok());
  ASSERT_TRUE(nb.before.has_value());
  ASSERT_TRUE(nb.after.has_value());
  EXPECT_EQ(*nb.before, 2);
  EXPECT_EQ(*nb.after, 8);
}

TEST_F(RingChannelFixture, GcAndWrapAroundPreserveOrder) {
  for (Timestamp t = 0; t < 8; ++t) ASSERT_TRUE(PutInt(t, 0).ok());
  ASSERT_TRUE(ch_.Consume(in_, 3).ok());
  EXPECT_EQ(ch_.Occupancy(), 4u);
  // These inserts wrap the circular window past its physical end.
  for (Timestamp t = 8; t < 12; ++t) {
    ASSERT_TRUE(PutInt(t, static_cast<int>(t)).ok());
  }
  EXPECT_EQ(ch_.Occupancy(), 8u);
  EXPECT_EQ(*ch_.OldestTs(), 4);
  EXPECT_EQ(*ch_.NewestTs(), 11);
  EXPECT_EQ(*GetInt(TsQuery::Exact(9)), 9);
  auto after = ch_.Get(in_, TsQuery::After(7), GetMode::kNonBlocking);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->ts, 8);
}

TEST_F(RingChannelFixture, FullRingRejectsAndDropsLikeMapMode) {
  for (Timestamp t = 0; t < 8; ++t) ASSERT_TRUE(PutInt(t, 0).ok());
  EXPECT_EQ(PutInt(8, 0).code(), StatusCode::kWouldBlock);
  ASSERT_TRUE(PutInt(8, 0, PutMode::kDropOldest).ok());
  EXPECT_EQ(*ch_.OldestTs(), 1);
  EXPECT_EQ(ch_.Stats().dropped, 1u);
  // A stale insert below the drop frontier is rejected even with room.
  ASSERT_TRUE(ch_.Consume(in_, 5).ok());
  EXPECT_EQ(PutInt(0, 0, PutMode::kDropOldest).code(),
            StatusCode::kOutOfRange);
}

TEST_F(RingChannelFixture, DuplicateTimestampRejected) {
  ASSERT_TRUE(PutInt(1, 10).ok());
  EXPECT_EQ(PutInt(1, 11).code(), StatusCode::kAlreadyExists);
}

// ---- batched puts and gets -------------------------------------------------------

TEST(ChannelBatchTest, PutBatchInsertsAllUnderOneCall) {
  Channel ch(ChannelId(0), "b");
  ConnId out = ch.Attach(ConnDir::kOutput);
  ConnId in = ch.Attach(ConnDir::kInput);
  std::vector<Item> items;
  for (Timestamp t = 0; t < 5; ++t) {
    items.push_back(Item{t, Payload::Make<int>(static_cast<int>(t) * 10)});
  }
  ASSERT_TRUE(ch.PutBatch(out, std::move(items)).ok());
  EXPECT_EQ(ch.Occupancy(), 5u);
  auto stats = ch.Stats();
  EXPECT_EQ(stats.batch_puts, 1u);
  EXPECT_EQ(stats.puts, 5u);
  for (Timestamp t = 0; t < 5; ++t) {
    auto item = ch.Get(in, TsQuery::Exact(t), GetMode::kNonBlocking);
    ASSERT_TRUE(item.ok());
    EXPECT_EQ(*item->payload.As<int>(), static_cast<int>(t) * 10);
  }
}

TEST(ChannelBatchTest, PutBatchStopsAtFirstFailureKeepingPrefix) {
  Channel ch(ChannelId(0), "b");
  ConnId out = ch.Attach(ConnDir::kOutput);
  ASSERT_TRUE(ch.Put(out, 2, Payload::Make<int>(0)).ok());
  std::vector<Item> items;
  for (Timestamp t = 0; t < 4; ++t) {
    items.push_back(Item{t, Payload::Make<int>(0)});
  }
  EXPECT_EQ(ch.PutBatch(out, std::move(items)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(ch.Occupancy(), 3u);  // pre-existing 2 plus the 0,1 prefix
  EXPECT_EQ(*ch.NewestTs(), 2);   // 3 was never inserted
}

TEST(ChannelBatchTest, GetBatchMixesRequiredAndOptional) {
  Channel ch(ChannelId(0), "b");
  ConnId out = ch.Attach(ConnDir::kOutput);
  ConnId in = ch.Attach(ConnDir::kInput);
  ASSERT_TRUE(ch.Put(out, 5, Payload::Make<int>(55)).ok());
  auto got = ch.GetBatch(in,
                         {BatchGet{TsQuery::Exact(5), true},
                          BatchGet{TsQuery::Exact(4), false}},
                         GetMode::kNonBlocking);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 2u);
  EXPECT_EQ((*got)[0].ts, 5);
  EXPECT_EQ(*(*got)[0].payload.As<int>(), 55);
  EXPECT_EQ((*got)[1].ts, kNoTimestamp);  // optional miss -> empty item
  EXPECT_TRUE((*got)[1].payload.empty());
  auto stats = ch.Stats();
  EXPECT_EQ(stats.batch_gets, 1u);
  EXPECT_EQ(stats.failed_gets, 1u);
}

TEST(ChannelBatchTest, GetBatchRequiredMissFailsNonBlocking) {
  Channel ch(ChannelId(0), "b");
  (void)ch.Attach(ConnDir::kOutput);
  ConnId in = ch.Attach(ConnDir::kInput);
  auto got = ch.GetBatch(in, {BatchGet{TsQuery::Exact(1), true}},
                         GetMode::kNonBlocking);
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST(ChannelBatchTest, GetBatchBlocksPerRequiredQuery) {
  Channel ch(ChannelId(0), "b");
  ConnId out = ch.Attach(ConnDir::kOutput);
  ConnId in = ch.Attach(ConnDir::kInput);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(ch.Put(out, 1, Payload::Make<int>(10)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(ch.Put(out, 2, Payload::Make<int>(20)).ok());
  });
  auto got = ch.GetBatch(in,
                         {BatchGet{TsQuery::Exact(1), true},
                          BatchGet{TsQuery::Exact(2), true}},
                         GetMode::kBlocking);
  producer.join();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*(*got)[0].payload.As<int>(), 10);
  EXPECT_EQ(*(*got)[1].payload.As<int>(), 20);
}

TEST(ChannelBatchTest, GetBatchOnOutputConnectionFails) {
  Channel ch(ChannelId(0), "b");
  ConnId out = ch.Attach(ConnDir::kOutput);
  auto got = ch.GetBatch(out, {BatchGet{TsQuery::Newest(), true}},
                         GetMode::kNonBlocking);
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

// ---- wakeup discipline and stats -------------------------------------------------

TEST(ChannelStatsTest, NotifySuppressedWithoutWaiters) {
  Channel ch(ChannelId(0), "w");
  ConnId out = ch.Attach(ConnDir::kOutput);
  (void)ch.Attach(ConnDir::kInput);
  ASSERT_TRUE(ch.Put(out, 1, Payload::Make<int>(1)).ok());
  auto stats = ch.Stats();
  EXPECT_EQ(stats.notifies_sent, 0u);
  EXPECT_GE(stats.notifies_suppressed, 1u);
}

TEST(ChannelStatsTest, NotifySentWhenGetterWaits) {
  Channel ch(ChannelId(0), "w");
  ConnId out = ch.Attach(ConnDir::kOutput);
  ConnId in = ch.Attach(ConnDir::kInput);
  std::thread getter([&] {
    auto item = ch.Get(in, TsQuery::Exact(1), GetMode::kBlocking);
    ASSERT_TRUE(item.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(ch.Put(out, 1, Payload::Make<int>(1)).ok());
  getter.join();
  EXPECT_GE(ch.Stats().notifies_sent, 1u);
}

TEST(ChannelStatsTest, SnapshotInvariantHoldsAfterMixedTraffic) {
  Channel ch(ChannelId(0), "inv", ChannelOptions{4});
  ConnId out = ch.Attach(ConnDir::kOutput);
  ConnId in = ch.Attach(ConnDir::kInput);
  for (Timestamp t = 0; t < 32; ++t) {
    (void)ch.Put(out, t, Payload::Make<int>(0), PutMode::kDropOldest);
    if (t % 3 == 0) (void)ch.Consume(in, t - 2);
  }
  auto s = ch.Stats();
  EXPECT_EQ(s.puts, s.reclaimed + s.dropped + s.occupancy);
}

// ---- work queue ------------------------------------------------------------------

TEST(WorkQueueTest, FifoOrder) {
  WorkQueue<int> q;
  ASSERT_TRUE(q.Push(1).ok());
  ASSERT_TRUE(q.Push(2).ok());
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
}

TEST(WorkQueueTest, TryPopEmptyReturnsNothing) {
  WorkQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(WorkQueueTest, CapacityEnforcedByTryPush) {
  WorkQueue<int> q(1);
  ASSERT_TRUE(q.TryPush(1).ok());
  EXPECT_EQ(q.TryPush(2).code(), StatusCode::kWouldBlock);
}

TEST(WorkQueueTest, ShutdownDrainsThenEnds) {
  WorkQueue<int> q;
  ASSERT_TRUE(q.Push(7).ok());
  q.Shutdown();
  EXPECT_EQ(*q.Pop(), 7);          // drains existing item
  EXPECT_FALSE(q.Pop().has_value());  // then reports end
  EXPECT_EQ(q.Push(8).code(), StatusCode::kCancelled);
}

TEST(WorkQueueTest, PushBatchKeepsFifoOrder) {
  WorkQueue<int> q;
  ASSERT_TRUE(q.PushBatch({1, 2, 3}).ok());
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(WorkQueueTest, PushBatchBlocksForSpacePerItem) {
  WorkQueue<int> q(2);
  std::thread consumer([&] {
    for (int i = 0; i < 6; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      auto v = q.Pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i);
    }
  });
  ASSERT_TRUE(q.PushBatch({0, 1, 2, 3, 4, 5}).ok());
  consumer.join();
  EXPECT_EQ(q.size(), 0u);
}

TEST(WorkQueueTest, PushBatchAfterShutdownCancelled) {
  WorkQueue<int> q;
  q.Shutdown();
  EXPECT_EQ(q.PushBatch({1, 2}).code(), StatusCode::kCancelled);
  EXPECT_EQ(q.size(), 0u);
}

TEST(WorkQueueTest, ManyProducersManyConsumers) {
  WorkQueue<int> q(16);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i).ok());
      }
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (count.load() < kProducers * kPerProducer) {
        auto v = q.TryPop();
        if (v) {
          sum.fetch_add(*v);
          count.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

}  // namespace
}  // namespace ss::stm
