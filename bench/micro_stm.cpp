// Microbenchmarks of the Space-Time Memory data plane.
//
// Covers the PR 5 hot paths: the single-threaded put/get/consume frame loop
// over both storage backends (map vs ring), a
// contended many-producer/many-consumer sweep with dropping puts and
// mixed exact/wildcard gets, the batched frame gather against the per-edge
// get loop it replaced, a bounded streaming pipeline, work-queue batching,
// and the sharded channel-table lookup.
//
// Pass `--json <file>` to record machine-readable results for
// tools/bench_compare (bench/BENCH_stm.json is the committed baseline).
// Names ending in `_x` are speedups (higher is better); everything else is
// median milliseconds (lower is better).
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/stats.hpp"
#include "core/time.hpp"
#include "stm/channel.hpp"
#include "stm/channel_table.hpp"
#include "stm/gather.hpp"
#include "stm/work_queue.hpp"

namespace ss {
namespace {

double TicksToMs(Tick t) { return static_cast<double>(t) / 1000.0; }

/// Times `body()` `samples` times and returns per-call milliseconds.
template <typename Fn>
Summary Measure(int samples, Fn&& body) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const Stopwatch watch;
    body();
    ms.push_back(TicksToMs(watch.Elapsed()));
  }
  return Summarize(std::move(ms));
}

struct Payload64 {
  std::uint8_t bytes[64] = {};
};

// ---- single-threaded frame loop: map vs ring ---------------------------------------

constexpr Timestamp kFrameLoopFrames = 50000;

double FrameLoop(stm::StorageMode storage, bench::JsonReport& json,
                 const std::string& name, int samples) {
  const Summary s = Measure(samples, [&] {
    stm::Channel ch(ChannelId(0), name, stm::ChannelOptions{8, storage});
    ConnId out = ch.Attach(stm::ConnDir::kOutput);
    ConnId in = ch.Attach(stm::ConnDir::kInput);
    for (Timestamp t = 0; t < kFrameLoopFrames; ++t) {
      SS_CHECK(ch.PutValue<Payload64>(out, t, Payload64{}).ok());
      auto item =
          ch.Get(in, stm::TsQuery::Exact(t), stm::GetMode::kNonBlocking);
      SS_CHECK(item.ok());
      SS_CHECK(ch.Consume(in, t).ok());
    }
  });
  json.Add(name, s.median, s.p95, "ms", bench::JsonReport::Better::kLower);
  const double ns_per_frame =
      s.median * 1e6 / static_cast<double>(kFrameLoopFrames);
  std::printf("  %-28s median %8.3f ms  (%6.0f ns/frame)\n", name.c_str(),
              s.median, ns_per_frame);
  return s.median;
}

// ---- contended MPMC: dropping puts, mixed exact/wildcard gets --------------------

constexpr Timestamp kMpmcFrames = 8000;
constexpr int kMpmcProducers = 2;
constexpr int kMpmcConsumers = 2;

double Mpmc(stm::StorageMode storage, bench::JsonReport& json,
            const std::string& name, int samples) {
  const Summary s = Measure(samples, [&] {
    stm::Channel ch(ChannelId(0), name, stm::ChannelOptions{64, storage});
    // All connections attach before any traffic: a late-attaching input
    // would start at the GC frontier and miss early frames.
    std::vector<ConnId> outs;
    std::vector<ConnId> ins;
    for (int p = 0; p < kMpmcProducers; ++p) {
      outs.push_back(ch.Attach(stm::ConnDir::kOutput));
    }
    for (int c = 0; c < kMpmcConsumers; ++c) {
      ins.push_back(ch.Attach(stm::ConnDir::kInput));
    }
    std::vector<std::thread> threads;
    // Producers interleave the timestamp range with dropping puts — the
    // paper's load-shedding mode. Blocking puts would deadlock here: one
    // producer can fill the channel with its own timestamps while every
    // consumer waits on the other producer's next frame, so nothing is
    // ever consumed and no space frees up. A put can also go stale
    // (kOutOfRange) once drops advance the GC frontier past it.
    for (int p = 0; p < kMpmcProducers; ++p) {
      threads.emplace_back([&ch, &outs, p] {
        const ConnId out = outs[static_cast<std::size_t>(p)];
        for (Timestamp t = p; t < kMpmcFrames; t += kMpmcProducers) {
          Status put = ch.PutValue<Payload64>(out, t, Payload64{},
                                              stm::PutMode::kDropOldest);
          SS_CHECK(put.ok() || put.code() == StatusCode::kOutOfRange);
        }
        ch.Detach(out);
      });
    }
    // Every consumer walks the full timestamp range (exact get, with a
    // wildcard Newest probe mixed in) and consumes what it receives;
    // frames shed by DropOldest come back kOutOfRange and are skipped.
    for (int c = 0; c < kMpmcConsumers; ++c) {
      threads.emplace_back([&ch, &ins, c] {
        const ConnId in = ins[static_cast<std::size_t>(c)];
        for (Timestamp t = 0; t < kMpmcFrames; ++t) {
          auto item =
              ch.Get(in, stm::TsQuery::Exact(t), stm::GetMode::kBlocking);
          if (item.ok()) {
            SS_CHECK(ch.Consume(in, t).ok());
          } else {
            SS_CHECK(item.status().code() == StatusCode::kOutOfRange);
          }
          if (t % 8 == c) {
            (void)ch.Get(in, stm::TsQuery::Newest(),
                         stm::GetMode::kNonBlocking);
          }
        }
        ch.Detach(in);
      });
    }
    for (auto& th : threads) th.join();
  });
  json.Add(name, s.median, s.p95, "ms", bench::JsonReport::Better::kLower);
  std::printf("  %-28s median %8.3f ms  (%dp x %dc, %lld frames)\n",
              name.c_str(), s.median, kMpmcProducers, kMpmcConsumers,
              static_cast<long long>(kMpmcFrames));
  return s.median;
}

// ---- frame gather: per-edge gets vs one batched get per channel ------------------

constexpr Timestamp kGatherFrames = 20000;
constexpr std::size_t kGatherEdges = 4;

double GatherBench(bool batched, bench::JsonReport& json,
                   const std::string& name, int samples) {
  const Summary s = Measure(samples, [&] {
    std::vector<std::unique_ptr<stm::Channel>> owned;
    std::vector<stm::Channel*> channels;
    std::vector<ConnId> outs;
    std::vector<ConnId> ins;
    for (std::size_t e = 0; e < kGatherEdges; ++e) {
      owned.push_back(std::make_unique<stm::Channel>(
          ChannelId(static_cast<ChannelId::underlying_type>(e)), "edge",
          stm::ChannelOptions{16}));
      channels.push_back(owned.back().get());
      outs.push_back(owned.back()->Attach(stm::ConnDir::kOutput));
      ins.push_back(owned.back()->Attach(stm::ConnDir::kInput));
    }
    for (Timestamp t = 0; t < kGatherFrames; ++t) {
      for (std::size_t e = 0; e < kGatherEdges; ++e) {
        SS_CHECK(
            channels[e]->PutValue<Payload64>(outs[e], t, Payload64{}).ok());
      }
      std::vector<stm::Item> items;
      std::vector<stm::Item> prev;
      items.reserve(kGatherEdges);
      prev.reserve(kGatherEdges);
      if (batched) {
        SS_CHECK(stm::GatherFrameInputs(channels, ins, t,
                                        /*with_history=*/true,
                                        stm::GetMode::kNonBlocking, &items,
                                        &prev)
                     .ok());
      } else {
        // The pre-batching shape: one lock acquisition per edge for the
        // frame item, then another per edge for the history item.
        for (std::size_t e = 0; e < kGatherEdges; ++e) {
          auto item = channels[e]->Get(ins[e], stm::TsQuery::Exact(t),
                                       stm::GetMode::kNonBlocking);
          SS_CHECK(item.ok());
          items.push_back(*item);
        }
        for (std::size_t e = 0; e < kGatherEdges; ++e) {
          auto p = channels[e]->Get(ins[e], stm::TsQuery::Exact(t - 1),
                                    stm::GetMode::kNonBlocking);
          prev.push_back(p.ok() ? *p : stm::Item{});
        }
      }
      for (std::size_t e = 0; e < kGatherEdges; ++e) {
        SS_CHECK(channels[e]->Consume(ins[e], t - 1).ok());
      }
    }
  });
  json.Add(name, s.median, s.p95, "ms", bench::JsonReport::Better::kLower);
  std::printf("  %-28s median %8.3f ms  (%zu edges, with history)\n",
              name.c_str(), s.median, kGatherEdges);
  return s.median;
}

// ---- bounded streaming pipeline --------------------------------------------------

constexpr Timestamp kStreamFrames = 20000;

double Streaming(bench::JsonReport& json, int samples) {
  const Summary s = Measure(samples, [&] {
    stm::Channel ch(ChannelId(0), "stream", stm::ChannelOptions{8});
    ConnId out = ch.Attach(stm::ConnDir::kOutput);
    ConnId in = ch.Attach(stm::ConnDir::kInput);
    std::thread producer([&] {
      for (Timestamp t = 0; t < kStreamFrames; ++t) {
        SS_CHECK(ch.PutValue<Payload64>(out, t, Payload64{}).ok());
      }
    });
    for (Timestamp t = 0; t < kStreamFrames; ++t) {
      auto item =
          ch.Get(in, stm::TsQuery::Exact(t), stm::GetMode::kBlocking);
      SS_CHECK(item.ok());
      SS_CHECK(ch.Consume(in, t).ok());
    }
    producer.join();
  });
  json.Add("stm_streaming_cap8", s.median, s.p95, "ms",
           bench::JsonReport::Better::kLower);
  std::printf("  %-28s median %8.3f ms  (%lld frames)\n",
              "stm_streaming_cap8", s.median,
              static_cast<long long>(kStreamFrames));
  return s.median;
}

// ---- work queue batching ---------------------------------------------------------

double WorkQueueBench(bool batched, bench::JsonReport& json,
                      const std::string& name, int samples) {
  constexpr int kChunks = 100000;
  constexpr int kBatch = 16;
  const Summary s = Measure(samples, [&] {
    stm::WorkQueue<int> q;
    if (batched) {
      std::vector<int> batch;
      for (int i = 0; i < kChunks; ++i) {
        batch.push_back(i);
        if (static_cast<int>(batch.size()) == kBatch) {
          SS_CHECK(q.PushBatch(std::move(batch)).ok());
          batch = {};
        }
      }
      if (!batch.empty()) SS_CHECK(q.PushBatch(std::move(batch)).ok());
    } else {
      for (int i = 0; i < kChunks; ++i) SS_CHECK(q.Push(i).ok());
    }
    for (int i = 0; i < kChunks; ++i) SS_CHECK(q.TryPop().has_value());
  });
  json.Add(name, s.median, s.p95, "ms", bench::JsonReport::Better::kLower);
  std::printf("  %-28s median %8.3f ms\n", name.c_str(), s.median);
  return s.median;
}

// ---- sharded channel-table lookup ------------------------------------------------

double TableFind(bench::JsonReport& json, int samples) {
  constexpr int kChannels = 64;
  constexpr int kThreads = 4;
  constexpr int kFindsPerThread = 50000;
  const Summary s = Measure(samples, [&] {
    stm::ChannelTable table;
    std::vector<std::string> names;
    for (int i = 0; i < kChannels; ++i) {
      names.push_back("chan_" + std::to_string(i));
      SS_CHECK(table.Create(names.back()).ok());
    }
    std::vector<std::thread> threads;
    for (int th = 0; th < kThreads; ++th) {
      threads.emplace_back([&, th] {
        for (int i = 0; i < kFindsPerThread; ++i) {
          const auto& name =
              names[static_cast<std::size_t>((i + th) % kChannels)];
          SS_CHECK(table.Find(name).ok());
        }
      });
    }
    for (auto& th : threads) th.join();
  });
  json.Add("stm_table_find_4t", s.median, s.p95, "ms",
           bench::JsonReport::Better::kLower);
  std::printf("  %-28s median %8.3f ms  (%d threads x %d finds)\n",
              "stm_table_find_4t", s.median, kThreads, kFindsPerThread);
  return s.median;
}

int Run(int argc, char** argv) {
  bench::JsonReport json(bench::JsonReport::PathFromArgs(argc, argv));
  const int samples = 7;

  bench::PrintHeader("STM data plane: storage modes and batching");

  std::printf("frame loop (put + exact get + consume, capacity 8):\n");
  const double map_ms = FrameLoop(stm::StorageMode::kMap, json,
                                  "stm_frame_loop_map", samples);
  const double ring_ms = FrameLoop(stm::StorageMode::kRing, json,
                                   "stm_frame_loop_ring", samples);
  const double loop_x = ring_ms > 0.0 ? map_ms / ring_ms : 0.0;
  json.Add("stm_ring_vs_map_x", loop_x, loop_x, "x",
           bench::JsonReport::Better::kHigher);
  std::printf("  ring vs map: %.2fx\n\n", loop_x);

  std::printf("contended MPMC (dropping puts, mixed queries):\n");
  Mpmc(stm::StorageMode::kMap, json, "stm_mpmc_2p2c_map", 5);
  Mpmc(stm::StorageMode::kRing, json, "stm_mpmc_2p2c_ring", 5);
  std::printf("\n");

  std::printf("frame gather (%zu input edges):\n", kGatherEdges);
  const double per_edge_ms =
      GatherBench(false, json, "stm_gather_per_edge", samples);
  const double batched_ms =
      GatherBench(true, json, "stm_gather_batched", samples);
  const double gather_x = batched_ms > 0.0 ? per_edge_ms / batched_ms : 0.0;
  json.Add("stm_gather_batched_vs_per_edge_x", gather_x, gather_x, "x",
           bench::JsonReport::Better::kHigher);
  std::printf("  batched vs per-edge: %.2fx\n\n", gather_x);

  std::printf("streaming and queues:\n");
  Streaming(json, 5);
  WorkQueueBench(false, json, "stm_workqueue_push", samples);
  WorkQueueBench(true, json, "stm_workqueue_pushbatch", samples);
  TableFind(json, 5);

  bench::PrintNote(
      "names ending in _x are speedups (higher is better); the committed "
      "baseline is bench/BENCH_stm.json");
  json.Write();
  return 0;
}

}  // namespace
}  // namespace ss

int main(int argc, char** argv) { return ss::Run(argc, argv); }
