// Tests for the color tracker: kernels (histogram, change detection,
// back-projection, peak finding), bodies (serial vs chunked equivalence,
// detection correctness on planted targets), and cost models.
#include <gtest/gtest.h>

#include <cmath>

#include "regime/regime.hpp"
#include "tracker/bodies.hpp"
#include "tracker/costs.hpp"
#include "tracker/graph_builder.hpp"
#include "tracker/kernels.hpp"

namespace ss::tracker {
namespace {

TrackerParams SmallParams() {
  TrackerParams p;
  p.width = 96;
  p.height = 72;
  p.target_size = 12;
  return p;
}

// ---- kernels -------------------------------------------------------------------

TEST(KernelsTest, SynthesizedFrameDeterministic) {
  TrackerParams p = SmallParams();
  Frame a = SynthesizeFrame(p, 3, 2);
  Frame b = SynthesizeFrame(p, 3, 2);
  EXPECT_EQ(a.pixels, b.pixels);
  Frame c = SynthesizeFrame(p, 4, 2);
  EXPECT_NE(a.pixels, c.pixels);
}

TEST(KernelsTest, HistogramNormalized) {
  TrackerParams p = SmallParams();
  Frame f = SynthesizeFrame(p, 0, 1);
  FrameHistogram h = ComputeHistogram(f);
  float sum = 0;
  for (float v : h.hist) sum += v;
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(KernelsTest, ChangeDetectFirstFrameAllMoving) {
  TrackerParams p = SmallParams();
  Frame f = SynthesizeFrame(p, 0, 1);
  MotionMask m = ChangeDetect(f, nullptr);
  EXPECT_EQ(m.CountActive(), f.PixelCount());
}

TEST(KernelsTest, ChangeDetectIdenticalFramesStill) {
  TrackerParams p = SmallParams();
  Frame f = SynthesizeFrame(p, 0, 1);
  MotionMask m = ChangeDetect(f, &f);
  EXPECT_EQ(m.CountActive(), 0u);
}

TEST(KernelsTest, ChangeDetectMovingTargetFlagged) {
  TrackerParams p = SmallParams();
  Frame prev = SynthesizeFrame(p, 0, 1);
  Frame cur = SynthesizeFrame(p, 5, 1);  // target has moved
  MotionMask m = ChangeDetect(cur, &prev);
  EXPECT_GT(m.CountActive(), 0u);
  EXPECT_LT(m.CountActive(), cur.PixelCount());
}

TEST(KernelsTest, ModelColorsDistinct) {
  std::uint8_t r1, g1, b1, r2, g2, b2;
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) {
      ModelColor(a, &r1, &g1, &b1);
      ModelColor(b, &r2, &g2, &b2);
      const int dist = std::abs(r1 - r2) + std::abs(g1 - g2) +
                       std::abs(b1 - b2);
      EXPECT_GT(dist, 48) << "models " << a << " and " << b;
    }
  }
}

TEST(KernelsTest, BackprojectionPeaksAtPlantedTarget) {
  TrackerParams p = SmallParams();
  const int models = 3;
  ModelSet set = MakeModelSet(p, models);
  Frame f = SynthesizeFrame(p, 7, models);
  FrameHistogram fh = ComputeHistogram(f);
  MotionMask mask = ChangeDetect(f, nullptr);

  for (int m = 0; m < models; ++m) {
    Histogram ratio = PrepareRatioHistogram(set.models[m].hist, fh.hist,
                                            p.prep_passes);
    std::vector<float> map(f.PixelCount());
    Backproject(f, mask, ratio, 0, f.height, p.pixel_work, map.data());
    Detection det = FindPeak(map, f.width, f.height, m);
    TargetPose pose = PlantedPose(p, m, 7);
    EXPECT_NEAR(det.x, pose.x, p.target_size) << "model " << m;
    EXPECT_NEAR(det.y, pose.y, p.target_size) << "model " << m;
  }
}

TEST(KernelsTest, RatioHistogramSmoothingPreservesScale) {
  TrackerParams p = SmallParams();
  ModelSet set = MakeModelSet(p, 1);
  Frame f = SynthesizeFrame(p, 0, 1);
  FrameHistogram fh = ComputeHistogram(f);
  Histogram raw = PrepareRatioHistogram(set.models[0].hist, fh.hist, 0);
  Histogram smooth = PrepareRatioHistogram(set.models[0].hist, fh.hist, 10);
  float raw_max = 0, smooth_max = 0;
  for (int i = 0; i < kHistSize; ++i) {
    raw_max = std::max(raw_max, raw[static_cast<std::size_t>(i)]);
    smooth_max = std::max(smooth_max, smooth[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(smooth_max, 0.f);
  EXPECT_LE(smooth_max, raw_max + 1e-3f);
}

// ---- bodies --------------------------------------------------------------------

class BodyFixture : public ::testing::Test {
 protected:
  BodyFixture()
      : params_(SmallParams()),
        enrolled_(std::make_shared<const ModelSet>(
            MakeModelSet(params_, 8))) {}

  runtime::TaskInputs MakeT4Inputs(Timestamp ts, int models) {
    Frame f = SynthesizeFrame(params_, ts, models);
    f.num_targets = models;
    FrameHistogram fh = ComputeHistogram(f);
    MotionMask mask = ChangeDetect(f, nullptr);
    runtime::TaskInputs in;
    in.ts = ts;
    in.items = {
        stm::Item{ts, stm::Payload::Make<Frame>(std::move(f))},
        stm::Item{ts, stm::Payload::Make<FrameHistogram>(std::move(fh))},
        stm::Item{ts, stm::Payload::Make<MotionMask>(std::move(mask))},
    };
    return in;
  }

  TrackerParams params_;
  std::shared_ptr<const ModelSet> enrolled_;
};

TEST_F(BodyFixture, SerialProcessProducesOneMapPerModel) {
  TargetDetectionBody body(params_, enrolled_);
  auto in = MakeT4Inputs(0, 5);
  runtime::TaskOutputs out;
  ASSERT_TRUE(body.Process(in, &out).ok());
  auto bp = out.items.at(0).As<BackProjectionSet>();
  EXPECT_EQ(bp->maps.size(), 5u);
  EXPECT_EQ(bp->model_ids.size(), 5u);
}

// Chunked execution must be bit-identical to serial execution for every
// decomposition — the paper's requirement that the splitter/worker/joiner
// subgraph "exactly duplicates the original task's behavior".
struct DecompCase {
  int fp;
  int mp;
  int models;
};

class DecompositionEquivalence
    : public BodyFixture,
      public ::testing::WithParamInterface<DecompCase> {};

TEST_P(DecompositionEquivalence, ChunkedMatchesSerial) {
  const DecompCase c = GetParam();
  TargetDetectionBody body(params_, enrolled_);
  auto in = MakeT4Inputs(3, c.models);

  runtime::TaskOutputs serial;
  ASSERT_TRUE(body.Process(in, &serial).ok());
  auto serial_bp = serial.items.at(0).As<BackProjectionSet>();

  const int mp_eff = std::min(c.mp, c.models);
  const int chunks = c.fp * mp_eff;
  body.SetDecomposition(c.fp, mp_eff);
  std::vector<stm::Payload> partials;
  for (int i = 0; i < chunks; ++i) {
    stm::Payload partial;
    ASSERT_TRUE(body.ProcessChunk(in, i, chunks, &partial).ok());
    partials.push_back(std::move(partial));
  }
  runtime::TaskOutputs joined;
  ASSERT_TRUE(body.Join(in, std::move(partials), &joined).ok());
  auto chunked_bp = joined.items.at(0).As<BackProjectionSet>();

  ASSERT_EQ(chunked_bp->maps.size(), serial_bp->maps.size());
  for (std::size_t m = 0; m < serial_bp->maps.size(); ++m) {
    EXPECT_EQ(chunked_bp->maps[m], serial_bp->maps[m]) << "model " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDecompositions, DecompositionEquivalence,
    ::testing::Values(DecompCase{1, 1, 1}, DecompCase{4, 1, 1},
                      DecompCase{1, 8, 8}, DecompCase{4, 1, 8},
                      DecompCase{4, 8, 8}, DecompCase{2, 3, 5},
                      DecompCase{3, 1, 2}, DecompCase{1, 2, 7}),
    [](const auto& case_info) {
      return "FP" + std::to_string(case_info.param.fp) + "xMP" +
             std::to_string(case_info.param.mp) + "m" +
             std::to_string(case_info.param.models);
    });

TEST_F(BodyFixture, ChunkCountMismatchRejected) {
  TargetDetectionBody body(params_, enrolled_);
  auto in = MakeT4Inputs(0, 4);
  body.SetDecomposition(2, 2);
  stm::Payload partial;
  EXPECT_FALSE(body.ProcessChunk(in, 0, 3, &partial).ok());
}

TEST_F(BodyFixture, PipelineEndToEndDetectsTargets) {
  // Run all five bodies by hand on one frame and check detections.
  const int models = 4;
  DigitizerBody digitizer(params_, [&](Timestamp) { return models; });
  HistogramBody histogram;
  ChangeDetectionBody change;
  TargetDetectionBody detect(params_, enrolled_);
  PeakDetectionBody peaks;

  runtime::TaskInputs din;
  din.ts = 11;
  runtime::TaskOutputs dout;
  ASSERT_TRUE(digitizer.Process(din, &dout).ok());
  stm::Item frame_item{11, dout.items.at(0)};

  runtime::TaskInputs hin;
  hin.ts = 11;
  hin.items = {frame_item};
  runtime::TaskOutputs hout;
  ASSERT_TRUE(histogram.Process(hin, &hout).ok());

  runtime::TaskInputs cin;
  cin.ts = 11;
  cin.items = {frame_item};
  runtime::TaskOutputs cout_;
  ASSERT_TRUE(change.Process(cin, &cout_).ok());

  runtime::TaskInputs tin;
  tin.ts = 11;
  tin.items = {frame_item, stm::Item{11, hout.items.at(0)},
               stm::Item{11, cout_.items.at(0)}};
  runtime::TaskOutputs tout;
  ASSERT_TRUE(detect.Process(tin, &tout).ok());

  runtime::TaskInputs pin;
  pin.ts = 11;
  pin.items = {stm::Item{11, tout.items.at(0)}};
  runtime::TaskOutputs pout;
  ASSERT_TRUE(peaks.Process(pin, &pout).ok());

  auto det = pout.items.at(0).As<DetectionSet>();
  ASSERT_EQ(det->detections.size(), static_cast<std::size_t>(models));
  for (int m = 0; m < models; ++m) {
    TargetPose pose = PlantedPose(params_, m, 11);
    EXPECT_NEAR(det->detections[static_cast<std::size_t>(m)].x, pose.x,
                params_.target_size)
        << "model " << m;
    EXPECT_NEAR(det->detections[static_cast<std::size_t>(m)].y, pose.y,
                params_.target_size)
        << "model " << m;
  }
}

// ---- cost models -----------------------------------------------------------------

TEST(PaperCostModelTest, ReproducesTable1Shape) {
  // The calibrated analytic costs must reproduce Table 1's ordering on a
  // 4-processor node.
  PaperCostParams p;
  auto config_time = [&](int models, int fp, int mp) {
    graph::DpVariant v = fp == 1 && mp == 1
                             ? graph::DpVariant{"serial", 1,
                                                PaperT4SerialCost(p, models),
                                                0, 0}
                             : PaperT4Variant(p, models, fp, mp);
    // Elapsed on 4 workers: split + rounds * chunk + join.
    const int rounds = (v.chunks + 3) / 4;
    return ticks::ToSeconds(v.split_cost + rounds * v.chunk_cost +
                            v.join_cost);
  };
  // One model: FP=4 is the best choice.
  const double m1_serial = config_time(1, 1, 1);
  const double m1_fp4 = config_time(1, 4, 1);
  EXPECT_NEAR(m1_serial, 0.876, 0.05);
  EXPECT_NEAR(m1_fp4, 0.275, 0.05);
  EXPECT_LT(m1_fp4, m1_serial);
  // Eight models: MP=8 beats FP=4 beats serial; FP=4xMP=8 over-splits.
  const double m8_serial = config_time(8, 1, 1);
  const double m8_mp8 = config_time(8, 1, 8);
  const double m8_fp4 = config_time(8, 4, 1);
  const double m8_both = config_time(8, 4, 8);
  EXPECT_NEAR(m8_serial, 6.850, 0.30);
  EXPECT_NEAR(m8_mp8, 1.857, 0.30);
  EXPECT_NEAR(m8_fp4, 2.033, 0.30);
  EXPECT_NEAR(m8_both, 2.155, 0.40);
  EXPECT_LT(m8_mp8, m8_fp4);
  EXPECT_LT(m8_fp4, m8_both + 0.4);
  EXPECT_LT(m8_both, m8_serial);
}

TEST(PaperCostModelTest, CoversAllRegimesAndTasks) {
  TrackerGraph tg = BuildTrackerGraph();
  regime::RegimeSpace space(1, 8);
  graph::CostModel cm = PaperCostModel(tg, space);
  EXPECT_TRUE(cm.Validate(tg.graph.task_count()).ok());
  EXPECT_EQ(cm.regime_count(), 8u);
  // T4 at one model has no MP variants; at 8 models it has them.
  EXPECT_EQ(cm.Get(RegimeId(0), tg.target_detection).variant_count(), 3u);
  EXPECT_EQ(cm.Get(RegimeId(7), tg.target_detection).variant_count(), 6u);
}

TEST(PaperCostModelTest, T4LinearInModels) {
  PaperCostParams p;
  const Tick c1 = PaperT4SerialCost(p, 1);
  const Tick c8 = PaperT4SerialCost(p, 8);
  EXPECT_GT(c8, 7 * c1 / 2);  // strongly increasing
  EXPECT_LT(c8, 9 * c1);
}

TEST(MeasuredCostModelTest, ProducesPlausibleCosts) {
  TrackerParams p = SmallParams();
  // Enough per-pixel work that timings are milliseconds, not microseconds:
  // at the default tiny kernel, single-core scheduling noise can dwarf the
  // chunk/serial ratio this test asserts on.
  p.pixel_work = 30;
  p.prep_passes = 200;
  TrackerGraph tg = BuildTrackerGraph(p);
  regime::RegimeSpace space(2, 2);
  MeasureOptions mo;
  mo.repetitions = 3;
  mo.fp_options = {1, 2};
  graph::CostModel cm = MeasureCostModel(tg, space, p, mo);
  ASSERT_TRUE(cm.Validate(tg.graph.task_count()).ok());
  const auto& t4 = cm.Get(RegimeId(0), tg.target_detection);
  EXPECT_GE(t4.variant_count(), 2u);
  EXPECT_GT(t4.serial_cost(), 0);
  // Chunked variants have smaller per-chunk cost than the serial whole.
  for (std::size_t v = 1; v < t4.variant_count(); ++v) {
    EXPECT_LT(t4.variant(VariantId(static_cast<int>(v))).chunk_cost,
              t4.serial_cost());
  }
}

}  // namespace
}  // namespace ss::tracker
