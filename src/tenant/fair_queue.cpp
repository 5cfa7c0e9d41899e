#include "tenant/fair_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace ss::tenant {

FairScheduler::FairScheduler(FairQueueOptions options) {
  SS_CHECK_MSG(options.dispatch_threads >= 0, "negative dispatcher count");
  threads_.reserve(static_cast<std::size_t>(options.dispatch_threads));
  for (int i = 0; i < options.dispatch_threads; ++i) {
    threads_.emplace_back([this] { DispatcherLoop(); });
  }
}

FairScheduler::~FairScheduler() { Shutdown(); }

int FairScheduler::AddTenant(double weight, std::size_t queue_capacity) {
  SS_CHECK_MSG(weight > 0.0, "lane weight must be positive");
  SS_CHECK_MSG(queue_capacity > 0, "lane capacity must be positive");
  MutexLock lock(mu_);
  Lane lane;
  lane.weight = weight;
  lane.capacity = queue_capacity;
  lanes_.push_back(std::move(lane));
  return static_cast<int>(lanes_.size()) - 1;
}

Status FairScheduler::Submit(int tenant_index, FairJob job, Tick deadline) {
  MutexLock lock(mu_);
  if (shutdown_) {
    return CancelledError("fair scheduler is shut down");
  }
  if (tenant_index < 0 ||
      static_cast<std::size_t>(tenant_index) >= lanes_.size()) {
    return InvalidArgumentError("unknown tenant lane " +
                                std::to_string(tenant_index));
  }
  Lane& lane = lanes_[static_cast<std::size_t>(tenant_index)];
  if (lane.jobs.size() >= lane.capacity) {
    return WouldBlockError("tenant queue full (" +
                           std::to_string(lane.capacity) +
                           " pending); retry later");
  }
  lane.jobs.push_back(Entry{std::move(job), deadline});
  ++total_queued_;
  cv_.NotifyOne();
  return OkStatus();
}

bool FairScheduler::NextJobLocked(FairJob* out,
                                  std::vector<FairJob>* expired, Tick now) {
  if (lanes_.empty()) return false;
  const std::size_t n = lanes_.size();
  // Each pass credits every backlogged lane once. A pass that dispatches
  // nothing is followed by one credit standing in for every further pass
  // that could not dispatch either, so the next pass dispatches (or
  // expiry drains the last queued job) whatever the weights.
  while (total_queued_ > 0) {
    for (std::size_t k = 0; k < n; ++k) {
      Lane& lane = lanes_[cursor_];
      // Dead fronts are completed with kExpired and charge no deficit:
      // they never reach the solver, so they must not eat the lane's
      // service share either.
      while (!lane.jobs.empty() && lane.jobs.front().deadline <= now) {
        expired->push_back(std::move(lane.jobs.front().job));
        lane.jobs.pop_front();
        --total_queued_;
      }
      if (lane.jobs.empty()) {
        // Idle lanes forfeit credit: service share is use-it-or-lose-it,
        // which bounds post-idle bursts.
        lane.deficit = 0.0;
        cursor_ = (cursor_ + 1) % n;
        continue;
      }
      if (lane.deficit < 1.0) {
        lane.deficit += lane.weight;
      }
      if (lane.deficit < 1.0) {
        cursor_ = (cursor_ + 1) % n;
        continue;
      }
      lane.deficit -= 1.0;
      *out = std::move(lane.jobs.front().job);
      lane.jobs.pop_front();
      --total_queued_;
      if (lane.jobs.empty()) {
        lane.deficit = 0.0;
        cursor_ = (cursor_ + 1) % n;
      } else if (lane.deficit < 1.0) {
        // Credit spent: the next call moves on to the following lane.
        cursor_ = (cursor_ + 1) % n;
      }
      return true;
    }
    // Every backlogged lane is short of a whole job, and the cursor is
    // back where this pass began. Lane i reaches one after
    // ceil((1 - deficit_i) / weight_i) more passes, so the passes before
    // the first lane gets there are credited at once. The clamp holds a
    // subnormal weight, whose 1 / weight overflows, to one job.
    double idle_passes = std::numeric_limits<double>::infinity();
    for (const Lane& lane : lanes_) {
      if (lane.jobs.empty()) continue;
      idle_passes = std::min(
          idle_passes, std::ceil((1.0 - lane.deficit) / lane.weight) - 1.0);
    }
    if (!(idle_passes > 0.0)) continue;
    for (Lane& lane : lanes_) {
      if (lane.jobs.empty()) continue;
      lane.deficit = std::min(lane.deficit + idle_passes * lane.weight, 1.0);
    }
  }
  return false;
}

bool FairScheduler::DispatchOne() {
  FairJob job;
  std::vector<FairJob> expired;
  bool have = false;
  {
    MutexLock lock(mu_);
    have = NextJobLocked(&job, &expired, WallNow());
  }
  for (FairJob& dead : expired) dead(FairOutcome::kExpired);
  if (!have) return false;
  job(FairOutcome::kDispatched);
  return true;
}

void FairScheduler::DispatcherLoop() {
  for (;;) {
    FairJob job;
    std::vector<FairJob> expired;
    bool have = false;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && total_queued_ == 0) cv_.Wait(lock);
      if (shutdown_) return;
      have = NextJobLocked(&job, &expired, WallNow());
    }
    for (FairJob& dead : expired) dead(FairOutcome::kExpired);
    if (have) job(FairOutcome::kDispatched);
  }
}

std::size_t FairScheduler::QueuedFor(int tenant_index) const {
  MutexLock lock(mu_);
  if (tenant_index < 0 ||
      static_cast<std::size_t>(tenant_index) >= lanes_.size()) {
    return 0;
  }
  return lanes_[static_cast<std::size_t>(tenant_index)].jobs.size();
}

void FairScheduler::Shutdown() {
  std::vector<std::thread> reaped;
  {
    MutexLock lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    reaped.swap(threads_);
    cv_.NotifyAll();
  }
  for (std::thread& t : reaped) t.join();
  // Drain: every queued job fails its caller promptly.
  std::vector<FairJob> cancelled;
  {
    MutexLock lock(mu_);
    for (Lane& lane : lanes_) {
      while (!lane.jobs.empty()) {
        cancelled.push_back(std::move(lane.jobs.front().job));
        lane.jobs.pop_front();
        --total_queued_;
      }
      lane.deficit = 0.0;
    }
  }
  for (FairJob& job : cancelled) job(FairOutcome::kCancelled);
}

}  // namespace ss::tenant
