// Timestamped items flowing through Space-Time Memory channels.
//
// Items are type-erased, immutable-after-put payloads shared by reference
// among consumers (a put hands the buffer to the channel; every get returns
// a shared view). Typed helpers live on Channel.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "core/ids.hpp"

namespace ss::stm {

/// A type-erased immutable payload. The deleter captured at creation time
/// destroys the original T.
class Payload {
 public:
  Payload() = default;

  template <typename T>
  static Payload Make(T value) {
    auto owned = std::make_shared<const T>(std::move(value));
    Payload p;
    p.size_ = sizeof(T);
    p.data_ = std::shared_ptr<const void>(owned, owned.get());
    return p;
  }

  bool empty() const { return data_ == nullptr; }
  std::size_t size_bytes() const { return size_; }
  const void* raw() const { return data_.get(); }

  /// Typed view. The caller must know the stored type; mismatches are
  /// undefined behaviour exactly as with the C Stampede API's void buffers.
  template <typename T>
  std::shared_ptr<const T> As() const {
    return std::shared_ptr<const T>(data_, static_cast<const T*>(data_.get()));
  }

 private:
  std::shared_ptr<const void> data_;
  std::size_t size_ = 0;
};

/// A (timestamp, payload) pair returned by gets.
struct Item {
  Timestamp ts = kNoTimestamp;
  Payload payload;
};

/// Timestamps of items adjacent to a missed exact-get, mirroring the
/// `ts_range` out-parameter of `spd_channel_get_item` (paper Fig. 8).
struct TsNeighbors {
  std::optional<Timestamp> before;  // newest available ts < requested
  std::optional<Timestamp> after;   // oldest available ts > requested
};

}  // namespace ss::stm
