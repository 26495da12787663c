// Length-prefixed message framing over a TCP stream.
//
// Wire format: a 4-byte little-endian payload length followed by the
// payload. The FrameReader is an incremental decoder: feed it whatever
// recv() returned and pop complete frames — partial frames simply wait for
// more bytes, and an oversized length puts the reader into a failed state
// (never an exception) so a corrupt peer cannot make us allocate unbounded
// memory or unwind through an event-loop handler: the node drops that one
// peer and counts it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

namespace volley {

constexpr std::size_t kMaxFrameBytes = 1 << 20;  // 1 MiB protocol limit

/// Prepends the length header to a payload.
std::vector<std::byte> frame_payload(std::span<const std::byte> payload);

/// Counts one peer dropped for a framing violation
/// (volley_net_protocol_errors_total) and logs it under `who`.
void count_protocol_error(const char* who);

class FrameReader {
 public:
  /// Appends raw stream bytes (discarded once the reader has failed).
  void feed(std::span<const std::byte> data);

  /// Pops the next complete frame's payload, if any. A declared length
  /// above kMaxFrameBytes is a protocol violation: the reader fails, drops
  /// its buffer, and returns nullopt from then on.
  std::optional<std::vector<std::byte>> next();

  /// True once a protocol violation was seen; the stream cannot resync, so
  /// the owner must drop the peer.
  bool failed() const { return failed_; }

  std::size_t buffered_bytes() const { return buffer_.size() - offset_; }

 private:
  // Consumed frames advance a cursor instead of erasing the vector front
  // (an O(buffered) memmove per frame — measurable on batched ingress,
  // where one readable event can carry hundreds of frames). The prefix is
  // reclaimed when the buffer empties or the cursor passes kCompactBytes.
  static constexpr std::size_t kCompactBytes = 64 * 1024;

  std::vector<std::byte> buffer_;
  std::size_t offset_{0};  // bytes of buffer_ already consumed
  bool failed_{false};
};

/// Batched frame egress for reactor handlers: queued frames coalesce into a
/// single vectored write (`sendmsg` scatter-gather, MSG_NOSIGNAL) per flush,
/// and a partially-written front frame resumes at its offset on the next
/// flush — the socket stays non-blocking and EAGAIN surfaces as kBlocked so
/// the caller can arm EPOLLOUT instead of spinning.
class FrameWriter {
 public:
  enum class FlushResult {
    kDrained,   // queue empty, disarm EPOLLOUT
    kBlocked,   // kernel buffer full mid-queue, arm EPOLLOUT
    kPeerGone,  // hard send error, tear the session down
  };

  /// Queues one already-framed buffer (a frame_payload() result).
  void enqueue(std::vector<std::byte> frame);

  /// Drops everything queued (session reconnect: frames addressed to the
  /// old connection must not leak onto the new one mid-frame).
  void clear() {
    queue_.clear();
    front_offset_ = 0;
    queued_bytes_ = 0;
  }

  bool empty() const { return queue_.empty(); }
  std::size_t queued_frames() const { return queue_.size(); }
  std::size_t queued_bytes() const { return queued_bytes_; }

  /// Writes as much as the kernel accepts, gathering up to kMaxIov queued
  /// frames per vectored write. EINTR is retried internally.
  FlushResult flush(int fd);

  /// Drains the whole queue, waiting on POLLOUT between bursts — the
  /// shutdown-broadcast path, where losing the final frame matters more
  /// than stalling a dying loop. kBlocked here means the deadline passed.
  FlushResult flush_blocking(int fd, int timeout_ms);

  struct Stats {
    std::int64_t writev_calls{0};    // vectored writes issued
    std::int64_t frames_written{0};  // frames fully drained to the kernel
    std::int64_t bytes_written{0};
  };
  const Stats& stats() const { return stats_; }

  static constexpr std::size_t kMaxIov = 64;

 private:
  std::deque<std::vector<std::byte>> queue_;
  std::size_t front_offset_{0};  // bytes of queue_.front() already sent
  std::size_t queued_bytes_{0};
  Stats stats_;
};

}  // namespace volley
