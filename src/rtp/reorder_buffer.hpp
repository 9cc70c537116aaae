// In-order delivery of out-of-order RTP packets. The draft relies on RTP
// to let participants "re-order the packets, recognize missing packets"
// (§4.2); this buffer performs the reordering and exposes a bounded-wait
// policy: if a gap persists while more than `max_hold` newer packets are
// queued, the gap is abandoned and delivery resumes (the remoting layer
// recovers via NACK retransmission or PLI refresh). An age bound
// complements the count bound: expire_older_than() abandons a head gap
// once held packets have waited too long, so a permanently lost packet
// cannot stall delivery even across a sequence-number wrap where newer
// arrivals alone would never exceed the count bound.
//
// A receiver cannot tell whether the first packet it sees opens the stream:
// on a jittery link a later packet may overtake the first ones. So a fresh
// buffer holds its packets until end_opening(), and until then takes a
// packet behind the cursor (within max_hold of the first packet) as well.
// The opening then starts at the earliest packet that reaches the first one
// without a hole. The receiver's loss detection starts at the first packet
// too, so nobody would repair such a hole, and a packet behind one (a stray
// repair of an older packet, say) is dropped as late.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "rtp/rtp_packet.hpp"

namespace ads {

class ReorderBuffer {
 public:
  explicit ReorderBuffer(std::size_t max_hold = 256) : max_hold_(max_hold) {}

  /// Insert an arriving packet; returns every packet now deliverable in
  /// order (possibly none). Duplicates and packets older than the delivery
  /// cursor are dropped. Until end_opening() nothing is delivered (unless
  /// more than max_hold packets are held) and packets behind the cursor are
  /// held too (see the file comment). `now_us` (any monotonic microsecond
  /// clock) stamps the packet for the expire_older_than() age bound.
  std::vector<RtpPacket> push(RtpPacket pkt, std::uint64_t now_us = 0);

  /// Age bound: while the oldest held packet arrived before `cutoff_us`,
  /// abandon the head gap blocking it (counted in gaps_skipped) and deliver
  /// from the next packet actually present. Returns the flushed packets.
  std::vector<RtpPacket> expire_older_than(std::uint64_t cutoff_us);

  /// Abandon the current head gap: deliver buffered packets from the next
  /// one actually present. Returns the flushed packets.
  std::vector<RtpPacket> skip_gap();

  /// Deliver everything held (in order, regardless of gaps) and return it.
  std::vector<RtpPacket> flush_all();

  /// End the opening hold: drop the packets behind a hole in front of the
  /// first packet, then deliver the contiguous run from the cursor; a gap
  /// after it waits like any other. Once the opening is over, this only
  /// delivers what is deliverable (nothing, normally).
  std::vector<RtpPacket> end_opening();

  /// True while the opening hold keeps a started stream's packets back
  /// (skip_gap(), flush_all() and expiry end it too).
  bool opening() const { return opening_ && started_; }

  /// Move the delivery cursor to `next` (buffer must be empty — flush
  /// first). Used after a loss-recovery full refresh to jump past a gap
  /// even when nothing newer is buffered.
  void reset_to(std::uint16_t next);

  std::size_t buffered() const { return held_.size(); }
  std::uint64_t dropped_late() const { return dropped_late_; }
  std::uint64_t gaps_skipped() const { return gaps_skipped_; }

  /// Arrival time of the oldest held packet (nullopt when empty).
  std::optional<std::uint64_t> oldest_held_us() const;

  /// Sequence number the buffer is waiting to deliver next.
  std::optional<std::uint16_t> expected_sequence() const {
    return started_ ? std::optional<std::uint16_t>(next_seq_) : std::nullopt;
  }

 private:
  struct Held {
    RtpPacket pkt;
    std::uint64_t arrived_us = 0;
  };

  std::vector<RtpPacket> drain();
  /// Move the delivery cursor to `next`, rekeying the held packets.
  void rebase(std::uint16_t next);

  // Key is the modular distance from next_seq_ so iteration order matches
  // delivery order even across the 16-bit wrap.
  std::map<std::uint16_t, Held> held_;
  std::size_t max_hold_;
  bool opening_ = true;  ///< holding a fresh stream's packets
  bool started_ = false;
  std::uint16_t first_seq_ = 0;  ///< the first packet pushed
  std::uint16_t next_seq_ = 0;
  std::uint64_t dropped_late_ = 0;
  std::uint64_t gaps_skipped_ = 0;
};

}  // namespace ads
