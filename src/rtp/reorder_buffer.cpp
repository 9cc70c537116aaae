#include "rtp/reorder_buffer.hpp"

namespace ads {

std::vector<RtpPacket> ReorderBuffer::push(RtpPacket pkt, std::uint64_t now_us) {
  if (!started_) {
    started_ = true;
    first_seq_ = next_seq_ = pkt.sequence;
  }

  std::uint16_t offset = static_cast<std::uint16_t>(pkt.sequence - next_seq_);
  if (offset >= 0x8000) {
    const auto behind_first = static_cast<std::uint16_t>(first_seq_ - pkt.sequence);
    if (!opening_ || behind_first > max_hold_) {
      // Behind the delivery cursor: late duplicate or already-skipped packet.
      ++dropped_late_;
      return {};
    }
    rebase(pkt.sequence);  // nothing delivered yet: hold it too
    offset = 0;
  }
  if (!held_.emplace(offset, Held{std::move(pkt), now_us}).second) {
    ++dropped_late_;  // duplicate of a held packet
    return {};
  }

  if (opening_ && held_.size() <= max_hold_) return {};
  auto out = end_opening();
  // Head-of-line blocking bound: give up on the gap when the buffer holds
  // too much newer data.
  if (held_.size() > max_hold_) {
    auto flushed = skip_gap();
    out.insert(out.end(), std::make_move_iterator(flushed.begin()),
               std::make_move_iterator(flushed.end()));
  }
  return out;
}

std::vector<RtpPacket> ReorderBuffer::drain() {
  // Deliver the contiguous prefix (offsets 0,1,2,...), then rekey the
  // remaining packets once.
  std::vector<RtpPacket> out;
  std::uint16_t expect = 0;
  while (!held_.empty() && held_.begin()->first == expect) {
    out.push_back(std::move(held_.begin()->second.pkt));
    held_.erase(held_.begin());
    ++expect;
  }
  if (expect != 0) rebase(static_cast<std::uint16_t>(next_seq_ + expect));
  return out;
}

void ReorderBuffer::rebase(std::uint16_t next) {
  const auto shift = static_cast<std::uint16_t>(next - next_seq_);
  std::map<std::uint16_t, Held> rekeyed;
  for (auto& [off, h] : held_) {
    rekeyed.emplace(static_cast<std::uint16_t>(off - shift), std::move(h));
  }
  held_ = std::move(rekeyed);
  next_seq_ = next;
}

std::optional<std::uint64_t> ReorderBuffer::oldest_held_us() const {
  std::optional<std::uint64_t> oldest;
  for (const auto& [off, h] : held_) {
    if (!oldest || h.arrived_us < *oldest) oldest = h.arrived_us;
  }
  return oldest;
}

std::vector<RtpPacket> ReorderBuffer::expire_older_than(std::uint64_t cutoff_us) {
  std::vector<RtpPacket> out;
  // Each skip_gap() unblocks at least one held packet, so this terminates.
  while (!held_.empty()) {
    const auto oldest = oldest_held_us();
    if (!oldest || *oldest >= cutoff_us) break;
    auto flushed = skip_gap();
    out.insert(out.end(), std::make_move_iterator(flushed.begin()),
               std::make_move_iterator(flushed.end()));
  }
  return out;
}

std::vector<RtpPacket> ReorderBuffer::end_opening() {
  if (opening_ && started_) {
    opening_ = false;
    auto from = static_cast<std::uint16_t>(first_seq_ - next_seq_);
    while (from > 0 && held_.count(static_cast<std::uint16_t>(from - 1)) != 0) --from;
    for (; !held_.empty() && held_.begin()->first < from; ++dropped_late_) {
      held_.erase(held_.begin());
    }
    rebase(static_cast<std::uint16_t>(next_seq_ + from));
  }
  return drain();
}

std::vector<RtpPacket> ReorderBuffer::flush_all() {
  std::vector<RtpPacket> out = end_opening();
  if (held_.empty()) return out;
  ++gaps_skipped_;
  const std::uint16_t last_offset = held_.rbegin()->first;
  next_seq_ = static_cast<std::uint16_t>(next_seq_ + last_offset + 1);
  for (auto& [off, h] : held_) out.push_back(std::move(h.pkt));
  held_.clear();
  return out;
}

void ReorderBuffer::reset_to(std::uint16_t next) {
  if (!held_.empty()) return;  // refuse to drop data silently
  next_seq_ = next;
  started_ = true;
  opening_ = false;
}

std::vector<RtpPacket> ReorderBuffer::skip_gap() {
  std::vector<RtpPacket> out = end_opening();
  if (held_.empty()) return out;
  ++gaps_skipped_;
  // Jump the cursor to the first held packet.
  rebase(static_cast<std::uint16_t>(next_seq_ + held_.begin()->first));
  auto flushed = drain();
  out.insert(out.end(), std::make_move_iterator(flushed.begin()),
             std::make_move_iterator(flushed.end()));
  return out;
}

}  // namespace ads
