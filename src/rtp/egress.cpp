#include "rtp/egress.hpp"

#include <algorithm>
#include <array>

namespace ads {

std::size_t Egress::send(const PacketView& v) {
  if (v.wire_size() > max_packet()) return 0;
  if (udp()) {
    queue_.push_back(v);  // refcount bump; flush() drains the turn
    return v.wire_size();
  }
  const std::array<BytesView, 2> parts{v.framed_header(), v.payload()};
  write_behind_carry(parts);
  return v.framed_size();
}

void Egress::send_control(BytesView packet) {
  if (packet.size() > max_packet()) return;
  if (udp()) {
    flush();
    if (t_.write) t_.write(std::span<const BytesView>(&packet, 1));
    return;
  }
  const std::array<std::uint8_t, 2> prefix{
      static_cast<std::uint8_t>(packet.size() >> 8),
      static_cast<std::uint8_t>(packet.size() & 0xFF)};
  const std::array<BytesView, 2> parts{BytesView(prefix.data(), prefix.size()),
                                       packet};
  write_behind_carry(parts);
}

void Egress::flush() {
  if (queue_.empty()) return;
  // Detach the turn first: a link that delivers synchronously may feed
  // back into a send (a NACK answered at once) while the batch is out.
  std::vector<PacketView> batch;
  batch.swap(queue_);
  if (t_.send_batch) t_.send_batch(batch);
  batch.clear();
  if (queue_.empty()) queue_.swap(batch);  // keep the allocation
}

void Egress::drain() {
  if (!carry_.empty()) write_behind_carry({});
}

std::size_t Egress::backlog() const {
  return (t_.backlog ? t_.backlog() : 0) + carry_.size();
}

void Egress::write_behind_carry(std::span<const BytesView> parts) {
  std::array<BytesView, 3> offer;
  std::size_t n = 0;
  if (!carry_.empty()) offer[n++] = BytesView(carry_);
  for (const BytesView& p : parts) offer[n++] = p;
  std::size_t wrote =
      t_.write ? t_.write(std::span<const BytesView>(offer.data(), n)) : 0;
  const std::size_t from_carry = std::min(wrote, carry_.size());
  carry_.erase(carry_.begin(),
               carry_.begin() + static_cast<std::ptrdiff_t>(from_carry));
  wrote -= from_carry;
  for (const BytesView& p : parts) {
    const std::size_t taken = std::min(wrote, p.size());
    wrote -= taken;
    carry_.insert(carry_.end(), p.begin() + static_cast<std::ptrdiff_t>(taken),
                  p.end());
    if (bytes_copied_ != nullptr) *bytes_copied_ += p.size() - taken;
  }
}

}  // namespace ads
