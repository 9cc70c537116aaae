// Sender side of every link the system writes packets onto: the AH's
// participant links, a relay's downstream legs and a TCP participant's
// uplink. A Transport is the link itself (three operations); an Egress sits
// on top of it and owns the send mechanics that every sender needs the same
// way:
//   * RFC 4571 framing on stream links (2-byte length prefix per packet);
//   * the carry: the unaccepted suffix of a partial stream write, offered
//     again in front of the next write so frames are never torn;
//   * per-turn UDP batching: media packets queue until flush() and leave in
//     one batch call;
//   * control packets (SRs, BFCP responses, forwarded RTCP, uplink HIP),
//     which follow whatever is queued or carried instead of overtaking it;
//   * the one oversize guard (a packet its link cannot carry is dropped);
//   * backlog() = transport backlog + carry, the §7 select() signal.
// Send policy — retransmission-cache inserts, the §4.3 token bucket and the
// §7 gate — stays with the caller: the AH gates whole frames, a relay drops
// single packets.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "rtp/packet_view.hpp"
#include "util/bytes.hpp"

namespace ads {

/// One link under an Egress: a datagram link (UDP, multicast) or a byte
/// stream (TCP). Unset operations accept nothing (backlog reads 0).
struct Transport {
  /// Link family: datagrams or one ordered byte stream.
  enum class Kind { kUdp, kTcp };
  Kind kind = Kind::kUdp;
  /// UDP: send the packets in order, one datagram each; returns how many
  /// the link accepted.
  std::function<std::size_t(std::span<const PacketView>)> send_batch;
  /// One write of the concatenation of `parts`: a single datagram on UDP
  /// (where the Egress always offers exactly one part), one non-blocking
  /// stream write on TCP. Returns the bytes accepted.
  std::function<std::size_t(std::span<const BytesView>)> write;
  /// Bytes accepted by the link but not yet on the wire.
  std::function<std::size_t()> backlog;
};

/// Framing, carry, batching and control sends for one Transport.
class Egress {
 public:
  /// Largest UDP payload over IPv4, so the largest packet a datagram
  /// link carries.
  static constexpr std::size_t kMaxDatagram = 65507;
  /// Largest packet an RFC 4571 frame carries (16-bit length prefix).
  static constexpr std::size_t kMaxFrame = 0xFFFF;

  /// An Egress over an empty UDP transport (accepts nothing).
  Egress() = default;
  /// `bytes_copied`, when set, accumulates the bytes this Egress stages
  /// into its carry (the only copies it makes).
  explicit Egress(Transport transport, std::uint64_t* bytes_copied = nullptr)
      : t_(std::move(transport)), bytes_copied_(bytes_copied) {}

  /// True for a datagram link.
  bool udp() const { return t_.kind == Transport::Kind::kUdp; }

  /// Send one media packet: UDP queues it until flush(); TCP frames it and
  /// gather-writes {carry, prefix + header, payload} at once. Returns the
  /// bytes the packet puts on the link (wire size on UDP, framed size on
  /// TCP), or 0 when the packet is too large for the link and is dropped.
  std::size_t send(const PacketView& v);

  /// Send one serialised packet after everything queued or carried: UDP
  /// flushes the queue, then writes one datagram; TCP frames it behind the
  /// carry. A packet too large for the link is dropped.
  void send_control(BytesView packet);

  /// UDP: drain the queued packets in one send_batch call.
  void flush();

  /// TCP: offer the carry to the link again. Call before reading
  /// backlog() for a send decision, so a drained link does not stay gated
  /// on bytes it would now accept.
  void drain();

  /// Transport backlog plus the carry.
  std::size_t backlog() const;

 private:
  /// Largest packet this link carries.
  std::size_t max_packet() const { return udp() ? kMaxDatagram : kMaxFrame; }
  /// Gather-write {carry, parts...} as one stream write and re-stage the
  /// unaccepted suffix: the carry's own tail stays in place, the
  /// unaccepted bytes of `parts` are appended (and counted as copied).
  void write_behind_carry(std::span<const BytesView> parts);

  Transport t_;
  Bytes carry_;                     ///< unaccepted suffix of the last write
  std::vector<PacketView> queue_;   ///< this turn's UDP packets
  std::uint64_t* bytes_copied_ = nullptr;
};

}  // namespace ads
