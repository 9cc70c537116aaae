// Test adapters: a Transport (rtp/egress.hpp) over plain byte-sink lambdas,
// for tests that observe the wire as bytes rather than as PacketViews.
#pragma once

#include <functional>
#include <span>

#include "rtp/egress.hpp"

namespace ads::test {

/// Concatenate the parts of one gather write.
inline Bytes joined(std::span<const BytesView> parts) {
  Bytes out;
  for (const BytesView& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// Datagram link: every packet, media or control, reaches `sink` as one
/// serialised datagram, and the link accepts them all.
inline Transport udp_sink(std::function<void(BytesView)> sink) {
  Transport t;
  t.kind = Transport::Kind::kUdp;
  t.send_batch = [sink](std::span<const PacketView> pkts) {
    for (const PacketView& v : pkts) sink(v.serialize());
    return pkts.size();
  };
  t.write = [sink](std::span<const BytesView> parts) {
    const Bytes d = joined(parts);
    sink(d);
    return d.size();
  };
  return t;
}

/// Stream link: each write reaches `sink` as one contiguous buffer, and
/// `sink` returns how many of its bytes the link accepts. `backlog` (unset
/// reads 0) is the link's send backlog.
inline Transport tcp_sink(std::function<std::size_t(BytesView)> sink,
                          std::function<std::size_t()> backlog = {}) {
  Transport t;
  t.kind = Transport::Kind::kTcp;
  t.write = [sink](std::span<const BytesView> parts) { return sink(joined(parts)); };
  t.backlog = std::move(backlog);
  return t;
}

}  // namespace ads::test
