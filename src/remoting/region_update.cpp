#include "remoting/region_update.hpp"

#include <algorithm>
#include <cassert>

namespace ads {
namespace {

void write_common(ByteWriter& out, RemotingType type, const RegionUpdate& msg,
                  bool first) {
  CommonHeader header;
  header.msg_type = static_cast<std::uint8_t>(type);
  header.parameter = CommonHeader::make_parameter(first, msg.content_pt);
  header.window_id = msg.window_id;
  header.write(out);
}

}  // namespace

FragmentType RegionUpdateFragment::type() const {
  ByteReader in(payload);
  auto header = CommonHeader::read(in);
  const bool first = header.ok() && header->first_packet();
  return classify_fragment(marker, first);
}

std::vector<FragmentSpan> fragment_region_update_into(const RegionUpdate& msg,
                                                      std::size_t max_payload,
                                                      Bytes& dest,
                                                      RemotingType type) {
  assert(max_payload > kFirstFragmentHeader);
  std::vector<FragmentSpan> out;
  // ByteWriter's adopting constructor clears: stash any existing content and
  // re-write it first. The hot path (a cleared pooled buffer) has an empty
  // prefix, so it pays nothing and keeps the recycled allocation.
  const Bytes prefix(dest);
  ByteWriter w(std::move(dest));
  w.bytes(prefix);

  const std::size_t first_room = max_payload - kFirstFragmentHeader;
  const std::size_t cont_room = max_payload - CommonHeader::kSize;

  std::size_t offset = std::min(msg.content.size(), first_room);
  {
    FragmentSpan span;
    span.offset = static_cast<std::uint32_t>(w.size());
    write_common(w, type, msg, /*first=*/true);
    w.u32(msg.left);
    w.u32(msg.top);
    w.bytes(BytesView(msg.content).first(offset));
    span.length = static_cast<std::uint32_t>(w.size() - span.offset);
    span.marker = offset == msg.content.size();
    out.push_back(span);
  }
  while (offset < msg.content.size()) {
    const std::size_t take = std::min(cont_room, msg.content.size() - offset);
    FragmentSpan span;
    span.offset = static_cast<std::uint32_t>(w.size());
    write_common(w, type, msg, /*first=*/false);
    w.bytes(BytesView(msg.content).subspan(offset, take));
    span.length = static_cast<std::uint32_t>(w.size() - span.offset);
    offset += take;
    span.marker = offset == msg.content.size();
    out.push_back(span);
  }
  dest = w.take();
  return out;
}

std::vector<RegionUpdateFragment> fragment_region_update(const RegionUpdate& msg,
                                                         std::size_t max_payload,
                                                         RemotingType type) {
  Bytes stream;
  const std::vector<FragmentSpan> spans =
      fragment_region_update_into(msg, max_payload, stream, type);
  std::vector<RegionUpdateFragment> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto first = stream.begin() + spans[i].offset;
    out[i].payload.assign(first, first + spans[i].length);
    out[i].marker = spans[i].marker;
  }
  return out;
}

Result<std::optional<RegionUpdate>> RegionUpdateReassembler::feed(BytesView payload,
                                                                  bool marker) {
  ByteReader in(payload);
  auto header = CommonHeader::read(in);
  if (!header) {
    reset();
    return header.error();
  }
  if (header->msg_type != static_cast<std::uint8_t>(msg_type_)) {
    reset();
    return ParseError::kBadValue;
  }

  const bool first = header->first_packet();
  if (first) {
    if (in_progress_) {
      // A new message started while another was open: the tail of the old
      // one was lost. Abandon it and accept the new start.
      ++aborted_;
    }
    auto left = in.u32();
    auto top = in.u32();
    if (!left || !top) {
      reset();
      return ParseError::kTruncated;
    }
    partial_ = RegionUpdate{};
    partial_.window_id = header->window_id;
    partial_.content_pt = header->content_pt();
    partial_.left = *left;
    partial_.top = *top;
    in_progress_ = true;
    started_ = true;
  } else {
    if (!in_progress_) {
      // Before the first start the stream opened mid-message (a late
      // joiner): the fragment belongs to nobody and is not an error. Later
      // on, a continuation without a start means the first packet was lost.
      if (!started_) return std::optional<RegionUpdate>{};
      return ParseError::kBadState;
    }
    if (header->window_id != partial_.window_id ||
        header->content_pt() != partial_.content_pt) {
      reset();
      return ParseError::kBadValue;
    }
  }

  const BytesView chunk = in.rest();
  if (partial_.content.size() + chunk.size() > max_bytes_) {
    reset();
    return ParseError::kOverflow;
  }
  partial_.content.insert(partial_.content.end(), chunk.begin(), chunk.end());

  if (!marker) return std::optional<RegionUpdate>{};

  ++completed_;
  in_progress_ = false;
  std::optional<RegionUpdate> done = std::move(partial_);
  partial_ = RegionUpdate{};
  return done;
}

void RegionUpdateReassembler::reset() {
  if (in_progress_) ++aborted_;
  in_progress_ = false;
  partial_ = RegionUpdate{};
}

}  // namespace ads
