// RegionUpdate message (draft §5.2.2, Figures 10-11) and its fragmentation
// machinery (Table 2).
//
// Wire layout of the first (or only) packet payload:
//   CommonHeader{type=2, parameter=F|PT, windowID} | Left u32 | Top u32 |
//   content bytes...
// Continuation/end packets repeat only the CommonHeader (F=0) before more
// content bytes. The RTP marker bit closes the message; all fragments share
// one RTP timestamp (§5.1.1). Width/height are NOT on the wire — they come
// from the encoded image itself.
#pragma once

#include <optional>
#include <vector>

#include "remoting/header.hpp"
#include "util/bytes.hpp"

namespace ads {

struct RegionUpdate {
  std::uint16_t window_id = 0;
  std::uint8_t content_pt = 0;  ///< 7-bit codec payload type
  std::uint32_t left = 0;       ///< window-relative region origin
  std::uint32_t top = 0;
  Bytes content;                ///< encoded image bytes

  friend bool operator==(const RegionUpdate&, const RegionUpdate&) = default;
};

/// Bytes a first (or only) fragment spends before any content: the common
/// header plus Left and Top. A fragmenting MTU must exceed it.
inline constexpr std::size_t kFirstFragmentHeader = CommonHeader::kSize + 8;

/// One RTP payload of a (possibly fragmented) RegionUpdate plus the marker
/// bit the RTP packet must carry.
struct RegionUpdateFragment {
  Bytes payload;
  bool marker = false;

  FragmentType type() const;
};

/// Split `msg` into fragments whose payloads are each at most
/// `max_payload` bytes (must exceed kFirstFragmentHeader). The fragments
/// are fragment_region_update_into's windows, each copied out.
/// A message that fits yields one kNotFragmented fragment. `type` selects
/// the Table-1 message type: MousePointerInfo "is same as RegionUpdate …
/// except they have different message types" (§5.2.4).
std::vector<RegionUpdateFragment> fragment_region_update(
    const RegionUpdate& msg, std::size_t max_payload,
    RemotingType type = RemotingType::kRegionUpdate);

/// One fragment's window into a serialised fragment stream (see
/// fragment_region_update_into) plus the RTP marker bit it must carry.
struct FragmentSpan {
  std::uint32_t offset = 0;  ///< byte offset into the stream buffer
  std::uint32_t length = 0;  ///< fragment payload length
  bool marker = false;       ///< closes the message (last fragment)
};

/// The fragmenter: appends the concatenated fragment payloads to `dest`
/// (one contiguous stream, written once) and returns the per-fragment
/// windows, so packets can be built as header-plus-view (ads::PacketView)
/// into a shared buffer —
/// every field serialised here (window id, content payload type, origin,
/// content) is participant-independent, which is what lets one stream feed
/// a whole fan-out cohort.
std::vector<FragmentSpan> fragment_region_update_into(
    const RegionUpdate& msg, std::size_t max_payload, Bytes& dest,
    RemotingType type = RemotingType::kRegionUpdate);

/// Reassembles RegionUpdate (and MousePointerInfo, which shares the
/// format) messages from in-order fragments.
class RegionUpdateReassembler {
 public:
  /// `msg_type` selects which Table-1 type this instance accepts.
  explicit RegionUpdateReassembler(
      RemotingType msg_type = RemotingType::kRegionUpdate,
      std::size_t max_message_bytes = 64 * 1024 * 1024)
      : msg_type_(msg_type), max_bytes_(max_message_bytes) {}

  /// Feed one RTP payload (+ marker). Returns a complete message when the
  /// fragment closes one, nullopt while more fragments are pending, or a
  /// ParseError for malformed input (state resets on error).
  Result<std::optional<RegionUpdate>> feed(BytesView payload, bool marker);

  /// Drop any partial state (call after a detected packet loss that will
  /// not be repaired, e.g. a skipped gap).
  void reset();

  bool in_progress() const { return in_progress_; }
  std::uint64_t messages_completed() const { return completed_; }
  std::uint64_t messages_aborted() const { return aborted_; }

 private:
  RemotingType msg_type_;
  std::size_t max_bytes_;
  bool in_progress_ = false;
  bool started_ = false;  ///< a FirstPacket fragment has been seen
  RegionUpdate partial_;
  std::uint64_t completed_ = 0;
  std::uint64_t aborted_ = 0;
};

}  // namespace ads
