#include "net/transport.hpp"

namespace cod::net {

std::uint32_t framesInDatagram(std::span<const std::uint8_t> bytes) {
  // kBatch container header (core/protocol.hpp): [u8 10][u16 count LE].
  // Anything else — bare frame, runt, garbage — is one frame: the loss
  // accounting should never report less than one loss per lost datagram.
  constexpr std::uint8_t kBatchType = 10;
  if (bytes.size() < 3 || bytes[0] != kBatchType) return 1;
  const std::uint32_t count =
      static_cast<std::uint32_t>(bytes[1]) |
      (static_cast<std::uint32_t>(bytes[2]) << 8);
  return count == 0 ? 1 : count;
}

void Transport::sendv(const NodeAddr& dst, std::span<const ByteSpan> parts) {
  // Gather fallback: linearize into a reused scratch and take the plain
  // path. thread_local so CBs ticked from different threads never share
  // the scratch.
  thread_local std::vector<std::uint8_t> scratch;
  scratch.clear();
  std::size_t total = 0;
  for (const ByteSpan p : parts) total += p.size();
  scratch.reserve(total);
  for (const ByteSpan p : parts)
    scratch.insert(scratch.end(), p.begin(), p.end());
  send(dst, scratch);
}

}  // namespace cod::net
