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

}  // namespace cod::net
