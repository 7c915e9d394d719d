// Canonical binary encoding of a data block payload — the bytes streamed
// delivery (src/net/stream.h) and the v4 blob blocks field actually carry.
// Deterministic: equal blocks encode to equal bytes, so byte comparison is
// block comparison — the property the streamed-vs-blob differential harness
// (src/check/stream.cc) is built on. Unlike the persist layer's textual
// inline payloads, this codec covers every medium including video.
#ifndef SRC_MEDIA_BLOCK_CODEC_H_
#define SRC_MEDIA_BLOCK_CODEC_H_

#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/media/data_block.h"

namespace cmif {

std::string EncodeBlockPayload(const DataBlock& block);

// Inverse; corrupt payloads (bad medium, implausible geometry, truncation)
// are structured kDataLoss with byte offsets, never a crash or an unbounded
// allocation.
StatusOr<DataBlock> DecodeBlockPayload(std::string_view payload);

}  // namespace cmif

#endif  // SRC_MEDIA_BLOCK_CODEC_H_
