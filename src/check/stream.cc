// The stream lens (declared in differential.h): streamed delivery checked
// against blob delivery on a virtual bandwidth-constrained link.
#include "src/check/differential.h"

#include <map>
#include <utility>

#include "src/base/string_util.h"
#include "src/check/diverge.h"
#include "src/media/block_codec.h"
#include "src/net/presentation_wire.h"
#include "src/net/stream.h"
#include "src/pipeline/pipeline.h"
#include "src/player/engine.h"
#include "src/serve/prefetch.h"

namespace cmif {
namespace check {
namespace {

// Carves the plan's logical byte string the way the server's v4 blob path
// does: one WireBlock per manifest entry, delivery order.
std::vector<net::WireBlock> CarveBlob(const StreamPlan& plan) {
  std::vector<net::WireBlock> blocks;
  blocks.reserve(plan.blocks.size());
  for (const PrefetchBlock& block : plan.blocks) {
    blocks.push_back(net::WireBlock{
        block.descriptor_id,
        plan.bytes.substr(static_cast<std::size_t>(block.offset),
                          static_cast<std::size_t>(block.bytes))});
  }
  return blocks;
}

Status CompareBlocks(const std::string& tag, const std::string& check,
                     const std::vector<net::WireBlock>& streamed,
                     const std::vector<net::WireBlock>& blob) {
  if (streamed.size() != blob.size()) {
    return Diverged(tag, check,
                    StrFormat("stream delivered %zu blocks, blob %zu", streamed.size(),
                              blob.size()));
  }
  for (std::size_t i = 0; i < blob.size(); ++i) {
    if (streamed[i].descriptor_id != blob[i].descriptor_id) {
      return Diverged(tag, check,
                      StrFormat("block %zu is '%s' on the stream but '%s' in the blob", i,
                                streamed[i].descriptor_id.c_str(),
                                blob[i].descriptor_id.c_str()));
    }
    if (streamed[i].payload != blob[i].payload) {
      return Diverged(tag, check,
                      StrFormat("block %zu ('%s') payload bytes differ between stream and blob",
                                i, streamed[i].descriptor_id.c_str()));
    }
  }
  return Status::Ok();
}

// The resume boundaries worth replaying: every one on short streams, the
// edges plus the middle on long ones (each replay re-feeds the tail).
std::vector<std::uint64_t> ResumeCuts(std::uint64_t total_chunks) {
  std::vector<std::uint64_t> cuts;
  if (total_chunks < 2) {
    return cuts;
  }
  if (total_chunks <= 8) {
    for (std::uint64_t k = 1; k < total_chunks; ++k) {
      cuts.push_back(k);
    }
    return cuts;
  }
  cuts = {1, total_chunks / 2, total_chunks - 1};
  return cuts;
}

}  // namespace

Status ValidateLink(const StreamLink& link) {
  if (link.bandwidth_bytes_per_s < 0) {
    return InvalidArgumentError(StrFormat("bandwidth %lld is negative",
                                          static_cast<long long>(link.bandwidth_bytes_per_s)));
  }
  if (link.chunk_bytes < net::kMinChunkBytes || link.chunk_bytes > net::kMaxChunkBytes) {
    return InvalidArgumentError(StrFormat("chunk %llu is outside [%llu, %llu]",
                                          static_cast<unsigned long long>(link.chunk_bytes),
                                          static_cast<unsigned long long>(net::kMinChunkBytes),
                                          static_cast<unsigned long long>(net::kMaxChunkBytes)));
  }
  return Status::Ok();
}

Status CheckStreamDocument(const Document& document, const DescriptorStore* store,
                           const std::string& tag, const SystemProfile& profile,
                           const StreamLink& link, CheckCounters* counters) {
  const std::string check = "stream";
  CMIF_RETURN_IF_ERROR(ValidateLink(link));
  const std::uint64_t chunk_bytes = link.chunk_bytes;
  DescriptorStore empty;
  const DescriptorStore& catalog = store != nullptr ? *store : empty;
  BlockStore blocks;

  PipelineOptions options;
  options.profile = profile;
  options.mode = PipelineMode::kCompileOnly;
  CMIF_ASSIGN_OR_RETURN(CompileReport report,
                        CompilePresentation(document, catalog, blocks, options));
  CompiledPresentation compiled{report.presentation_map, report.filter, report.schedule};
  CMIF_ASSIGN_OR_RETURN(StreamPlan plan, BuildStreamPlan(compiled, catalog, blocks, profile));

  if (!compiled.schedule.feasible) {
    if (!plan.blocks.empty() || !plan.bytes.empty()) {
      return Diverged(tag, check, "infeasible schedule produced a non-empty delivery plan");
    }
    return Status::Ok();
  }
  if (counters != nullptr && !plan.blocks.empty()) {
    ++counters->streamed;
  }

  // Plan invariants both delivery paths rely on: contiguous offsets, the
  // advertised hash, and delivery order sorted by must-start time.
  std::uint64_t expected_offset = 0;
  for (std::size_t i = 0; i < plan.blocks.size(); ++i) {
    const PrefetchBlock& block = plan.blocks[i];
    if (block.offset != expected_offset) {
      return Diverged(tag, check,
                      StrFormat("block %zu ('%s') offset %llu, expected %llu (plan not "
                                "contiguous)",
                                i, block.descriptor_id.c_str(),
                                static_cast<unsigned long long>(block.offset),
                                static_cast<unsigned long long>(expected_offset)));
    }
    expected_offset += block.bytes;
    if (i > 0 && plan.blocks[i - 1].must_start_by > block.must_start_by) {
      return Diverged(tag, check, "plan is not sorted by must-start time");
    }
  }
  if (expected_offset != plan.total_bytes()) {
    return Diverged(tag, check, "manifest byte total disagrees with the plan payload");
  }
  if (plan.payload_hash != Fnv1a64(plan.bytes)) {
    return Diverged(tag, check, "plan payload hash is not Fnv1a64 of the payload");
  }

  // ---- bytes: plan -> chunk codecs -> reassembler vs the blob carve ------
  const std::vector<net::WireBlock> blob = CarveBlob(plan);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    if (StatusOr<DataBlock> decoded = DecodeBlockPayload(blob[i].payload); !decoded.ok()) {
      return Diverged(tag, check,
                      StrFormat("block %zu ('%s') is not a canonical payload encoding: %s", i,
                                blob[i].descriptor_id.c_str(),
                                decoded.status().message().c_str()));
    }
  }

  net::StreamBegin begin;
  begin.prefix.outcome = ServeOutcome::kHealthy;
  begin.prefix.presentation = net::SerializePresentation(compiled);
  begin.prefix.presentation_hash = net::PresentationHash(compiled);
  begin.chunk_bytes = chunk_bytes;
  begin.total_chunks = net::StreamChunkCount(plan.total_bytes(), chunk_bytes);
  begin.payload_hash = plan.payload_hash;
  begin.stream_id =
      net::DeriveStreamId(begin.prefix.presentation_hash, plan.payload_hash, chunk_bytes);
  begin.manifest.reserve(plan.blocks.size());
  for (const PrefetchBlock& block : plan.blocks) {
    begin.manifest.push_back(net::StreamBlockInfo{block.descriptor_id, block.bytes,
                                                  block.first_need});
  }

  StatusOr<net::StreamBegin> begin_rt = net::DecodeStreamBegin(net::EncodeStreamBegin(begin));
  if (!begin_rt.ok()) {
    return Diverged(tag, check,
                    "StreamBegin does not survive its own codec: " + begin_rt.status().message());
  }

  std::vector<net::StreamChunk> chunks;
  chunks.reserve(static_cast<std::size_t>(begin.total_chunks));
  for (std::uint64_t i = 0; i < begin.total_chunks; ++i) {
    net::StreamChunk chunk;
    chunk.stream_id = begin.stream_id;
    chunk.chunk_index = i;
    chunk.payload = plan.bytes.substr(static_cast<std::size_t>(i * chunk_bytes),
                                      static_cast<std::size_t>(chunk_bytes));
    const bool last = i + 1 == begin.total_chunks;
    if (!last && chunk.payload.size() != chunk_bytes) {
      return Diverged(tag, check, StrFormat("non-final chunk %llu is not exactly chunk-sized",
                                            static_cast<unsigned long long>(i)));
    }
    StatusOr<net::StreamChunk> rt = net::DecodeStreamChunk(net::EncodeStreamChunk(chunk));
    if (!rt.ok()) {
      return Diverged(tag, check,
                      StrFormat("chunk %llu does not survive its own codec: %s",
                                static_cast<unsigned long long>(i),
                                rt.status().message().c_str()));
    }
    if (rt->payload != chunk.payload || rt->chunk_index != i || rt->stream_id != begin.stream_id) {
      return Diverged(tag, check, StrFormat("chunk %llu changed in its codec round trip",
                                            static_cast<unsigned long long>(i)));
    }
    chunks.push_back(std::move(*rt));
  }

  net::StreamEnd end;
  end.stream_id = begin.stream_id;
  end.total_chunks = begin.total_chunks;
  end.payload_hash = begin.payload_hash;
  StatusOr<net::StreamEnd> end_rt = net::DecodeStreamEnd(net::EncodeStreamEnd(end));
  if (!end_rt.ok()) {
    return Diverged(tag, check,
                    "StreamEnd does not survive its own codec: " + end_rt.status().message());
  }

  net::StreamReassembler reassembler;
  if (Status s = reassembler.Begin(*begin_rt); !s.ok()) {
    return Diverged(tag, check, "reassembler rejected a well-formed StreamBegin: " + s.message());
  }
  for (const net::StreamChunk& chunk : chunks) {
    if (Status s = reassembler.Feed(chunk); !s.ok()) {
      return Diverged(tag, check,
                      StrFormat("reassembler rejected in-order chunk %llu: %s",
                                static_cast<unsigned long long>(chunk.chunk_index),
                                s.message().c_str()));
    }
  }
  if (!reassembler.complete()) {
    return Diverged(tag, check, "reassembler not complete after every chunk");
  }
  StatusOr<std::vector<net::WireBlock>> streamed = reassembler.Finish(*end_rt);
  if (!streamed.ok()) {
    return Diverged(tag, check, "finish failed on an intact stream: " +
                                    streamed.status().message());
  }
  CMIF_RETURN_IF_ERROR(CompareBlocks(tag, check, *streamed, blob));

  // ---- resume: cut the stream at chunk boundaries and re-deliver ---------
  for (std::uint64_t cut : ResumeCuts(begin.total_chunks)) {
    net::StreamReassembler first;
    if (Status s = first.Begin(*begin_rt); !s.ok()) {
      return Diverged(tag, check, "resume-first Begin failed: " + s.message());
    }
    for (std::uint64_t i = 0; i < cut; ++i) {
      if (Status s = first.Feed(chunks[static_cast<std::size_t>(i)]); !s.ok()) {
        return Diverged(tag, check, "resume-first Feed failed: " + s.message());
      }
    }
    if (first.chunks_received() != cut) {
      return Diverged(tag, check,
                      StrFormat("held %llu contiguous chunks after feeding %llu",
                                static_cast<unsigned long long>(first.chunks_received()),
                                static_cast<unsigned long long>(cut)));
    }
    net::StreamBegin resumed = *begin_rt;
    resumed.resumed_from = cut;
    net::StreamReassembler second;
    if (Status s = second.Begin(resumed, std::string(first.bytes())); !s.ok()) {
      return Diverged(tag, check,
                      StrFormat("resume at chunk %llu rejected: %s",
                                static_cast<unsigned long long>(cut), s.message().c_str()));
    }
    for (std::uint64_t i = cut; i < begin.total_chunks; ++i) {
      if (Status s = second.Feed(chunks[static_cast<std::size_t>(i)]); !s.ok()) {
        return Diverged(tag, check,
                        StrFormat("resumed stream rejected chunk %llu: %s",
                                  static_cast<unsigned long long>(i), s.message().c_str()));
      }
    }
    StatusOr<std::vector<net::WireBlock>> resumed_blocks = second.Finish(*end_rt);
    if (!resumed_blocks.ok()) {
      return Diverged(tag, check,
                      StrFormat("resumed stream (cut %llu) failed finish: %s",
                                static_cast<unsigned long long>(cut),
                                resumed_blocks.status().message().c_str()));
    }
    CMIF_RETURN_IF_ERROR(CompareBlocks(
        tag, StrFormat("%s(resume@%llu)", check.c_str(), static_cast<unsigned long long>(cut)),
        *resumed_blocks, blob));
  }

  // ---- playback: streamed arrivals vs everything-local -------------------
  PlayerOptions blob_options;
  blob_options.profile = profile;
  blob_options.enable_freeze = true;
  CMIF_ASSIGN_OR_RETURN(PlaybackResult blob_run,
                        Play(document, compiled.schedule.schedule, store, blob_options));

  // Virtual link: byte n of the logical stream arrives at n / bandwidth, so
  // a block is playable once its last byte has arrived.
  std::map<std::string, MediaTime> arrival;
  bool on_time = true;
  for (const PrefetchBlock& block : plan.blocks) {
    MediaTime at = link.bandwidth_bytes_per_s > 0
                       ? MediaTime::Bytes(static_cast<std::int64_t>(block.offset + block.bytes),
                                          link.bandwidth_bytes_per_s)
                       : MediaTime();
    if (at > block.first_need) {
      on_time = false;
    }
    arrival.emplace(block.descriptor_id, at);
  }
  PlayerOptions stream_options = blob_options;
  stream_options.block_arrival = [&arrival](const EventDescriptor& event) {
    auto it = arrival.find(event.descriptor_id);
    return it == arrival.end() ? MediaTime() : it->second;
  };
  CMIF_ASSIGN_OR_RETURN(PlaybackResult stream_run,
                        Play(document, compiled.schedule.schedule, store, stream_options));

  if (on_time && stream_run.stalls != 0) {
    return Diverged(tag, check,
                    StrFormat("link meets every first-need yet the streamed run stalled %zu "
                              "times (total %s)",
                              stream_run.stalls, stream_run.stall_total.ToString().c_str()));
  }
  if (stream_run.stalls == 0) {
    // A stall-free stream must be indistinguishable from the blob: same
    // trace, tick for tick.
    const FinalClock blob_clock{blob_run.clock.document_time(), blob_run.clock.presentation_time(),
                                blob_run.clock.frozen_total()};
    CMIF_RETURN_IF_ERROR(CompareTrace(tag, check, stream_run, "streamed", blob_run.trace.entries(),
                                      blob_clock, "blob"));
    if (stream_run.sync_violations != blob_run.sync_violations) {
      return Diverged(tag, check, "sync-violation counts differ between delivery paths");
    }
  } else {
    // The link fell behind: stalls are allowed, silent divergence is not.
    // The streamed run still presents every event, in order, with must-sync
    // intact (freezing absorbs the lateness).
    if (stream_run.trace.size() != blob_run.trace.size()) {
      return Diverged(tag, check, "stalling stream dropped or duplicated events");
    }
    for (std::size_t i = 0; i < blob_run.trace.size(); ++i) {
      const TraceEntry& s = stream_run.trace.entries()[i];
      const TraceEntry& b = blob_run.trace.entries()[i];
      if (s.label != b.label || s.channel != b.channel ||
          s.scheduled_begin != b.scheduled_begin) {
        return Diverged(tag, check,
                        StrFormat("stalling stream reordered entry %zu ('%s')", i,
                                  b.label.c_str()));
      }
    }
    if (stream_run.sync_violations != 0) {
      return Diverged(tag, check,
                      "stream stalls leaked through freezing as sync violations");
    }
    if (!stream_run.stall_total.is_positive()) {
      return Diverged(tag, check, "stalls counted but zero total stall time");
    }
    if (Status s = stream_run.trace.Verify(); !s.ok()) {
      return Diverged(tag, check, "stalling stream trace fails Verify: " + s.message());
    }
  }
  return Status::Ok();
}

}  // namespace check
}  // namespace cmif
