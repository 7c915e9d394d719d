// cmif_perfbench — the repository benchmark. One workload per process:
//
//   cmif_perfbench --workload author|stream --seed N --seconds S
//                  --trace 0|1 [--trace-out FILE]
//
// Every workload stands up the same rig (rig.h) and runs two kinds of load
// at once against it over loopback TCP:
//   * open-loop viewers — Present requests due at a fixed rate on one
//     pipelined connection, latency timed from each request's due time;
//   * one closed-loop actor on its own connection — the workload's task:
//       author  Apply -> Recompile -> Publish -> view the edited document,
//       stream  a streamed ~3 MB transfer, timed to first frame and to end.
// Client threads plus connections: 2 + 2 = 4, the machine's hardware
// threads; the server's worker count is fixed (rig.h).
//
// --trace 0 reports the end-to-end metrics from an untraced run. --trace 1
// runs the window untraced and then traced (each half the time), adds a
// probe that calls every layer on the workload's own documents, reports the
// per-layer metrics from the spans plus the server's own counters, and
// writes the spans as a Chrome trace. The last stdout line is the JSON
// result either way.
#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/clients.h"
#include "perfbench/src/report.h"
#include "perfbench/src/rig.h"
#include "perfbench/src/tracer.h"
#include "src/base/string_util.h"

namespace perfbench {
namespace {

namespace net = api::net;

enum class Workload { kAuthor, kStream };

// ---- fixed load shape (constants of each workload, never measured) ---------

// Viewers beside the actor, at a fixed rate.
constexpr double kViewerRps = 200;
// A run whose generator sent later than this (p99) is invalid.
constexpr double kMaxLatenessP99Ms = 10.0;
constexpr int kSetupRepeats = 25;
// Traced runs: the viewers alone, so the server's counters cover them only.
constexpr double kViewersAloneSeconds = 2;
// Window of the windowed percentiles (report.h TimedSamples).
constexpr double kWindowUs = 1e6;
constexpr std::size_t kViewerTraceLength = 1 << 16;
constexpr std::size_t kEditTraceLength = 1 << 12;
// Layer probe sizes (traced runs only).
constexpr int kCodecProbeIterations = 400;
constexpr int kServeProbeIterations = 20;
constexpr int kCompileProbeRepeats = 3;
constexpr int kEditProbeEdits = 16;
constexpr int kStreamProbeStreams = 4;
// The seed held out of every tuning run, kept for later claim checks.
constexpr std::uint64_t kHeldOutSeed = 20261016;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: cmif_perfbench --workload author|stream --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 0);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload != "author" && args.workload != "stream") {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0) || (args.trace != 0 && args.trace != 1)) {
    Usage("--seconds must be positive and --trace 0 or 1");
  }
  return args;
}

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "perfbench: " << what << "\n";
  std::exit(1);
}

// ---- workload state ---------------------------------------------------------

// A retunable arc of the authoring document (lower-bound-only, so retuning
// its min_delay keeps the session feasible and on the incremental path).
struct RetuneSlot {
  std::string path;
  int arc_index = 0;
  cmif::MediaTime offset;
};

void CollectSlots(const cmif::Node& node, const std::string& path,
                  std::vector<RetuneSlot>& slots) {
  for (std::size_t i = 0; i < node.arcs().size(); ++i) {
    if (!node.arcs()[i].max_delay.has_value()) {
      slots.push_back({path, static_cast<int>(i), node.arcs()[i].offset});
    }
  }
  for (std::size_t i = 0; i < node.child_count(); ++i) {
    const cmif::Node& child = node.ChildAt(i);
    if (!child.name().empty()) {
      CollectSlots(child, path == "/" ? "/" + child.name() : path + "/" + child.name(), slots);
    }
  }
}

// The seeded single-arc retune trace: a random lower-bound-only arc gets a
// random min_delay on a quarter-second grid.
std::vector<cmif::EditOp> RetuneTrace(const cmif::Document& document, std::uint64_t seed,
                                      std::size_t count) {
  std::vector<RetuneSlot> slots;
  CollectSlots(document.root(), "/", slots);
  if (slots.empty()) {
    Die("the authoring document has no lower-bound-only arcs");
  }
  std::mt19937_64 rng(seed);
  std::vector<cmif::EditOp> trace;
  trace.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const RetuneSlot& slot = slots[rng() % slots.size()];
    cmif::EditOp op;
    op.kind = cmif::EditOpKind::kRetuneArc;
    op.path = slot.path;
    op.arc_index = slot.arc_index;
    op.arc.offset = slot.offset;
    op.arc.min_delay = cmif::MediaTime::Rational(-static_cast<std::int64_t>(rng() % 4 + 1), 4);
    op.arc.max_delay = std::nullopt;
    trace.push_back(op);
  }
  return trace;
}

std::unique_ptr<api::EditSession> OpenSession(api::ServeCorpus& corpus, std::size_t slot) {
  auto session = corpus.store().WithRead([&](const cmif::DescriptorStore& store) {
    return api::EditSession::Open(corpus.document(slot).document, store);
  });
  if (!session.ok()) {
    Die("opening the edit session: " + session.status().ToString());
  }
  return std::move(*session);
}

struct Context {
  Workload workload = Workload::kAuthor;
  std::uint64_t seed = 1;
  std::unique_ptr<Rig> rig;
  std::map<ViewKey, Expected> expected;  // every news key
  std::vector<ViewKey> viewer_keys;      // seeded Zipf(1.0) over the news slots
  std::vector<ViewKey> stream_keys;  // stream: the actor's cycle
  // stream: the blob (want_blocks) delivery of every stream key.
  std::map<ViewKey, std::vector<net::WireBlock>> blobs;
  // author: the live session and its retune trace.
  std::unique_ptr<api::EditSession> session;
  std::vector<cmif::EditOp> edits;
  std::size_t next_edit = 0;
  std::uint64_t next_op = 1;  // span op ids, unique per run
};

std::vector<ViewKey> ZipfKeys(std::uint64_t seed, std::size_t count) {
  api::ServeOptions options;
  options.seed = seed;
  options.zipf_skew = 1.0;
  std::vector<ViewKey> keys;
  keys.reserve(count);
  for (const cmif::ServeRequest& request : api::GenerateTrace(kNewsDocs, count, options)) {
    keys.push_back({request.document, request.profile});
  }
  return keys;
}

// Stands the rig up and warms what the workload's actor will touch. This is
// what setup_s times.
void SetUp(Context& ctx) {
  ctx.rig = std::make_unique<Rig>(ctx.seed);
  if (ctx.workload == Workload::kAuthor) {
    ctx.session = OpenSession(ctx.rig->corpus(), kAuthorSlot);
    FrameConn conn(ctx.rig->port());
    if (!FetchView(conn, ctx.rig->RequestFor({kAuthorSlot, 0}), nullptr, 0).ok) {
      Die("warming the authoring document failed");
    }
  } else if (ctx.workload == Workload::kStream) {
    FrameConn conn(ctx.rig->port());
    if (!FetchStream(conn, ctx.rig->RequestFor(ctx.stream_keys.front()), nullptr, 0).ok) {
      Die("warming the stream path failed");
    }
  }
}

// Ground truth and workload inputs; not part of the timed set-up.
void Prepare(Context& ctx) {
  ctx.expected = ExpectedNews(*ctx.rig);
  if (ctx.workload == Workload::kAuthor) {
    ctx.edits = RetuneTrace(ctx.session->document(), ctx.seed, kEditTraceLength);
  }
  if (ctx.workload == Workload::kStream) {
    api::NetClientOptions options;
    options.port = ctx.rig->port();
    api::NetClient client(options);
    for (const ViewKey& key : ctx.stream_keys) {
      if (ctx.blobs.count(key) != 0) {
        continue;
      }
      api::PresentRequest request = ctx.rig->RequestFor(key);
      request.want_blocks = true;
      auto blob = client.Present(request);
      if (!blob.ok() || blob->blocks.empty()) {
        Die("fetching the blob delivery of a stream document failed");
      }
      ctx.blobs[key] = std::move(blob->blocks);
    }
  }
}

// ---- one measured window ------------------------------------------------------

struct ActorResult {
  TimedSamples op_ms;   // author: edit-to-view; stream: TTFF
  Samples complete_ms;  // stream: request -> Finish
  OpCounts counts;
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;
  std::uint64_t restarts = 0;
  std::size_t recompiles = 0;
  std::size_t incremental = 0;
  Samples cone_fraction;
  Samples propagations;  // full solves behind the ground-truth compiles
};

struct WindowResult {
  ViewerResult viewers;
  ActorResult actor;
  net::StatsSnapshot before;
  net::StatsSnapshot after;
};

net::StatsSnapshot FetchStats(const Rig& rig) {
  api::NetClientOptions options;
  options.port = rig.port();
  api::NetClient client(options);
  auto stats = client.FetchStats();
  if (!stats.ok()) {
    Die("fetching server stats: " + stats.status().ToString());
  }
  return *stats;
}

void CountView(const ViewOutcome& view, const Expected& want, OpCounts& counts,
               const std::string& what) {
  ++counts.attempted;
  if (!view.ok) {
    ++counts.failed;
    ++counts.transport;
    std::cerr << "perfbench: " << what << ": transport or protocol failure\n";
  } else if (view.response.shed || view.response.outcome != cmif::ServeOutcome::kHealthy) {
    ++counts.failed;
    counts.shed += view.response.shed ? 1 : 0;
    std::cerr << "perfbench: " << what << ": not served healthy\n";
  } else if (view.response.presentation_hash != want.hash ||
             view.response.presentation != want.body) {
    ++counts.failed;
    ++counts.mismatched;
    std::cerr << "perfbench: MISMATCH: " << what << " differs from the in-process compile\n";
  }
}

const char* StageSpanName(const std::string& stage) {
  if (stage == "validate") return "pipeline.validate";
  if (stage == "present-map") return "pipeline.present_map";
  if (stage == "filter-plan") return "pipeline.filter_plan";
  if (stage == "collect-events") return "pipeline.collect_events";
  if (stage == "schedule") return "pipeline.schedule";
  return nullptr;
}

void EmitStages(const api::CompileReport& report, SpanSink* sink, std::uint64_t op) {
  double at = NowUs();
  for (const api::StageTiming& stage : report.stages) {
    if (const char* name = StageSpanName(stage.stage)) {
      sink->Emit(name, at, stage.millis * 1000.0, op);
      at += stage.millis * 1000.0;
    }
  }
}

void AuthorActor(Context& ctx, double end_us, SpanSink* sink, ActorResult& out) {
  FrameConn conn(ctx.rig->port());
  const cmif::SystemProfile& profile = ctx.rig->profiles()[0];
  while (NowUs() < end_us) {
    const cmif::EditOp& edit = ctx.edits[ctx.next_edit++ % ctx.edits.size()];
    const std::uint64_t op = ctx.next_op++;
    const double t0 = NowUs();
    ViewOutcome view;
    cmif::StatusOr<api::EditDelta> delta = cmif::InternalError("unset");
    {
      ScopedSpan whole(sink, "author.edit_to_view", op);
      {
        ScopedSpan span(sink, "api.edit_apply", op);
        if (!ctx.session->Apply(edit).ok()) {
          Die("a retune failed to apply");
        }
      }
      {
        ScopedSpan span(sink, "api.edit_recompile", op);
        delta = ctx.session->Recompile();
      }
      if (!delta.ok()) {
        Die("a retune recompile failed: " + delta.status().ToString());
      }
      {
        ScopedSpan span(sink, "serve.publish", op);
        if (!ctx.session->Publish(ctx.rig->corpus(), kAuthorSlot).ok()) {
          Die("publishing the edited document failed");
        }
      }
      ScopedSpan span(sink, "net.present", op);
      view = FetchView(conn, ctx.rig->RequestFor({kAuthorSlot, 0}), sink, op);
    }
    const double t1 = NowUs();
    ++out.recompiles;
    out.incremental += delta->incremental ? 1 : 0;
    const double points = static_cast<double>(ctx.session->solve().earliest.size());
    if (points > 0) {
      out.cone_fraction.Add(static_cast<double>(delta->changed_points) / points);
    }
    // The check: a fresh in-process compile of the session's document.
    GroundTruth truth = CompileInProcess(ctx.rig->corpus(), ctx.session->document(), profile);
    const std::uint64_t failed_before = out.counts.failed;
    CountView(view, truth.expected, out.counts, "authored view");
    if (out.counts.failed == failed_before) {
      out.op_ms.Add(t0, (t1 - t0) / 1000.0);
    }
    if (sink != nullptr) {
      out.propagations.Add(static_cast<double>(truth.report.schedule.solve.stats.propagations));
      EmitStages(truth.report, sink, op);
    }
  }
}

bool SameBlocks(const std::vector<net::WireBlock>& a, const std::vector<net::WireBlock>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].descriptor_id != b[i].descriptor_id || a[i].payload != b[i].payload) {
      return false;
    }
  }
  return true;
}

// Streams `key` once and checks it; returns the outcome for the caller's
// timings (ok=false when anything failed).
StreamOutcome StreamChecked(Context& ctx, FrameConn& conn, const ViewKey& key, SpanSink* sink,
                            ActorResult& out) {
  const std::uint64_t op = ctx.next_op++;
  StreamOutcome stream;
  {
    ScopedSpan span(sink, "net.stream", op);
    stream = FetchStream(conn, ctx.rig->RequestFor(key), sink, op);
  }
  ++out.counts.attempted;
  out.restarts += stream.restarts;
  const Expected& want = ctx.expected.at(key);
  if (!stream.ok) {
    ++out.counts.failed;
    ++out.counts.transport;
    std::cerr << "perfbench: stream transfer failed\n";
  } else if (stream.prefix.outcome != cmif::ServeOutcome::kHealthy) {
    ++out.counts.failed;
    std::cerr << "perfbench: stream not served healthy\n";
  } else if (stream.prefix.presentation_hash != want.hash ||
             stream.prefix.presentation != want.body ||
             !SameBlocks(stream.blocks, ctx.blobs.at(key))) {
    ++out.counts.failed;
    ++out.counts.mismatched;
    std::cerr << "perfbench: MISMATCH: streamed delivery differs from the blob delivery\n";
  } else {
    out.chunks += stream.chunks;
    out.bytes += stream.bytes;
    return stream;
  }
  stream.ok = false;
  return stream;
}

void StreamActor(Context& ctx, double end_us, SpanSink* sink, ActorResult& out) {
  FrameConn conn(ctx.rig->port());
  std::size_t i = ctx.next_op;
  while (NowUs() < end_us) {
    const ViewKey& key = ctx.stream_keys[i++ % ctx.stream_keys.size()];
    const double t0 = NowUs();
    StreamOutcome stream = StreamChecked(ctx, conn, key, sink, out);
    if (stream.ok) {
      out.op_ms.Add(t0, stream.ttff_ms);
      out.complete_ms.Add(stream.complete_ms);
    }
  }
}

// Runs the viewers for `seconds` beside the workload's actor, or alone when
// `with_actor` is false.
WindowResult RunWindow(Context& ctx, double seconds, SpanSink* viewer_sink, SpanSink* actor_sink,
                       bool with_actor = true) {
  WindowResult window;
  window.before = FetchStats(*ctx.rig);
  ViewerPlan plan;
  plan.rate_rps = kViewerRps;
  plan.seconds = seconds;
  plan.keys = ctx.viewer_keys;
  plan.op_base = ctx.next_op + (std::uint64_t{1} << 40);
  const double end_us = NowUs() + seconds * 1e6;
  std::thread viewers([&] {
    window.viewers = RunViewers(*ctx.rig, ctx.expected, plan, viewer_sink);
  });
  if (with_actor) {
    switch (ctx.workload) {
      case Workload::kAuthor:
        AuthorActor(ctx, end_us, actor_sink, window.actor);
        break;
      case Workload::kStream:
        StreamActor(ctx, end_us, actor_sink, window.actor);
        break;
    }
  }
  viewers.join();
  window.after = FetchStats(*ctx.rig);
  return window;
}

bool GeneratorValid(const ViewerResult& viewers, const char* phase) {
  const double lateness = viewers.lateness_ms.Percentile(99);
  if (lateness > kMaxLatenessP99Ms) {
    std::cout << "INVALID " << phase << ": the load generator ran " << lateness
              << " ms late at p99 (limit " << kMaxLatenessP99Ms << " ms)\n";
    return false;
  }
  return true;
}

// ---- the layer probe (traced runs) -----------------------------------------------

// Calls every layer on the workload's own documents and messages, so each
// layer metric is measured on every workload: the codecs on the viewers'
// last messages, ServeLoop::Serve on warm and just-invalidated keys,
// SerializePresentation on cached presentations, api::Compile and
// BuildStreamPlan on the corpus documents, an edit session on the authoring
// document, and a few streamed transfers.
void Probe(Context& ctx, const WindowResult& window, SpanSink* sink, ActorResult& out) {
  Rig& rig = *ctx.rig;
  // Codecs.
  api::PresentRequest request = window.viewers.last_request;
  auto response = net::DecodeResponse(window.viewers.last_response_payload);
  if (!response.ok()) {
    Die("probe: the viewers' last response does not decode");
  }
  for (int i = 0; i < kCodecProbeIterations; ++i) {
    const std::uint64_t op = ctx.next_op++;
    {
      ScopedSpan span(sink, "net.request_encode", op);
      std::string frame = net::EncodeFrame(net::FrameType::kRequest, net::EncodeRequest(request));
      if (frame.empty()) Die("probe: empty request frame");
    }
    std::string frame;
    {
      ScopedSpan span(sink, "net.response_encode", op);
      frame = net::EncodeFrame(net::FrameType::kResponse, net::EncodeResponse(*response));
    }
    {
      ScopedSpan span(sink, "net.response_decode", op);
      std::size_t consumed = 0;
      auto decoded = net::DecodeFrame(frame, &consumed);
      if (!decoded.ok() || !net::DecodeResponse(decoded->payload, decoded->version).ok()) {
        Die("probe: a response frame does not round-trip");
      }
    }
  }
  // Serve hits and the per-request serialization the server repeats.
  for (std::size_t slot = 0; slot < kNewsDocs; ++slot) {
    for (std::size_t profile = 0; profile < rig.profiles().size(); ++profile) {
      cmif::ServeRequest serve_request{slot, profile};
      (void)rig.loop().Serve(serve_request);  // warm (author's publishes strand news keys)
      for (int i = 0; i < kServeProbeIterations; ++i) {
        const std::uint64_t op = ctx.next_op++;
        cmif::ServeResponse served;
        {
          ScopedSpan span(sink, "serve.hit", op);
          served = rig.loop().Serve(serve_request);
        }
        if (!served.cache_hit || served.presentation == nullptr) {
          Die("probe: a warm key missed the cache");
        }
        // What the server repeats per request: serialize, then hash the body.
        std::string body;
        std::uint64_t hash = 0;
        {
          ScopedSpan span(sink, "net.serialize", op);
          body = api::SerializePresentation(*served.presentation);
          hash = cmif::Fnv1a64(body);
        }
        if (hash != ctx.expected.at({slot, profile}).hash ||
            body != ctx.expected.at({slot, profile}).body) {
          Die("probe: MISMATCH between the cached presentation and the in-process compile");
        }
      }
    }
  }
  // Compile stages, full solves and prefetch planning: one document per
  // story count plus the authoring document, every profile.
  for (int repeat = 0; repeat < kCompileProbeRepeats; ++repeat) {
    for (std::size_t slot : {std::size_t{0}, std::size_t{1}, std::size_t{2}, kAuthorSlot}) {
      for (const cmif::SystemProfile& profile : rig.profiles()) {
        const std::uint64_t op = ctx.next_op++;
        GroundTruth truth = CompileInProcess(rig.corpus(), rig.corpus().document(slot).document,
                                             profile);
        EmitStages(truth.report, sink, op);
        out.propagations.Add(static_cast<double>(truth.report.schedule.solve.stats.propagations));
        api::CompiledPresentation compiled;
        compiled.map = std::move(truth.report.presentation_map);
        compiled.filter = std::move(truth.report.filter);
        compiled.schedule = std::move(truth.report.schedule);
        ScopedSpan span(sink, "serve.prefetch_plan", op);
        auto plan = rig.corpus().store().WithRead([&](const cmif::DescriptorStore& store) {
          return rig.corpus().blocks().WithRead([&](const cmif::BlockStore& blocks) {
            return api::BuildStreamPlan(compiled, store, blocks, profile);
          });
        });
        if (!plan.ok()) {
          Die("probe: BuildStreamPlan failed: " + plan.status().ToString());
        }
      }
    }
  }
  // Edits, publish, and the miss a publish causes.
  std::unique_ptr<api::EditSession> session = OpenSession(rig.corpus(), kAuthorSlot);
  std::vector<cmif::EditOp> edits =
      RetuneTrace(session->document(), ctx.seed ^ 0x9e3779b97f4a7c15ULL, kEditProbeEdits);
  for (const cmif::EditOp& edit : edits) {
    const std::uint64_t op = ctx.next_op++;
    {
      ScopedSpan span(sink, "api.edit_apply", op);
      if (!session->Apply(edit).ok()) Die("probe: a retune failed to apply");
    }
    cmif::StatusOr<api::EditDelta> delta = cmif::InternalError("unset");
    {
      ScopedSpan span(sink, "api.edit_recompile", op);
      delta = session->Recompile();
    }
    if (!delta.ok()) Die("probe: a retune recompile failed");
    ++out.recompiles;
    out.incremental += delta->incremental ? 1 : 0;
    const double points = static_cast<double>(session->solve().earliest.size());
    if (points > 0) {
      out.cone_fraction.Add(static_cast<double>(delta->changed_points) / points);
    }
    {
      ScopedSpan span(sink, "serve.publish", op);
      if (!session->Publish(rig.corpus(), kAuthorSlot).ok()) Die("probe: publish failed");
    }
    cmif::ServeResponse served;
    {
      ScopedSpan span(sink, "serve.miss", op);
      served = rig.loop().Serve({kAuthorSlot, 0});
    }
    if (served.cache_hit || served.presentation == nullptr) {
      Die("probe: a just-published document did not compile");
    }
  }
  if (ctx.workload == Workload::kAuthor) {
    ctx.session = std::move(session);  // the live session continues on the published text
  }
  // A few streamed transfers of the one-story documents.
  if (ctx.blobs.empty()) {
    for (const ViewKey& key : {ViewKey{0, 0}, ViewKey{3, 1}}) {
      api::NetClientOptions options;
      options.port = rig.port();
      api::NetClient client(options);
      api::PresentRequest blob_request = rig.RequestFor(key);
      blob_request.want_blocks = true;
      auto blob = client.Present(blob_request);
      if (!blob.ok()) Die("probe: blob fetch failed");
      ctx.blobs[key] = std::move(blob->blocks);
    }
  }
  FrameConn conn(rig.port());
  for (int i = 0; i < kStreamProbeStreams; ++i) {
    const ViewKey key = std::next(ctx.blobs.begin(), i % static_cast<int>(ctx.blobs.size()))->first;
    (void)StreamChecked(ctx, conn, key, sink, out);
  }
}

// ---- reporting ----------------------------------------------------------------

double StatsMeanDelta(const net::StatsSnapshot& before, const net::StatsSnapshot& after) {
  const double count = static_cast<double>(after.request_count - before.request_count);
  if (count <= 0) {
    return 0;
  }
  return (after.request_ms_mean * static_cast<double>(after.request_count) -
          before.request_ms_mean * static_cast<double>(before.request_count)) /
         count;
}

const char* WorkloadOpName(Workload workload) {
  switch (workload) {
    case Workload::kAuthor:
      return "edit to view";
    case Workload::kStream:
      return "time to first frame";
  }
  return "";
}

void PrintConfig(const Args& args) {
#ifdef CMIF_OBS_DISABLED
  const char* obs = "OFF";
#else
  const char* obs = "ON";
#endif
#ifdef CMIF_FAULT_DISABLED
  const char* fault = "OFF";
#else
  const char* fault = "ON";
#endif
  std::printf("config workload=%s seed=%llu seconds=%g trace=%d hw_threads=%u build_type=%s "
              "CMIF_OBS=%s CMIF_FAULT=%s server_workers=%d held_out_seed=%llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, obs, fault,
              kServerWorkers, static_cast<unsigned long long>(kHeldOutSeed));
}

int Main(int argc, char** argv) {
  // glibc moves its mmap threshold up the first time a large block is
  // freed, after which multi-megabyte buffers (stream plans, chunk frames)
  // come from the heap instead of fresh mappings. When that happens depends
  // on allocation order, so a run lands in one of two modes that differ in
  // peak memory and stream timings. A fixed threshold keeps every run in
  // the heap mode. The program's own binaries keep glibc's dynamic default,
  // so peak memory and stream timings here are those of the pinned mode.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 128 << 20);
  Args args = ParseArgs(argc, argv);
  PrintConfig(args);
  if (args.seed == kHeldOutSeed) {
    std::printf("note: running the held-out seed\n");
  }

  Context ctx;
  ctx.workload = args.workload == "author" ? Workload::kAuthor : Workload::kStream;
  ctx.seed = args.seed;
  ctx.viewer_keys = ZipfKeys(args.seed, kViewerTraceLength);
  // stream: the one-story documents (~3 MB of blocks each) for the
  // workstation profile, as fig18 streams them; the seed picks where the
  // cycle starts.
  for (std::size_t i = 0; i < kNewsDocs / 3; ++i) {
    ctx.stream_keys.push_back({((i + args.seed) % (kNewsDocs / 3)) * 3, 0});
  }

  Samples setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ctx.session.reset();
    ctx.rig.reset();  // the previous set-up's teardown is not set-up time
    const double t0 = NowUs();
    SetUp(ctx);
    setup_s.Add((NowUs() - t0) / 1e6);
  }
  Prepare(ctx);

  Report report;
  OpCounts counts;
  bool correct = true;

  if (args.trace == 0) {
    WindowResult window = RunWindow(ctx, args.seconds, nullptr, nullptr);
    counts.Merge(window.viewers.counts);
    counts.Merge(window.actor.counts);
    correct = GeneratorValid(window.viewers, "window");
    const ViewerResult& v = window.viewers;
    const ActorResult& a = window.actor;
    report.Add("setup_s", setup_s.Median(), "s", setup_s.size());
    report.Add("latency_mean_ms", v.latency_ms.WindowedTrimmedMean(kWindowUs), "ms",
               v.latency_ms.size());
    report.Add("latency_p90_ms", v.latency_ms.WindowedPercentile(90, kWindowUs), "ms",
               v.latency_ms.size());
    report.Add("op_mean_ms", a.op_ms.WindowedTrimmedMean(kWindowUs), "ms", a.op_ms.size());
    report.Add("op_p90_ms", a.op_ms.WindowedPercentile(90, kWindowUs), "ms", a.op_ms.size());

    Report named;  // the same measurements under the workload's own names
    named.Add("viewer_rate_rps", kViewerRps, "1/s", v.latency_ms.size());
    named.Add("latency_p50_ms", v.latency_ms.all().Median(), "ms", v.latency_ms.size());
    named.Add("latency_p99_ms", v.latency_ms.all().Percentile(99), "ms", v.latency_ms.size());
    named.Add("generator_lateness_p99_ms", v.lateness_ms.Percentile(99), "ms", v.lateness_ms.size());
    named.Add("backlog_mid", static_cast<double>(v.backlog_mid), "count", 1);
    named.Add("backlog_end", static_cast<double>(v.backlog_end), "count", 1);
    if (ctx.workload == Workload::kAuthor) {
      named.Add("edit_to_view_p50_ms", a.op_ms.all().Median(), "ms", a.op_ms.size());
      named.Add("edit_to_view_p99_ms", a.op_ms.all().Percentile(99), "ms", a.op_ms.size());
    } else {
      named.Add("ttff_p50_ms", a.op_ms.all().Median(), "ms", a.op_ms.size());
      named.Add("ttff_p99_ms", a.op_ms.all().Percentile(99), "ms", a.op_ms.size());
      named.Add("stream_complete_p50_ms", a.complete_ms.Median(), "ms", a.complete_ms.size());
    }
    named.Add("failed_pct",
              counts.attempted > 0 ? 100.0 * static_cast<double>(counts.failed) /
                                         static_cast<double>(counts.attempted)
                                   : 0,
              "%", counts.attempted);
    named.Add("mismatched", static_cast<double>(counts.mismatched), "count", counts.attempted);
    named.Add("shed", static_cast<double>(counts.shed), "count", counts.attempted);
    named.Add("transport_errors", static_cast<double>(counts.transport), "count", counts.attempted);
    report.Add("peak_rss_mb", PeakRssMb(), "MiB", 1);
    named.PrintLines("metric");
    report.PrintLines("metric");
  } else {
    SpanSink viewer_sink(1);
    SpanSink actor_sink(2);
    SpanSink probe_sink(3);
    WindowResult plain = RunWindow(ctx, args.seconds / 2, nullptr, nullptr);
    WindowResult traced = RunWindow(ctx, args.seconds / 2, &viewer_sink, &actor_sink);
    correct = GeneratorValid(plain.viewers, "untraced window") &&
              GeneratorValid(traced.viewers, "traced window");
    for (const WindowResult* w : {&plain, &traced}) {
      counts.Merge(w->viewers.counts);
      counts.Merge(w->actor.counts);
    }
    ActorResult probed;
    Probe(ctx, traced, &probe_sink, probed);
    counts.Merge(probed.counts);
    // The viewers alone on warm keys (the probe's publishes strand them):
    // the server's counters over this window cover viewer requests only, so
    // the round trip splits into queue, server, codec and the rest.
    for (const auto& [key, want] : ctx.expected) {
      (void)ctx.rig->loop().Serve({key.slot, key.profile});
    }
    WindowResult alone = RunWindow(ctx, kViewersAloneSeconds, nullptr, nullptr, false);
    correct = GeneratorValid(alone.viewers, "viewers-alone window") && correct;
    counts.Merge(alone.viewers.counts);

    const std::vector<const SpanSink*> sinks = {&viewer_sink, &actor_sink, &probe_sink};
    std::map<std::string, Samples> spans = DurationsByName(sinks);
    auto median_us = [&](const char* name) { return spans[name].Median(); };
    auto count_of = [&](const char* name) { return spans[name].size(); };
    const ViewerResult& v = traced.viewers;
    const ActorResult& a = traced.actor;
    const net::StatsSnapshot& s0 = traced.before;
    const net::StatsSnapshot& s1 = traced.after;
    const ViewerResult& va = alone.viewers;
    const net::StatsSnapshot& a0 = alone.before;
    const net::StatsSnapshot& a1 = alone.after;

    const double server_mean_ms = StatsMeanDelta(a0, a1);
    const double codec_ms = (median_us("net.request_encode") + median_us("net.response_decode") +
                             median_us("net.response_encode")) /
                            1000.0;
    const double rtt_ms = va.rtt_ms.Mean();
    const double unattributed =
        rtt_ms > 0 ? 100.0 * (rtt_ms - va.queue_ms.Mean() - server_mean_ms - codec_ms) / rtt_ms : 0;

    report.Add("net.queue_wait_p50_ms", v.queue_ms.Median(), "ms", v.queue_ms.size());
    report.Add("net.queue_wait_p99_ms", v.queue_ms.Percentile(99), "ms", v.queue_ms.size());
    report.Add("net.server_mean_ms", server_mean_ms, "ms", a1.request_count - a0.request_count);
    // kStats keeps no histogram, so its percentiles cover every request
    // since the server started (set-up, both windows, the probe).
    report.Add("net.server_cum_p50_ms", a1.request_ms_p50, "ms", a1.request_count);
    report.Add("net.server_cum_p99_ms", a1.request_ms_p99, "ms", a1.request_count);
    report.Add("net.request_encode_us", median_us("net.request_encode"), "us",
               count_of("net.request_encode"));
    report.Add("net.response_encode_us", median_us("net.response_encode"), "us",
               count_of("net.response_encode"));
    report.Add("net.response_decode_us", median_us("net.response_decode"), "us",
               count_of("net.response_decode"));
    report.Add("net.serialize_us", median_us("net.serialize"), "us", count_of("net.serialize"));
    report.Add("net.unattributed_pct", unattributed, "%", va.rtt_ms.size());
    report.Add("net.stream_begin_ms", median_us("net.stream_begin") / 1000.0, "ms",
               count_of("net.stream_begin"));
    report.Add("net.stream_chunk_us", median_us("net.stream_chunk"), "us",
               count_of("net.stream_chunk"));
    report.Add("net.stream_finish_ms", median_us("net.stream_finish") / 1000.0, "ms",
               count_of("net.stream_finish"));
    report.Add("net.stream_chunks", static_cast<double>(a.chunks + probed.chunks), "count",
               count_of("net.stream"));
    report.Add("net.stream_bytes", static_cast<double>(a.bytes + probed.bytes), "bytes",
               count_of("net.stream"));
    report.Add("net.stream_resumes", static_cast<double>(s1.stream_resumes - s0.stream_resumes),
               "count", count_of("net.stream"));
    report.Add("net.stream_restarts", static_cast<double>(a.restarts + probed.restarts), "count",
               count_of("net.stream"));
    const double lookups = static_cast<double>((s1.cache_hits - s0.cache_hits) +
                                               (s1.cache_misses - s0.cache_misses));
    report.Add("serve.hit_ratio",
               lookups > 0 ? static_cast<double>(s1.cache_hits - s0.cache_hits) / lookups : 0,
               "ratio", static_cast<std::size_t>(lookups));
    report.Add("serve.evictions", static_cast<double>(s1.cache_evictions - s0.cache_evictions),
               "count", static_cast<std::size_t>(lookups));
    report.Add("serve.hit_us", median_us("serve.hit"), "us", count_of("serve.hit"));
    report.Add("serve.miss_ms", median_us("serve.miss") / 1000.0, "ms", count_of("serve.miss"));
    report.Add("serve.publish_ms", median_us("serve.publish") / 1000.0, "ms",
               count_of("serve.publish"));
    report.Add("serve.prefetch_plan_ms", median_us("serve.prefetch_plan") / 1000.0, "ms",
               count_of("serve.prefetch_plan"));
    for (const char* stage : {"pipeline.validate", "pipeline.present_map", "pipeline.filter_plan",
                              "pipeline.collect_events", "pipeline.schedule"}) {
      report.Add(std::string(stage) + "_ms", median_us(stage) / 1000.0, "ms", count_of(stage));
    }
    Samples propagations = probed.propagations;
    propagations.Append(a.propagations);
    Samples cone = probed.cone_fraction;
    cone.Append(a.cone_fraction);
    const std::size_t recompiles = a.recompiles + probed.recompiles;
    report.Add("sched.solve_propagations", propagations.Median(), "count", propagations.size());
    report.Add("sched.cone_fraction", cone.Mean(), "ratio", cone.size());
    report.Add("api.edit_apply_us", median_us("api.edit_apply"), "us", count_of("api.edit_apply"));
    report.Add("api.edit_recompile_us", median_us("api.edit_recompile"), "us",
               count_of("api.edit_recompile"));
    report.Add("api.incremental_ratio",
               recompiles > 0 ? static_cast<double>(a.incremental + probed.incremental) /
                                    static_cast<double>(recompiles)
                              : 0,
               "ratio", recompiles);
    const double plain_op = plain.actor.op_ms.all().Median();
    report.Add("trace.overhead_pct",
               plain_op > 0 ? 100.0 * (a.op_ms.all().Median() - plain_op) / plain_op : 0, "%",
               a.op_ms.size());
    report.Add("load.lateness_p99_ms", v.lateness_ms.Percentile(99), "ms", v.lateness_ms.size());
    report.PrintLines("layer");
    std::printf("layer-note %s: untraced op p50 %.4f ms, traced op p50 %.4f ms\n",
                WorkloadOpName(ctx.workload), plain_op, a.op_ms.all().Median());

    if (!args.trace_out.empty()) {
      if (!WriteChromeTrace(args.trace_out, sinks)) {
        Die("cannot write the trace to " + args.trace_out);
      }
      std::size_t total = 0;
      for (const SpanSink* sink : sinks) {
        total += sink->spans().size();
      }
      std::printf("trace %s (%zu spans)\n", args.trace_out.c_str(), total);
    }
  }

  correct = correct && counts.mismatched == 0;
  std::cout << report.Json(correct, counts.attempted, counts.failed) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
