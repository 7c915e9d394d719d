// cmif_tool — command-line front end for the CMIF pipeline. Compiles against
// the public facade (src/api/cmif.h) only; pipeline/serve/net internals stay
// behind it.
//
//   cmif_tool sample-news [stories]          write news.cmif + news.catalog
//   cmif_tool check <doc> [catalog]          validate + statistics
//   cmif_tool check [--count N] [--seed S] [--seeds a,b,c] [--leaves L]
//                   [--edits N] [--stream [--bandwidth B] [--chunk C]]
//                   [--no-shrink] [--shrink-dir D]
//                   [--replay <file|dir>]    differential conformance run
//                                            (--edits adds the edit lens:
//                                            seeded edit traces through
//                                            EditSession; --stream adds the
//                                            stream lens: streamed-vs-blob
//                                            delivery on a simulated
//                                            B-bytes/sec link)
//   cmif_tool tree <doc>                     Figure-5 views
//   cmif_tool arcs <doc>                     Figure-9 arc table
//   cmif_tool schedule <doc> [catalog]       timeline (Figure 3/10 view)
//   cmif_tool edit <doc> [catalog] --ops <file> [--out FILE] [--timeline]
//                                            apply an edit script with
//                                            incremental recompiles
//   cmif_tool play <doc> <catalog> [profile] simulate playback, print trace
//   cmif_tool render <doc> <catalog> <sec> <out.ppm>   compose one frame
//   cmif_tool profile <doc> <catalog> [profile] [--trace out.json] [--metrics out.jsonl]
//                                            run instrumented, export trace + metrics
//   cmif_tool serve [--docs K] [--requests N] [--threads T] [--zipf S]
//                   [--seed X] [--cache C | --no-cache] [--cache-dir D]
//                   [--faults <plan | level:N>]
//                                            serve a synthetic Zipf trace concurrently
//   cmif_tool serve --listen <port> [--host A] [--workers W] [--docs K]
//                   [--sched fifo|edf] [--max-queue N] [--deadline-ms D]
//                   [--sample RATE] [--flight] [...]
//                                            serve over TCP until stdin closes
//   cmif_tool request --port <port> --doc <name> [--host A] [--profile <name>]
//                     [--channels a,b] [--no-body] [--retries N] [--deadline-ms D]
//                     [--trace out.json] [--stream [--chunk C]]
//                                            fetch one compiled presentation
//                                            (--stream = chunked delivery)
//   cmif_tool stats <host:port>              live server telemetry as JSON
//   cmif_tool cache <ls|verify|purge> <dir>  inspect / check / wipe a
//                                            persistent cache directory
//
// Profiles: workstation (default), personal, portable.
//
// Exit codes: 0 success, 1 runtime/validation failure, 2 usage or bad flags.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "src/api/cmif.h"
#include "src/base/string_util.h"
#include "src/check/differential.h"
#include "src/ddbms/persist.h"
#include "src/doc/stats.h"
#include "src/doc/validate.h"
#include "src/fault/fault.h"
#include "src/fmt/tree_view.h"
#include "src/fmt/writer.h"
#include "src/news/evening_news.h"
#include "src/obs/export.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/player/engine.h"
#include "src/present/compositor.h"
#include "src/sched/conflict.h"

namespace cmif {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;  // runtime error or failed validation
constexpr int kExitUsage = 2;    // bad command line

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return kExitFailure;
}

// Bad flags always exit kExitUsage with a message on stderr.
int BadFlag(const std::string& message) {
  std::cerr << "cmif_tool: " << message << "\n";
  return kExitUsage;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return FailedPreconditionError("cannot write '" + path + "'");
  }
  out << contents;
  return Status::Ok();
}

StatusOr<Document> LoadDocumentFile(const std::string& path) {
  CMIF_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return api::LoadDocument(text);
}

StatusOr<DescriptorStore> LoadCatalogFile(const std::string& path) {
  if (path.empty()) {
    return DescriptorStore();
  }
  CMIF_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return api::LoadCatalog(text);
}

SystemProfile ProfileByName(const std::string& name) {
  if (name == "personal") {
    return PersonalSystemProfile();
  }
  if (name == "portable") {
    return PortableMonoProfile();
  }
  return WorkstationProfile();
}

// Strict numeric flag parsing: "--docs banana" is a usage error, not zero.
std::optional<long> ParseLong(const std::string& text) {
  if (text.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  long value = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return std::nullopt;
  }
  return value;
}

std::optional<double> ParseDouble(const std::string& text) {
  if (text.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return std::nullopt;
  }
  return value;
}

int CmdSampleNews(const std::string& stories_arg) {
  NewsOptions options;
  if (!stories_arg.empty()) {
    std::optional<long> stories = ParseLong(stories_arg);
    if (!stories || *stories < 1) {
      return BadFlag("sample-news: story count must be a positive integer, got '" + stories_arg +
                     "'");
    }
    options.stories = static_cast<int>(*stories);
  }
  auto workload = BuildEveningNews(options);
  if (!workload.ok()) {
    return Fail(workload.status());
  }
  auto doc_text = WriteDocument(workload->document);
  if (!doc_text.ok()) {
    return Fail(doc_text.status());
  }
  auto catalog_text = WriteCatalog(workload->store);
  if (!catalog_text.ok()) {
    return Fail(catalog_text.status());
  }
  if (Status s = WriteFile("news.cmif", *doc_text); !s.ok()) {
    return Fail(s);
  }
  if (Status s = WriteFile("news.catalog", *catalog_text); !s.ok()) {
    return Fail(s);
  }
  std::cout << "wrote news.cmif (" << doc_text->size() << " bytes) and news.catalog ("
            << catalog_text->size() << " bytes)\n";
  return kExitOk;
}

int CmdCheck(const std::string& doc_path, const std::string& catalog_path) {
  auto doc = LoadDocumentFile(doc_path);
  if (!doc.ok()) {
    return Fail(doc.status());
  }
  auto store = LoadCatalogFile(catalog_path);
  if (!store.ok()) {
    return Fail(store.status());
  }
  ValidationReport report =
      ValidateDocument(*doc, catalog_path.empty() ? nullptr : &*store);
  std::cout << report.ToString();
  std::cout << StatsToString(
      ComputeStats(*doc, catalog_path.empty() ? nullptr : &*store));
  std::cout << (report.ok() ? "OK" : "INVALID") << " (" << report.error_count() << " errors, "
            << report.warning_count() << " warnings)\n";
  return report.ok() ? kExitOk : kExitFailure;
}

// Seeds may be decimal or 0x-hex (reports print them as hex).
std::optional<std::uint64_t> ParseSeed(const std::string& text) {
  if (text.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  unsigned long long value = std::strtoull(text.c_str(), &end, 0);
  if (end == nullptr || *end != '\0') {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(value);
}

// check --count N --seed S ... : the differential conformance driver.
// --edits N gives every case a seeded edit trace and --stream a simulated
// link (--bandwidth in bytes/second, 0 = infinite; --chunk the stream chunk
// size); each adds its lens to the document lens.
int CmdConformance(const std::vector<std::string>& args) {
  check::CheckOptions options;
  check::StreamLink link;
  bool stream = false;
  std::string replay;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::optional<long> value;
    auto long_after = [&](std::size_t& j) -> std::optional<long> {
      if (j + 1 >= args.size()) {
        return std::nullopt;
      }
      return ParseLong(args[++j]);
    };
    if (args[i] == "--count" && (value = long_after(i))) {
      if (*value < 1 || *value > std::numeric_limits<int>::max()) {
        return BadFlag("check: --count must be a positive integer");
      }
      options.count = static_cast<int>(*value);
    } else if (args[i] == "--leaves" && (value = long_after(i))) {
      if (*value < 1 || *value > std::numeric_limits<int>::max()) {
        return BadFlag("check: --leaves must be a positive integer");
      }
      options.target_leaves = static_cast<int>(*value);
    } else if (args[i] == "--edits" && (value = long_after(i))) {
      if (*value < 0 || *value > std::numeric_limits<int>::max()) {
        return BadFlag("check: --edits must be a non-negative integer");
      }
      options.edits = static_cast<int>(*value);
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      std::optional<std::uint64_t> seed = ParseSeed(args[++i]);
      if (!seed) {
        return BadFlag("check: --seed needs an integer, got '" + args[i] + "'");
      }
      options.base_seed = *seed;
    } else if (args[i] == "--seeds" && i + 1 < args.size()) {
      for (const std::string& part : SplitString(args[++i], ',')) {
        std::optional<std::uint64_t> seed = ParseSeed(part);
        if (!seed) {
          return BadFlag("check: bad seed '" + part + "' in --seeds");
        }
        options.seeds.push_back(*seed);
      }
    } else if (args[i] == "--no-shrink") {
      options.shrink = false;
    } else if (args[i] == "--shrink-dir" && i + 1 < args.size()) {
      options.reproducer_dir = args[++i];
    } else if (args[i] == "--replay" && i + 1 < args.size()) {
      replay = args[++i];
    } else if (args[i] == "--stream") {
      stream = true;
    } else if (args[i] == "--bandwidth" && (value = long_after(i))) {
      link.bandwidth_bytes_per_s = static_cast<std::int64_t>(*value);
    } else if (args[i] == "--chunk" && (value = long_after(i))) {
      if (*value < 0) {
        return BadFlag("check: --chunk must be a positive integer");
      }
      link.chunk_bytes = static_cast<std::uint64_t>(*value);
    } else {
      return BadFlag("check: unknown or malformed argument '" + args[i] + "'");
    }
  }
  if (Status s = check::ValidateLink(link); !s.ok()) {
    return BadFlag("check: --bandwidth/--chunk: " + s.message());
  }
  if (stream) {
    options.link = link;
  }
  if (!replay.empty()) {
    if (std::filesystem::is_directory(replay)) {
      auto count = check::ReplayCorpusDir(replay);
      if (!count.ok()) {
        return Fail(count.status());
      }
      std::cout << "replayed " << *count << " corpus files from " << replay << ": OK\n";
      return kExitOk;
    }
    auto text = ReadFile(replay);
    if (!text.ok()) {
      return Fail(text.status());
    }
    if (Status s = check::ReplayCorpusText(*text, replay); !s.ok()) {
      return Fail(s);
    }
    std::cout << "replayed " << replay << ": OK\n";
    return kExitOk;
  }
  auto report = check::RunDifferentialCheck(options);
  if (!report.ok()) {
    return Fail(report.status());
  }
  std::cout << report->Summary();
  return report->ok() ? kExitOk : kExitFailure;
}

int CmdTree(const std::string& doc_path) {
  auto doc = LoadDocumentFile(doc_path);
  if (!doc.ok()) {
    return Fail(doc.status());
  }
  std::cout << "---- conventional ----\n"
            << ConventionalTreeView(doc->root()) << "---- embedded ----\n"
            << EmbeddedTreeView(doc->root());
  return kExitOk;
}

int CmdArcs(const std::string& doc_path) {
  auto doc = LoadDocumentFile(doc_path);
  if (!doc.ok()) {
    return Fail(doc.status());
  }
  std::cout << ArcTableView(doc->root());
  return kExitOk;
}

StatusOr<ScheduleResult> ScheduleOf(const Document& doc, const DescriptorStore* store) {
  CMIF_ASSIGN_OR_RETURN(std::vector<EventDescriptor> events, CollectEvents(doc, store));
  return ComputeSchedule(doc, events);
}

int CmdSchedule(const std::string& doc_path, const std::string& catalog_path) {
  auto doc = LoadDocumentFile(doc_path);
  if (!doc.ok()) {
    return Fail(doc.status());
  }
  auto store = LoadCatalogFile(catalog_path);
  if (!store.ok()) {
    return Fail(store.status());
  }
  auto result = ScheduleOf(*doc, catalog_path.empty() ? nullptr : &*store);
  if (!result.ok()) {
    return Fail(result.status());
  }
  if (!result->feasible) {
    std::cout << "INFEASIBLE\n";
    for (const Conflict& conflict : result->conflicts) {
      std::cout << "[" << ConflictClassName(conflict.cls) << "] " << conflict.description
                << "\n";
      for (const std::string& label : conflict.cycle) {
        std::cout << "  " << label << "\n";
      }
    }
    return kExitFailure;
  }
  for (const std::string& dropped : result->dropped_arcs) {
    std::cout << "dropped may-arc: " << dropped << "\n";
  }
  std::cout << TimelineView(result->schedule.ToTimelineRows(*doc));
  std::cout << TimelineTable(result->schedule.ToTimelineRows(*doc));
  return kExitOk;
}

// edit <doc> [catalog] --ops <file> : drive an api::EditSession over an op
// script (one op per line, '#' comments) and recompile incrementally after
// every op. Conflicts are reported with their blame class and constraint
// cycle; the session keeps its last-good schedule and later ops may fix it.
int CmdEdit(const std::vector<std::string>& args) {
  std::string ops_path, out_path;
  bool timeline = false;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--ops" && i + 1 < args.size()) {
      ops_path = args[++i];
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i] == "--timeline") {
      timeline = true;
    } else if (args[i].rfind("--", 0) == 0) {
      return BadFlag("edit: unknown flag '" + args[i] + "'");
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.empty() || positional.size() > 2 || ops_path.empty()) {
    return BadFlag("edit: usage is edit <doc> [catalog] --ops <file> [--out FILE] [--timeline]");
  }
  auto doc = LoadDocumentFile(positional[0]);
  if (!doc.ok()) {
    return Fail(doc.status());
  }
  auto store = LoadCatalogFile(positional.size() > 1 ? positional[1] : "");
  if (!store.ok()) {
    return Fail(store.status());
  }
  auto ops_text = ReadFile(ops_path);
  if (!ops_text.ok()) {
    return Fail(ops_text.status());
  }
  auto session = api::EditSession::Open(*doc, *store);
  if (!session.ok()) {
    return Fail(session.status());
  }
  std::size_t applied = 0;
  std::size_t conflicts = 0;
  for (const std::string& raw : SplitString(*ops_text, '\n')) {
    std::string line(TrimString(raw));
    if (line.empty() || line[0] == '#') {
      continue;
    }
    auto report = (*session)->Apply(line);
    if (!report.ok()) {
      return Fail(report.status());
    }
    ++applied;
    for (const DroppedArc& dropped : report->dropped_arcs) {
      std::cout << "dropped arc on " << dropped.owner_path << ": " << dropped.reason << "\n";
    }
    auto delta = (*session)->Recompile();
    if (!delta.ok()) {
      auto conflict = api::ConflictFromStatus(delta.status());
      if (!conflict.ok()) {
        return Fail(delta.status());
      }
      ++conflicts;
      std::cout << "CONFLICT [" << ConflictClassName(conflict->cls) << "] "
                << conflict->description << "\n";
      for (const std::string& label : conflict->cycle) {
        std::cout << "  " << label << "\n";
      }
      continue;
    }
    std::cout << StrFormat("rev %llu %s: %zu point(s) relabelled, %zu propagation(s)  # %s\n",
                           static_cast<unsigned long long>(delta->generation),
                           delta->incremental ? "incremental" : "full", delta->changed_points,
                           delta->stats.propagations, line.c_str());
    for (const std::string& label : delta->dropped_arcs) {
      std::cout << "dropped may-arc: " << label << "\n";
    }
  }
  std::cout << "applied " << applied << " op(s), " << conflicts << " conflict(s); generation "
            << (*session)->generation() << "\n";
  if (timeline) {
    std::cout << TimelineView((*session)->schedule().ToTimelineRows((*session)->document()));
  }
  if (!out_path.empty()) {
    auto text = WriteDocument((*session)->document());
    if (!text.ok()) {
      return Fail(text.status());
    }
    if (Status s = WriteFile(out_path, *text); !s.ok()) {
      return Fail(s);
    }
    std::cout << "wrote " << out_path << "\n";
  }
  return conflicts == 0 ? kExitOk : kExitFailure;
}

int CmdPlay(const std::string& doc_path, const std::string& catalog_path,
            const std::string& profile_name) {
  auto doc = LoadDocumentFile(doc_path);
  if (!doc.ok()) {
    return Fail(doc.status());
  }
  auto store = LoadCatalogFile(catalog_path);
  if (!store.ok()) {
    return Fail(store.status());
  }
  auto result = ScheduleOf(*doc, &*store);
  if (!result.ok()) {
    return Fail(result.status());
  }
  if (!result->feasible) {
    std::cerr << "document does not schedule; run 'schedule' for the conflicts\n";
    return kExitFailure;
  }
  PlayerOptions options;
  options.profile = ProfileByName(profile_name);
  auto run = Play(*doc, result->schedule, &*store, options);
  if (!run.ok()) {
    return Fail(run.status());
  }
  std::cout << "profile: " << options.profile.name << "\n" << run->trace.Summary();
  std::cout << "presentation time: " << run->clock.presentation_time().ToSecondsF() << "s ("
            << run->clock.frozen_total().ToSecondsF() << "s frozen)\n";
  return kExitOk;
}

int CmdRender(const std::string& doc_path, const std::string& catalog_path,
              const std::string& seconds, const std::string& out_path) {
  auto doc = LoadDocumentFile(doc_path);
  if (!doc.ok()) {
    return Fail(doc.status());
  }
  auto store = LoadCatalogFile(catalog_path);
  if (!store.ok()) {
    return Fail(store.status());
  }
  auto t = ParseMediaTime(seconds);
  if (!t.ok()) {
    return Fail(t.status());
  }
  auto result = ScheduleOf(*doc, &*store);
  if (!result.ok() || !result->feasible) {
    std::cerr << "document does not schedule\n";
    return kExitFailure;
  }
  VirtualEnvironment env = VirtualEnvironment::NewsLayout(640, 480);
  auto map = PresentationMap::AutoMap(doc->channels(), env);
  if (!map.ok()) {
    return Fail(map.status());
  }
  BlockStore blocks;
  CompositorOptions options;
  options.text_scale = 2;
  auto frame =
      ComposeFrame(*doc, result->schedule, *map, env, *store, blocks, *t, options);
  if (!frame.ok()) {
    return Fail(frame.status());
  }
  if (Status s = WriteFile(out_path, EncodePpm(*frame)); !s.ok()) {
    return Fail(s);
  }
  std::cout << "wrote " << out_path << " (" << frame->width() << "x" << frame->height()
            << " at t=" << t->ToSecondsF() << "s)\n";
  return kExitOk;
}

// profile <doc> <catalog> [profile] [--trace out.json] [--metrics out.jsonl]
// Runs the full pipeline with instrumentation on and exports the run:
// Chrome trace JSON (open in ui.perfetto.dev), metrics JSONL, and a text
// report on stdout.
int CmdProfile(const std::vector<std::string>& args) {
  std::vector<std::string> positional;
  std::string trace_path;
  std::string metrics_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--trace" && i + 1 < args.size()) {
      trace_path = args[++i];
    } else if (args[i] == "--metrics" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else if (args[i].rfind("--", 0) == 0) {
      return BadFlag("profile: unknown flag '" + args[i] + "'");
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.size() < 2 || positional.size() > 3) {
    std::cerr << "usage: cmif_tool profile <doc> <catalog> [profile]"
                 " [--trace out.json] [--metrics out.jsonl]\n";
    return kExitUsage;
  }
  const std::string& doc_path = positional[0];
  const std::string& catalog_path = positional[1];
  std::string profile_name = positional.size() > 2 ? positional[2] : "";

  obs::ScopedEnable enable;
  obs::ResetAll();

  // Capture: pull the raw bytes off storage.
  std::string doc_text;
  std::string catalog_text;
  {
    obs::Span span("capture");
    span.Annotate("document", doc_path);
    auto text = ReadFile(doc_path);
    if (!text.ok()) {
      return Fail(text.status());
    }
    doc_text = std::move(text).value();
    std::size_t bytes = doc_text.size();
    if (!catalog_path.empty()) {
      auto catalog = ReadFile(catalog_path);
      if (!catalog.ok()) {
        return Fail(catalog.status());
      }
      catalog_text = std::move(catalog).value();
      bytes += catalog_text.size();
    }
    span.Annotate("bytes", bytes);
  }

  // Structure: parse the document and catalog into the in-memory forms.
  std::optional<Document> document;
  DescriptorStore store;
  {
    obs::Span span("structure");
    auto parsed = api::LoadDocument(doc_text);
    if (!parsed.ok()) {
      return Fail(parsed.status());
    }
    document.emplace(std::move(parsed).value());
    if (!catalog_text.empty()) {
      auto catalog = api::LoadCatalog(catalog_text);
      if (!catalog.ok()) {
        return Fail(catalog.status());
      }
      store = std::move(catalog).value();
    }
    span.Annotate("nodes", document->root().SubtreeSize());
    span.Annotate("descriptors", store.size());
  }

  // Map → filter → schedule → play, with per-stage spans from the pipeline.
  BlockStore blocks;
  api::PipelineOptions options;
  options.profile = ProfileByName(profile_name);
  auto report = api::Play(*document, store, blocks, options);
  if (!report.ok()) {
    return Fail(report.status());
  }

  if (!trace_path.empty()) {
    if (Status s = obs::WriteChromeTrace(trace_path); !s.ok()) {
      return Fail(s);
    }
    std::cout << "wrote trace " << trace_path << " (load in ui.perfetto.dev)\n";
  }
  if (!metrics_path.empty()) {
    if (Status s = obs::WriteMetricsJsonl(metrics_path); !s.ok()) {
      return Fail(s);
    }
    std::cout << "wrote metrics " << metrics_path << "\n";
  }
  std::cout << "profile: " << options.profile.name << "\n" << report->Summary() << "\n";
  std::cout << obs::TextReport();
  return kExitOk;
}

// serve [--docs K] [--requests N] [--threads T] [--zipf S] [--seed X]
//       [--cache C | --no-cache] [--faults <plan | level:N>]
//       [--listen PORT [--host A] [--workers W] [--sched fifo|edf]
//        [--max-queue N] [--deadline-ms D]]
// Without --listen: builds a news corpus over one shared descriptor
// database, replays a deterministic Zipf request trace on a worker pool, and
// reports throughput, latency percentiles, cache effectiveness and the
// per-stage histograms. With --listen: exposes the same ServeLoop over the
// CMIF wire protocol on a TCP port until stdin reaches EOF. --sched picks
// the request scheduler between the reactor and the workers (default fifo);
// --max-queue caps the scheduler queue (admission beyond it is shed with a
// structured response); --deadline-ms assigns a default deadline to requests
// that carry none.
int CmdServe(const std::vector<std::string>& args) {
  int docs = 8;
  std::size_t requests = 256;
  api::ServeOptions options;
  api::NetServerOptions net_options;
  bool listen = false;
  std::optional<fault::FaultPlan> fault_plan;
  auto long_after = [&](std::size_t& i) -> std::optional<long> {
    if (i + 1 >= args.size()) {
      return std::nullopt;
    }
    return ParseLong(args[++i]);
  };
  auto parse_faults = [&](const std::string& spec) -> bool {
    // `level:N` is shorthand for the escalating chaos plan the Figure-12
    // bench uses; anything else is a full plan spec.
    if (spec.rfind("level:", 0) == 0) {
      std::optional<long> level = ParseLong(spec.substr(6));
      if (!level) {
        std::cerr << "serve: bad --faults level '" << spec << "'\n";
        return false;
      }
      fault_plan = fault::StandardChaosPlan(static_cast<int>(*level));
      return true;
    }
    auto parsed = fault::FaultPlan::Parse(spec);
    if (!parsed.ok()) {
      std::cerr << "serve: bad --faults plan: " << parsed.status().message() << "\n";
      return false;
    }
    fault_plan = std::move(parsed).value();
    return true;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::optional<long> value;
    if (args[i] == "--docs" && (value = long_after(i))) {
      docs = static_cast<int>(*value);
    } else if (args[i] == "--requests" && (value = long_after(i))) {
      requests = static_cast<std::size_t>(*value);
    } else if (args[i] == "--threads" && (value = long_after(i))) {
      options.threads = static_cast<int>(*value);
    } else if (args[i] == "--seed" && (value = long_after(i))) {
      options.seed = static_cast<std::uint64_t>(*value);
    } else if (args[i] == "--cache" && (value = long_after(i))) {
      options.cache_capacity = static_cast<std::size_t>(*value);
    } else if (args[i] == "--cache-dir" && i + 1 < args.size()) {
      options.cache_dir = args[++i];
    } else if (args[i] == "--listen" && (value = long_after(i))) {
      listen = true;
      net_options.port = static_cast<int>(*value);
    } else if (args[i] == "--workers" && (value = long_after(i))) {
      net_options.workers = static_cast<int>(*value);
    } else if ((args[i] == "--sched" && i + 1 < args.size()) ||
               args[i].rfind("--sched=", 0) == 0) {
      std::string name = args[i][7] == '=' ? args[i].substr(8) : args[++i];
      auto policy = api::ParseSchedPolicy(name);
      if (!policy.ok()) {
        return BadFlag("serve: " + std::string(policy.status().message()));
      }
      net_options.sched_policy = *policy;
    } else if (args[i] == "--max-queue" && (value = long_after(i))) {
      net_options.max_queue_depth = static_cast<std::size_t>(*value);
    } else if (args[i] == "--deadline-ms" && (value = long_after(i))) {
      net_options.default_deadline_ms = *value;
    } else if (args[i] == "--sample" && i + 1 < args.size()) {
      std::optional<double> rate = ParseDouble(args[++i]);
      if (!rate || *rate < 0 || *rate > 1) {
        return BadFlag("serve: --sample needs a rate in [0, 1], got '" + args[i] + "'");
      }
      net_options.trace_sample_rate = *rate;
    } else if (args[i] == "--flight") {
      obs::FlightRecorder::SetEnabled(true);
    } else if (args[i] == "--host" && i + 1 < args.size()) {
      net_options.host = args[++i];
    } else if (args[i] == "--zipf" && i + 1 < args.size()) {
      std::optional<double> skew = ParseDouble(args[++i]);
      if (!skew) {
        return BadFlag("serve: --zipf needs a number, got '" + args[i] + "'");
      }
      options.zipf_skew = *skew;
    } else if (args[i] == "--no-cache") {
      options.use_cache = false;
    } else if (args[i] == "--faults" && i + 1 < args.size()) {
      if (!parse_faults(args[++i])) {
        return kExitUsage;
      }
    } else if (args[i].rfind("--faults=", 0) == 0) {
      if (!parse_faults(args[i].substr(9))) {
        return kExitUsage;
      }
    } else {
      return BadFlag("serve: unknown or malformed argument '" + args[i] + "'");
    }
  }
  if (fault_plan.has_value()) {
    // Faulted serving implies the recovery ladder: retries stay at their
    // defaults and degraded (stale-cache) responses are allowed.
    options.enable_degraded = true;
  }

  auto corpus = api::BuildNewsCorpus(docs);
  if (!corpus.ok()) {
    return Fail(corpus.status());
  }
  obs::ScopedEnable enable;
  obs::ResetAll();
  std::optional<fault::ScopedPlan> chaos;
  if (fault_plan.has_value()) {
    fault::ResetCounts();
    chaos.emplace(*fault_plan);
    std::cout << "fault plan: " << fault_plan->ToString() << "\n";
  }
  api::ServeLoop loop(**corpus, options);
  // An operator who asked for a disk tier deserves a hard failure, not the
  // silent memory-only fallback embedded servers get.
  if (!options.cache_dir.empty() && loop.pcache() == nullptr) {
    return Fail(loop.pcache_status());
  }
  if (loop.pcache() != nullptr) {
    const api::PersistentCache::Stats disk = loop.pcache()->stats();
    std::cout << "disk cache at " << loop.pcache()->dir() << ": " << disk.entries
              << " entries, " << disk.disk_bytes << " bytes"
              << (disk.quarantined > 0
                      ? ", " + std::to_string(disk.quarantined) + " quarantined at open"
                      : "")
              << "\n";
  }

  if (listen) {
    api::NetServer server(loop, net_options);
    if (Status s = server.Start(); !s.ok()) {
      return Fail(s);
    }
    std::cout << "listening on " << net_options.host << ":" << server.port() << " ("
              << docs << " documents, " << net_options.workers << " workers, "
              << api::SchedPolicyName(net_options.sched_policy) << " scheduling, queue "
              << net_options.max_queue_depth << ", sample rate "
              << net_options.trace_sample_rate
              << (obs::FlightRecorder::Enabled() ? ", flight recorder on" : "") << ")\n"
              << "close stdin (Ctrl-D) to stop\n"
              << std::flush;
    // Serve until the controlling stream closes — scriptable and signal-free.
    std::cin.ignore(std::numeric_limits<std::streamsize>::max());
    server.Stop();
    api::NetServer::Stats stats = server.stats();
    std::cout << "served " << stats.requests << " requests over " << stats.connections
              << " connections (" << stats.protocol_errors << " protocol errors, "
              << stats.rejected << " rejected)\n";
    return kExitOk;
  }

  std::vector<api::ServeRequest> trace = api::GenerateTrace((*corpus)->size(), requests, options);
  std::cout << "serving " << requests << " requests over " << docs << " documents ("
            << (*corpus)->store().size() << " shared descriptors), " << options.threads
            << " threads, Zipf(" << options.zipf_skew << ")"
            << (options.use_cache ? "" : ", cache off") << "\n";
  auto stats = loop.Run(trace);
  if (!stats.ok()) {
    return Fail(stats.status());
  }
  if (fault_plan.has_value()) {
    fault::InjectionCounts counts = fault::Counts();
    std::cout << "  injected: " << counts.transient << " transient, " << counts.latency
              << " latency, " << counts.stall << " stalls, " << counts.corrupt << " corrupt ("
              << counts.probes << " probes)\n";
  }
  std::cout << stats->Summary() << "\n" << obs::TextReport();
  return kExitOk;
}

// The cross-process merge behind `request --trace`: the client's own spans
// for this trace plus the server's harvested spans (re-tagged kRemotePid and
// re-based onto the client clock, nesting inside the client's round-trip
// span) rendered as one Chrome trace for Perfetto / about:tracing.
std::string MergedTraceJson(std::uint64_t trace_id,
                            const std::vector<api::WireSpan>& server_spans) {
  std::vector<obs::SpanRecord> spans = obs::TakeTraceSpans(trace_id);
  double client_start = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "net-client-request") {
      client_start = span.start_us;
      break;
    }
  }
  double server_min = 0;
  for (const api::WireSpan& span : server_spans) {
    if (server_min == 0 || span.start_us < server_min) {
      server_min = span.start_us;
    }
  }
  // The two processes have unrelated steady clocks; pin the server's first
  // span to the moment the client's round-trip span opened. (Skew up to the
  // request's one-way latency remains — good enough to read the nesting.)
  double rebase = client_start - server_min;
  for (const api::WireSpan& wire : server_spans) {
    obs::SpanRecord record;
    record.name = wire.name;
    record.id = wire.id;
    record.parent_id = wire.parent_id;
    record.trace_id = wire.trace_id;
    record.start_us = wire.start_us + rebase;
    record.duration_us = wire.duration_us;
    record.pid = obs::kRemotePid;
    record.tid = wire.tid;
    spans.push_back(std::move(record));
  }
  return obs::ChromeTraceJsonFor(
      spans, {{obs::kProcessPid, "cmif client"}, {obs::kRemotePid, "cmif server"}});
}

// request --port P --doc NAME [--host A] [--profile NAME] [--channels a,b]
//         [--no-body] [--retries N] [--deadline-ms D] [--trace out.json]
// One wire round trip against a `serve --listen` server: prints the outcome
// line, the presentation hash, and (unless --no-body) the canonical
// presentation text. With --trace, the request carries an always-sampled
// trace context and the merged client+server timeline is written as Chrome
// trace JSON.
int CmdRequest(const std::vector<std::string>& args) {
  api::NetClientOptions client_options;
  api::PresentRequest request;
  std::string trace_out;
  bool stream = false;
  std::uint64_t chunk_bytes = api::kDefaultChunkBytes;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::optional<long> value;
    auto long_after = [&](std::size_t& j) -> std::optional<long> {
      if (j + 1 >= args.size()) {
        return std::nullopt;
      }
      return ParseLong(args[++j]);
    };
    if (args[i] == "--port" && (value = long_after(i))) {
      client_options.port = static_cast<int>(*value);
    } else if (args[i] == "--retries" && (value = long_after(i))) {
      client_options.retry.max_attempts = static_cast<int>(*value);
    } else if (args[i] == "--host" && i + 1 < args.size()) {
      client_options.host = args[++i];
    } else if (args[i] == "--doc" && i + 1 < args.size()) {
      request.document = args[++i];
    } else if (args[i] == "--profile" && i + 1 < args.size()) {
      request.profile = args[++i];
    } else if (args[i] == "--channels" && i + 1 < args.size()) {
      request.channels = SplitString(args[++i], ',');
    } else if (args[i] == "--no-body") {
      request.want_body = false;
    } else if (args[i] == "--no-degraded") {
      request.allow_degraded = false;
    } else if (args[i] == "--deadline-ms" && (value = long_after(i))) {
      // Carried on the wire; an EDF server sheds this request with a
      // structured response once the budget is blown instead of queueing it.
      request.deadline_ms = *value;
    } else if (args[i] == "--trace" && i + 1 < args.size()) {
      trace_out = args[++i];
    } else if (args[i] == "--stream") {
      // Chunked delivery: kStreamBegin + chunks + kStreamEnd, or the
      // server's plain response when there is nothing to stream.
      stream = true;
    } else if (args[i] == "--chunk" && (value = long_after(i))) {
      chunk_bytes = static_cast<std::uint64_t>(std::max(*value, 1L));
    } else {
      return BadFlag("request: unknown or malformed argument '" + args[i] + "'");
    }
  }
  if (client_options.port <= 0) {
    return BadFlag("request: --port is required");
  }
  if (request.document.empty()) {
    return BadFlag("request: --doc is required");
  }
  std::optional<obs::ScopedEnable> enable;
  if (!trace_out.empty()) {
    // An explicitly requested trace is always sampled: the point is one
    // end-to-end timeline, not a statistical rate.
    enable.emplace();
    request.trace = obs::NewTrace(1.0);
  }
  api::NetClient client(client_options);
  api::PresentResponse response;
  if (stream) {
    auto streamed = client.PresentStream(request, chunk_bytes);
    if (!streamed.ok()) {
      return Fail(streamed.status());
    }
    if (streamed->streamed) {
      std::cout << StrFormat(
          "stream: %llu chunks, %llu bytes, %zu blocks (%llu resumes, %llu restarts)\n",
          static_cast<unsigned long long>(streamed->chunks_received),
          static_cast<unsigned long long>(streamed->bytes_streamed), streamed->blocks.size(),
          static_cast<unsigned long long>(streamed->resumes),
          static_cast<unsigned long long>(streamed->restarts));
    } else {
      std::cout << "stream: blob fallback (nothing to stream)\n";
    }
    response = std::move(streamed->response);
  } else {
    auto answer = client.Present(request);
    if (!answer.ok()) {
      return Fail(answer.status());
    }
    response = std::move(*answer);
  }
  std::cout << "outcome: " << api::ServeOutcomeName(response.outcome) << " ("
            << response.attempts << (response.attempts == 1 ? " attempt" : " attempts")
            << ", cache " << (response.cache_hit ? "hit" : "miss") << ")\n";
  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::binary);
    out << MergedTraceJson(request.trace.trace_id, response.server_spans);
    if (!out) {
      return Fail(InternalError("cannot write trace to '" + trace_out + "'"));
    }
    std::cout << StrFormat("trace: %016llx (%zu server spans) -> %s\n",
                           static_cast<unsigned long long>(request.trace.trace_id),
                           response.server_spans.size(), trace_out.c_str());
  }
  if (response.outcome == api::ServeOutcome::kFailed) {
    std::cerr << "error: " << response.error << "\n";
    return kExitFailure;
  }
  std::cout << StrFormat("presentation-hash: %016llx\n",
                         static_cast<unsigned long long>(response.presentation_hash));
  if (request.want_body) {
    std::cout << response.presentation;
  }
  return kExitOk;
}

// stats <host:port> [--retries N]
// Fetches a live telemetry snapshot over the wire (kStatsRequest) and prints
// it as JSON: RED metrics with exemplar trace ids, cache hit rates, breaker
// states, and queue depth.
int CmdStats(const std::vector<std::string>& args) {
  if (args.empty()) {
    return BadFlag("stats: expected <host:port>");
  }
  api::NetClientOptions client_options;
  const std::string& target = args[0];
  std::size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon + 1 >= target.size()) {
    return BadFlag("stats: expected <host:port>, got '" + target + "'");
  }
  std::optional<long> port = ParseLong(target.substr(colon + 1));
  if (!port || *port <= 0 || *port > 65535) {
    return BadFlag("stats: bad port in '" + target + "'");
  }
  if (colon > 0) {
    client_options.host = target.substr(0, colon);
  }
  client_options.port = static_cast<int>(*port);
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--retries" && i + 1 < args.size()) {
      std::optional<long> retries = ParseLong(args[++i]);
      if (!retries) {
        return BadFlag("stats: --retries needs a number");
      }
      client_options.retry.max_attempts = static_cast<int>(*retries);
    } else {
      return BadFlag("stats: unknown or malformed argument '" + args[i] + "'");
    }
  }
  api::NetClient client(client_options);
  auto snapshot = client.FetchStats();
  if (!snapshot.ok()) {
    return Fail(snapshot.status());
  }
  std::cout << api::StatsSnapshotJson(*snapshot);
  return kExitOk;
}

// cache <ls|verify|purge> <dir>
// Operator tooling over a persistent cache directory (serve --cache-dir).
//   ls      one line per committed entry: key fields, size, journal state
//   verify  full read-only check (header, size, CRC) of every entry file;
//           exits 1 when anything is corrupt, without moving files
//   purge   deletes entries, journal, tmp and quarantined files
int CmdCache(const std::vector<std::string>& args) {
  if (args.size() != 2 ||
      (args[0] != "ls" && args[0] != "verify" && args[0] != "purge")) {
    return BadFlag("cache: expected <ls|verify|purge> <dir>");
  }
  const std::string& verb = args[0];
  const std::string& dir = args[1];
  if (verb == "ls") {
    auto entries = api::PersistentCache::List(dir);
    if (!entries.ok()) {
      return Fail(entries.status());
    }
    std::uint64_t total_bytes = 0;
    for (const api::PersistentCache::EntryInfo& info : *entries) {
      std::cout << info.file << "  doc " << std::hex << info.document_hash << " chan "
                << info.channel_hash << std::dec << " gen " << info.store_generation
                << " profile " << info.profile << "  " << info.bytes << " bytes"
                << (info.journaled ? "" : "  (orphan)") << "\n";
      total_bytes += info.bytes;
    }
    std::cout << entries->size() << " entries, " << total_bytes << " payload bytes\n";
    return kExitOk;
  }
  if (verb == "verify") {
    auto report = api::PersistentCache::Verify(dir);
    if (!report.ok()) {
      return Fail(report.status());
    }
    for (const std::string& corrupt : report->corrupt) {
      std::cout << "corrupt: " << corrupt << "\n";
    }
    std::cout << report->checked << " checked, " << report->ok << " ok, "
              << report->corrupt.size() << " corrupt\n";
    return report->corrupt.empty() ? kExitOk : kExitFailure;
  }
  if (Status s = api::PersistentCache::Purge(dir); !s.ok()) {
    return Fail(s);
  }
  std::cout << "purged " << dir << "\n";
  return kExitOk;
}

int Usage() {
  std::cerr << "usage: cmif_tool <sample-news [stories] | check <doc> [catalog] | tree <doc> |"
               " arcs <doc> |\n"
               "                  check [--count N] [--seed S] [--seeds a,b,c] [--leaves L]"
               " [--edits N] [--stream [--bandwidth B] [--chunk C]] [--no-shrink]"
               " [--shrink-dir D] [--replay <file|dir>] |\n"
               "                  schedule <doc> [catalog] | play <doc> <catalog> [profile] |\n"
               "                  edit <doc> [catalog] --ops <file> [--out FILE] [--timeline] |\n"
               "                  render <doc> <catalog> <seconds> <out.ppm> |\n"
               "                  profile <doc> <catalog> [profile] [--trace out.json]"
               " [--metrics out.jsonl] |\n"
               "                  serve [--docs K] [--requests N] [--threads T] [--zipf S]"
               " [--seed X] [--cache C | --no-cache] [--cache-dir D]"
               " [--faults <plan | level:N>]"
               " [--listen PORT [--host A] [--workers W] [--sched fifo|edf] [--max-queue N]"
               " [--deadline-ms D] [--sample RATE] [--flight]] |\n"
               "                  request --port P --doc NAME [--host A] [--profile NAME]"
               " [--channels a,b] [--no-body] [--retries N] [--deadline-ms D]"
               " [--trace out.json] |\n"
               "                  stats <host:port> [--retries N] |\n"
               "                  cache <ls|verify|purge> <dir>>\n";
  return kExitUsage;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string command = argv[1];
  auto arg = [&](int i) { return i < argc ? std::string(argv[i]) : std::string(); };
  if (command == "sample-news") {
    return CmdSampleNews(arg(2));
  }
  if (command == "check" && argc >= 3) {
    // Flag-style arguments select the differential conformance driver; a
    // document path selects classic validate-and-stats.
    if (arg(2).rfind("--", 0) == 0) {
      return CmdConformance(std::vector<std::string>(argv + 2, argv + argc));
    }
    return CmdCheck(arg(2), arg(3));
  }
  if (command == "tree" && argc >= 3) {
    return CmdTree(arg(2));
  }
  if (command == "arcs" && argc >= 3) {
    return CmdArcs(arg(2));
  }
  if (command == "schedule" && argc >= 3) {
    return CmdSchedule(arg(2), arg(3));
  }
  if (command == "edit" && argc >= 3) {
    return CmdEdit(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (command == "play" && argc >= 4) {
    return CmdPlay(arg(2), arg(3), arg(4));
  }
  if (command == "render" && argc >= 6) {
    return CmdRender(arg(2), arg(3), arg(4), arg(5));
  }
  if (command == "profile" && argc >= 4) {
    return CmdProfile(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (command == "serve") {
    return CmdServe(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (command == "request") {
    return CmdRequest(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (command == "stats") {
    return CmdStats(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (command == "cache") {
    return CmdCache(std::vector<std::string>(argv + 2, argv + argc));
  }
  return Usage();
}

}  // namespace
}  // namespace cmif

int main(int argc, char** argv) { return cmif::Run(argc, argv); }
