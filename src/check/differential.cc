#include "src/check/differential.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "src/api/edit_session.h"
#include "src/base/string_util.h"
#include "src/check/diverge.h"
#include "src/check/oracle.h"
#include "src/check/simulator.h"
#include "src/doc/edit.h"
#include "src/doc/event.h"
#include "src/fmt/parser.h"
#include "src/fmt/writer.h"
#include "src/gen/editgen.h"
#include "src/net/presentation_wire.h"
#include "src/net/protocol.h"
#include "src/net/wire.h"
#include "src/pipeline/pipeline.h"
#include "src/player/engine.h"
#include "src/present/filter.h"
#include "src/sched/conflict.h"
#include "src/sched/solver.h"
#include "src/serve/mapping_cache.h"

namespace cmif {
namespace check {

Status Diverged(const std::string& tag, const std::string& check, const std::string& detail) {
  return FailedPreconditionError(
      StrFormat("[%s] %s differential diverged: %s", tag.c_str(), check.c_str(), detail.c_str()));
}

namespace {

// SplitMix64 finalizer: decorrelates consecutive document indexes so every
// generated document explores an independent region of the pathology space.
std::uint64_t MixSeed(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Exact comparison of two earliest-time vectors.
Status CompareTimes(const std::string& tag, const std::string& check,
                    const std::vector<MediaTime>& a, const std::string& a_name,
                    const std::vector<MediaTime>& b, const std::string& b_name) {
  if (a.size() != b.size()) {
    return Diverged(tag, check,
                    StrFormat("%s has %zu points, %s has %zu", a_name.c_str(), a.size(),
                              b_name.c_str(), b.size()));
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return Diverged(tag, check,
                      StrFormat("point %zu: %s=%s, %s=%s", i, a_name.c_str(),
                                a[i].ToString().c_str(), b_name.c_str(),
                                b[i].ToString().c_str()));
    }
  }
  return Status::Ok();
}

// Solver differential on one (already built) graph. Compares SPFA, naive
// Bellman-Ford, and the oracle on the pristine graph, then runs may-arc
// relaxation and re-judges the relaxed graph with the oracle.
Status CheckSolver(TimeGraph& graph, const std::vector<EventDescriptor>& events,
                   const std::string& tag, const std::string& check, bool expect_capability_free,
                   ScheduleResult* production, CheckCounters* counters) {
  OracleResult oracle = OracleSolve(graph);
  if (counters != nullptr) {
    counters->oracle_passes += oracle.passes;
  }
  SolveResult spfa = SolveStn(graph, SolverAlgorithm::kSpfa);
  SolveResult naive = SolveStn(graph, SolverAlgorithm::kNaiveBellmanFord);
  if (spfa.feasible != oracle.feasible) {
    return Diverged(tag, check,
                    StrFormat("SPFA says %s, oracle says %s",
                              spfa.feasible ? "feasible" : "infeasible",
                              oracle.feasible ? "feasible" : "infeasible"));
  }
  if (spfa.feasible != naive.feasible) {
    return Diverged(tag, check, "SPFA and naive Bellman-Ford disagree on feasibility");
  }
  if (oracle.feasible) {
    CMIF_RETURN_IF_ERROR(CompareTimes(tag, check, spfa.earliest, "spfa", oracle.times, "oracle"));
    CMIF_RETURN_IF_ERROR(CompareTimes(tag, check, spfa.earliest, "spfa", naive.earliest, "bf"));
    if (Status s = VerifySolution(graph, oracle.times); !s.ok()) {
      return Diverged(tag, check, "oracle times violate a constraint: " + s.message());
    }
  }

  // Relaxation: the production scheduler may drop may-arcs; the oracle must
  // agree with whatever graph it settled on.
  CMIF_ASSIGN_OR_RETURN(ScheduleResult sched, SolveSchedule(graph, events));
  if (sched.conflicts.empty() != oracle.feasible) {
    return Diverged(tag, check,
                    StrFormat("production %s conflicts but pristine graph is %s",
                              sched.conflicts.empty() ? "saw no" : "recorded",
                              oracle.feasible ? "feasible" : "infeasible"));
  }
  OracleResult relaxed = OracleSolve(graph);  // sees the disabled arcs
  if (sched.feasible != relaxed.feasible) {
    return Diverged(tag, check,
                    StrFormat("after relaxation production says %s, oracle says %s",
                              sched.feasible ? "feasible" : "infeasible",
                              relaxed.feasible ? "feasible" : "infeasible"));
  }
  if (sched.feasible) {
    CMIF_RETURN_IF_ERROR(
        CompareTimes(tag, check, sched.solve.earliest, "production", relaxed.times, "oracle"));
    // The schedule's event times must be exactly the earliest assignment.
    for (const ScheduledEvent& event : sched.schedule.events()) {
      CMIF_ASSIGN_OR_RETURN(int begin, graph.PointOf(*event.event.node, PointKind::kBegin));
      CMIF_ASSIGN_OR_RETURN(int end, graph.PointOf(*event.event.node, PointKind::kEnd));
      if (event.begin != relaxed.times[static_cast<std::size_t>(begin)] ||
          event.end != relaxed.times[static_cast<std::size_t>(end)]) {
        return Diverged(tag, check,
                        "scheduled event " + event.event.node->DisplayPath() +
                            " does not sit at the oracle's earliest times");
      }
    }
  } else {
    if (sched.conflicts.empty()) {
      return Diverged(tag, check, "infeasible production schedule carries no conflict");
    }
    // Classification: when ignoring capability constraints makes the network
    // feasible, every unbreakable cycle runs through a capability constraint
    // and production must have said so. (The converse is not required: a
    // mixed cycle can legitimately be reported as kCapability while a pure
    // authoring cycle also exists.)
    ConflictClass cls = sched.conflicts.back().cls;
    bool capability_blamed = OracleBlamesCapability(graph);
    if (capability_blamed && cls != ConflictClass::kCapability) {
      return Diverged(tag, check,
                      "oracle blames the device model but production classified the conflict as " +
                          std::string(ConflictClassName(cls)));
    }
    if (expect_capability_free && cls != ConflictClass::kAuthoring) {
      return Diverged(tag, check,
                      "graph has no capability constraints but conflict classified as " +
                          std::string(ConflictClassName(cls)));
    }
  }
  if (production != nullptr) {
    *production = std::move(sched);
  }
  return Status::Ok();
}

// Compares the production playback engine against the simulator, entry by
// entry, under one freeze setting.
Status ComparePlayback(const Document& document, const Schedule& schedule,
                       const DescriptorStore* store, const SystemProfile& profile,
                       bool enable_freeze, const std::string& tag) {
  const std::string check = enable_freeze ? "player(freeze)" : "player(no-freeze)";
  PlayerOptions player_options;
  player_options.profile = profile;
  player_options.enable_freeze = enable_freeze;
  CMIF_ASSIGN_OR_RETURN(PlaybackResult played, Play(document, schedule, store, player_options));
  SimulatorOptions sim_options;
  sim_options.profile = profile;
  sim_options.enable_freeze = enable_freeze;
  CMIF_ASSIGN_OR_RETURN(SimResult simulated,
                        SimulatePlayback(document, schedule, store, sim_options));
  const FinalClock sim_clock{simulated.document_time, simulated.presentation_time,
                             simulated.frozen_total};
  CMIF_RETURN_IF_ERROR(
      CompareTrace(tag, check, played, "engine", simulated.entries, sim_clock, "simulator"));
  if (played.sync_violations != simulated.sync_violations) {
    return Diverged(tag, check,
                    StrFormat("engine counted %zu sync violations, simulator %zu",
                              played.sync_violations, simulated.sync_violations));
  }
  if (enable_freeze && played.sync_violations != 0) {
    return Diverged(tag, check, "sync violations with freezing enabled");
  }
  if (played.trace.TotalFreeze() != simulated.total_freeze) {
    return Diverged(tag, check, "total freeze time differs");
  }
  if (Status s = played.trace.Verify(); !s.ok()) {
    return Diverged(tag, check, "engine trace fails Verify: " + s.message());
  }
  return Status::Ok();
}

// Serialize -> parse -> serialize must be byte-identical, and the reparsed
// document must schedule exactly like the original.
Status CheckDocumentRoundTrip(const Document& document, const DescriptorStore* store,
                              const ScheduleResult& original, const std::string& tag,
                              Document* reparsed_out) {
  CMIF_ASSIGN_OR_RETURN(std::string text, WriteDocument(document));
  StatusOr<Document> reparsed = ParseDocument(text);
  if (!reparsed.ok()) {
    return Diverged(tag, "serialize/parse", "serialized document does not parse: " +
                                                reparsed.status().message());
  }
  CMIF_ASSIGN_OR_RETURN(std::string text2, WriteDocument(*reparsed));
  if (text != text2) {
    return Diverged(tag, "serialize/parse", "second serialization is not a fixed point");
  }
  CMIF_ASSIGN_OR_RETURN(std::vector<EventDescriptor> events, CollectEvents(*reparsed, store));
  CMIF_ASSIGN_OR_RETURN(ScheduleResult resched, ComputeSchedule(*reparsed, events));
  if (resched.feasible != original.feasible) {
    return Diverged(tag, "serialize/parse", "reparsed document's feasibility changed");
  }
  if (resched.feasible) {
    const auto& a = original.schedule.events();
    const auto& b = resched.schedule.events();
    if (a.size() != b.size()) {
      return Diverged(tag, "serialize/parse", "reparsed schedule has a different event count");
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].begin != b[i].begin || a[i].end != b[i].end ||
          a[i].event.channel != b[i].event.channel ||
          a[i].event.node->DisplayPath() != b[i].event.node->DisplayPath()) {
        return Diverged(tag, "serialize/parse",
                        "reparsed schedule shifted event " + a[i].event.node->DisplayPath());
      }
    }
  }
  if (reparsed_out != nullptr) {
    *reparsed_out = std::move(*reparsed);
  }
  return Status::Ok();
}

// compile -> serialize -> parse -> compile must be a PresentationHash fixed
// point, and compile -> wire-encode -> decode must return the identical
// canonical presentation.
Status CheckPipelineRoundTrips(const Document& document, const Document& reparsed,
                               const DescriptorStore& store, const SystemProfile& profile,
                               const std::string& tag) {
  BlockStore blocks;
  PipelineOptions options;
  options.profile = profile;
  options.mode = PipelineMode::kCompileOnly;
  CMIF_ASSIGN_OR_RETURN(CompileReport first, CompilePresentation(document, store, blocks, options));
  CMIF_ASSIGN_OR_RETURN(CompileReport second,
                        CompilePresentation(reparsed, store, blocks, options));
  CompiledPresentation cp1{first.presentation_map, first.filter, first.schedule};
  CompiledPresentation cp2{second.presentation_map, second.filter, second.schedule};
  std::uint64_t h1 = net::PresentationHash(cp1);
  std::uint64_t h2 = net::PresentationHash(cp2);
  if (h1 != h2) {
    return Diverged(tag, "compile/serialize/parse/compile",
                    StrFormat("PresentationHash %016llx != %016llx",
                              static_cast<unsigned long long>(h1),
                              static_cast<unsigned long long>(h2)));
  }

  // Wire round trip: response -> frame -> decode -> response.
  std::string body = net::SerializePresentation(cp1);
  net::PresentResponse response;
  response.outcome = ServeOutcome::kHealthy;
  response.presentation = body;
  response.presentation_hash = h1;
  std::string frame_bytes = net::EncodeFrame(net::FrameType::kResponse,
                                             net::EncodeResponse(response));
  std::size_t consumed = 0;
  StatusOr<net::Frame> frame = net::DecodeFrame(frame_bytes, &consumed);
  if (!frame.ok()) {
    return Diverged(tag, "compile/wire/decode", "frame decode failed: " + frame.status().message());
  }
  if (consumed != frame_bytes.size() || frame->type != net::FrameType::kResponse) {
    return Diverged(tag, "compile/wire/decode", "frame shape changed in transit");
  }
  StatusOr<net::PresentResponse> decoded = net::DecodeResponse(frame->payload);
  if (!decoded.ok()) {
    return Diverged(tag, "compile/wire/decode",
                    "response decode failed: " + decoded.status().message());
  }
  if (decoded->presentation != body || decoded->presentation_hash != h1 ||
      Fnv1a64(decoded->presentation) != h1) {
    return Diverged(tag, "compile/wire/decode",
                    "decoded presentation is not the canonical serialization");
  }
  return Status::Ok();
}

}  // namespace

Status CheckEditTrace(const Document& document, const DescriptorStore* store,
                      const std::vector<EditOp>& trace, const std::string& tag,
                      CheckCounters* counters) {
  DescriptorStore empty;
  const DescriptorStore& catalog = store != nullptr ? *store : empty;
  const std::string check = "edit-session";

  // Baseline: the session's opening compile must agree with from-scratch.
  CMIF_ASSIGN_OR_RETURN(std::vector<EventDescriptor> events, CollectEvents(document, store));
  CMIF_ASSIGN_OR_RETURN(ScheduleResult base, ComputeSchedule(document, events));
  StatusOr<std::unique_ptr<api::EditSession>> session = api::EditSession::Open(document, catalog);
  if (!session.ok()) {
    if (base.feasible) {
      return Diverged(tag, check,
                      "session failed to open on a schedulable document: " +
                          session.status().message());
    }
    StatusOr<Conflict> conflict = ConflictFromStatus(session.status());
    if (!conflict.ok()) {
      return Diverged(tag, check, "open conflict is not the canonical encoding: " +
                                      session.status().message());
    }
    if (base.conflicts.empty() || conflict->cls != base.conflicts.back().cls) {
      return Diverged(tag, check, "open conflict class differs from the from-scratch compile");
    }
    return Status::Ok();  // unschedulable document: nothing incremental to drive
  }

  Document mirror = document.Clone();
  std::uint64_t last_generation = (*session)->generation();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const EditOp& op = trace[i];
    const std::string step = StrFormat("%s op[%zu] '%s'", check.c_str(), i,
                                       FormatEditOp(op).c_str());
    StatusOr<EditReport> mirror_report = ApplyEdit(mirror, op);
    StatusOr<EditReport> session_report = (*session)->Apply(op);
    if (mirror_report.ok() != session_report.ok()) {
      return Diverged(tag, step,
                      StrFormat("op applied to %s but not %s",
                                mirror_report.ok() ? "the mirror" : "the session",
                                mirror_report.ok() ? "the session" : "the mirror"));
    }
    if (!mirror_report.ok()) {
      continue;  // identically inapplicable (a shrunk trace); both unchanged
    }
    if (mirror_report->dropped_arcs.size() != session_report->dropped_arcs.size()) {
      return Diverged(tag, step, "edit dropped a different number of arcs on each side");
    }

    // From-scratch compile of the identically edited mirror, plus the oracle
    // re-judging the graph relaxation settled on.
    CMIF_ASSIGN_OR_RETURN(std::vector<EventDescriptor> mirror_events,
                          CollectEvents(mirror, store));
    CMIF_ASSIGN_OR_RETURN(TimeGraph graph, TimeGraph::Build(mirror, mirror_events));
    CMIF_ASSIGN_OR_RETURN(ScheduleResult scratch, SolveSchedule(graph, mirror_events));
    OracleResult oracle = OracleSolve(graph);
    if (counters != nullptr) {
      counters->oracle_passes += oracle.passes;
    }
    if (scratch.feasible != oracle.feasible) {
      return Diverged(tag, step, "from-scratch compile and oracle disagree on feasibility");
    }

    StatusOr<api::EditDelta> delta = (*session)->Recompile();
    if (delta.ok() != scratch.feasible) {
      return Diverged(tag, step,
                      StrFormat("session recompile says %s, from-scratch says %s",
                                delta.ok() ? "feasible" : "infeasible",
                                scratch.feasible ? "feasible" : "infeasible"));
    }
    if (!delta.ok()) {
      if (delta.status().code() != StatusCode::kFailedPrecondition) {
        return delta.status();
      }
      StatusOr<Conflict> conflict = ConflictFromStatus(delta.status());
      if (!conflict.ok()) {
        return Diverged(tag, step, "recompile conflict is not the canonical encoding: " +
                                       delta.status().message());
      }
      if (scratch.conflicts.empty()) {
        return Diverged(tag, step, "session reports a conflict, from-scratch reports none");
      }
      const Conflict& expected = scratch.conflicts.back();
      if (conflict->cls != expected.cls) {
        return Diverged(tag, step,
                        "conflict class: session says " +
                            std::string(ConflictClassName(conflict->cls)) +
                            ", from-scratch says " +
                            std::string(ConflictClassName(expected.cls)));
      }
      if (conflict->cycle != expected.cycle) {
        return Diverged(tag, step, "conflict cycles differ between session and from-scratch");
      }
      continue;  // the session keeps its last-good schedule; later ops may fix it
    }
    if (delta->generation != last_generation + 1) {
      return Diverged(tag, step,
                      StrFormat("generation went %llu -> %llu instead of bumping by one",
                                static_cast<unsigned long long>(last_generation),
                                static_cast<unsigned long long>(delta->generation)));
    }
    last_generation = delta->generation;
    CMIF_RETURN_IF_ERROR(CompareTimes(tag, step, (*session)->solve().earliest, "session",
                                      scratch.solve.earliest, "scratch"));
    CMIF_RETURN_IF_ERROR(
        CompareTimes(tag, step, (*session)->solve().earliest, "session", oracle.times, "oracle"));
    if (delta->dropped_arcs != scratch.dropped_arcs) {
      return Diverged(tag, step, "relaxation dropped different may arcs on each side");
    }
  }
  return Status::Ok();
}

GenOptions PathologicalGenOptions(std::uint64_t seed, int target_leaves) {
  std::uint64_t h = MixSeed(seed);
  GenOptions gen;
  gen.seed = seed;
  gen.target_leaves = target_leaves;
  gen.max_depth = 2 + static_cast<int>(h % 5);  // shallow fanout to deep nests
  gen.max_fanout = 2 + static_cast<int>((h >> 3) % 4);
  gen.channels = 1 + static_cast<int>((h >> 5) % 4);  // 1 = channel starvation
  gen.par_probability = 0.2 + 0.15 * static_cast<double>((h >> 7) % 5);
  gen.arcs_per_composite = 0.4 + 0.3 * static_cast<double>((h >> 10) % 4);
  gen.may_fraction = 0.25 * static_cast<double>((h >> 12) % 4);
  gen.tight_windows = ((h >> 14) & 3) != 0;  // 3 in 4: finite (maybe infeasible) windows
  gen.cross_arc_rate = 0.25 * static_cast<double>((h >> 16) % 3);
  gen.backward_arc_fraction = ((h >> 18) & 1) != 0 ? 0.3 : 0.0;
  gen.zero_offset_fraction = ((h >> 19) & 1) != 0 ? 0.5 : 0.0;
  gen.negative_delay_fraction = ((h >> 20) & 1) != 0 ? 0.5 : 0.0;
  gen.with_styles = ((h >> 21) & 1) != 0;
  return gen;
}

Status CheckDocument(const Document& document, const DescriptorStore* store,
                     const std::string& tag, const SystemProfile& profile,
                     CheckCounters* counters) {
  CMIF_ASSIGN_OR_RETURN(std::vector<EventDescriptor> events, CollectEvents(document, store));

  // 1. Solver differential on the authored constraints alone. The graph has
  // no capability constraints, so any conflict must classify as authoring.
  CMIF_ASSIGN_OR_RETURN(TimeGraph graph, TimeGraph::Build(document, events));
  ScheduleResult production;
  CMIF_RETURN_IF_ERROR(CheckSolver(graph, events, tag, "solver", /*expect_capability_free=*/true,
                                   &production, counters));
  if (counters != nullptr) {
    if (!production.feasible) {
      ++counters->infeasible;
    } else if (production.conflicts.empty()) {
      ++counters->feasible;
    } else {
      ++counters->relaxed;
    }
  }

  // 2. Solver differential with the device model injected — the class-2
  // conflict path of section 5.3.3.
  CMIF_ASSIGN_OR_RETURN(TimeGraph capability_graph, TimeGraph::Build(document, events));
  CMIF_RETURN_IF_ERROR(
      InjectCapabilityConstraints(capability_graph, document, events, profile));
  CMIF_RETURN_IF_ERROR(CheckSolver(capability_graph, events, tag, "solver+capability",
                                   /*expect_capability_free=*/false, nullptr, counters));

  // 3. Serialize/parse fixed point and schedule stability.
  Document reparsed;
  CMIF_RETURN_IF_ERROR(CheckDocumentRoundTrip(document, store, production, tag, &reparsed));

  // 4. Pipeline-hash and wire round trips (need the descriptor catalog).
  if (store != nullptr) {
    CMIF_RETURN_IF_ERROR(CheckPipelineRoundTrips(document, reparsed, *store, profile, tag));
  }

  // 5. Player vs simulator on the production schedule, both freeze modes.
  if (production.feasible) {
    CMIF_RETURN_IF_ERROR(ComparePlayback(document, production.schedule, store, profile,
                                         /*enable_freeze=*/true, tag));
    CMIF_RETURN_IF_ERROR(ComparePlayback(document, production.schedule, store, profile,
                                         /*enable_freeze=*/false, tag));
  }
  return Status::Ok();
}

namespace {

// The lens table, in run order, with each lens's reproducer file-name infix
// (indexed by Lens).
constexpr Lens kLenses[] = {Lens::kDocument, Lens::kEdit, Lens::kStream};
constexpr const char* kReproInfix[] = {"", "edit-", "stream-"};

// Runs one lens over the case; a lens the case does not select passes.
Status RunLens(Lens lens, const CheckCase& c, const DescriptorStore* store, const std::string& tag,
               const SystemProfile& profile, CheckCounters* counters) {
  switch (lens) {
    case Lens::kDocument:
      return CheckDocument(c.document, store, tag, profile, counters);
    case Lens::kEdit:
      return c.edits ? CheckEditTrace(c.document, store, *c.edits, tag, counters) : Status::Ok();
    case Lens::kStream:
      return c.link ? CheckStreamDocument(c.document, store, tag, profile, *c.link, counters)
                    : Status::Ok();
  }
  return Status::Ok();
}

// Runs every lens in table order, stopping at the first divergence;
// `failed` (when non-null) then names the lens that diverged.
Status RunCase(const CheckCase& c, const DescriptorStore* store, const std::string& tag,
               const SystemProfile& profile, CheckCounters* counters, Lens* failed) {
  for (Lens lens : kLenses) {
    if (Status s = RunLens(lens, c, store, tag, profile, counters); !s.ok()) {
      if (failed != nullptr) {
        *failed = lens;
      }
      return s;
    }
  }
  return Status::Ok();
}

// Child-index path of `node` from its root, for relocating the same node in
// a clone.
std::vector<std::size_t> IndexPath(const Node& node) {
  std::vector<std::size_t> path;
  const Node* current = &node;
  while (current->parent() != nullptr) {
    const Node* parent = current->parent();
    for (std::size_t i = 0; i < parent->child_count(); ++i) {
      if (&parent->ChildAt(i) == current) {
        path.push_back(i);
        break;
      }
    }
    current = parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Node* NodeAtIndexPath(Document& document, const std::vector<std::size_t>& path) {
  Node* node = &document.root();
  for (std::size_t index : path) {
    if (index >= node->child_count()) {
      return nullptr;
    }
    node = &node->ChildAt(index);
  }
  return node;
}

// Every single-step reduction of `c`, largest first: subtrees in pre-order,
// then arcs, then edit ops. Each returns false when it does not apply to
// the clone it is handed.
std::vector<std::function<bool(CheckCase&)>> Reductions(const CheckCase& c) {
  std::vector<std::function<bool(CheckCase&)>> reductions;
  c.document.root().Visit([&](const Node& node) {
    if (node.parent() != nullptr) {
      reductions.push_back([path = IndexPath(node)](CheckCase& trial) {
        Node* victim = NodeAtIndexPath(trial.document, path);
        return victim != nullptr && DeleteSubtree(trial.document, *victim).ok();
      });
    }
  });
  c.document.root().Visit([&](const Node& node) {
    for (std::size_t i = 0; i < node.arcs().size(); ++i) {
      reductions.push_back([path = IndexPath(node), i](CheckCase& trial) {
        Node* owner = NodeAtIndexPath(trial.document, path);
        if (owner == nullptr || i >= owner->arcs().size()) {
          return false;
        }
        owner->arcs().erase(owner->arcs().begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      });
    }
  });
  // The edit lens skips ops made identically inapplicable by earlier
  // deletions, so any subsequence of the trace is a valid trial.
  for (std::size_t i = 0; c.edits && i < c.edits->size(); ++i) {
    reductions.push_back([i](CheckCase& trial) {
      trial.edits->erase(trial.edits->begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    });
  }
  return reductions;
}

// Strict decimal parse of a whole trailer value: no '+', no suffix, and a
// '-' only where T is signed.
template <typename T>
std::optional<T> ParseDecimal(std::string_view text) {
  T value{};
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

// Parses the key=value tokens of a `%% stream` line into `link`.
Status ParseStreamKeys(const std::vector<std::string>& tokens, StreamLink& link) {
  std::vector<std::string> seen;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    std::size_t eq = tokens[i].find('=');
    std::string key = tokens[i].substr(0, eq);
    if (eq == std::string::npos) {
      return InvalidArgumentError("token '" + tokens[i] + "' is not key=value");
    }
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      return InvalidArgumentError("duplicate key '" + key + "'");
    }
    seen.push_back(key);
    std::string_view value = std::string_view(tokens[i]).substr(eq + 1);
    if (key == "bandwidth") {
      std::optional<std::int64_t> bandwidth = ParseDecimal<std::int64_t>(value);
      if (!bandwidth) {
        return InvalidArgumentError("bandwidth '" + std::string(value) + "' is not an integer");
      }
      link.bandwidth_bytes_per_s = *bandwidth;
    } else if (key == "chunk") {
      std::optional<std::uint64_t> chunk = ParseDecimal<std::uint64_t>(value);
      if (!chunk) {
        return InvalidArgumentError("chunk '" + std::string(value) + "' is not an integer");
      }
      link.chunk_bytes = *chunk;
    } else {
      return InvalidArgumentError("unknown key '" + key + "'");
    }
  }
  return ValidateLink(link);
}

}  // namespace

StatusOr<CheckCase> ParseCase(const std::string& text, const std::string& tag) {
  // The document runs up to the first line that opens a section.
  std::size_t trailer = 0;
  while (trailer < text.size() && text.compare(trailer, 2, "%%") != 0) {
    std::size_t newline = text.find('\n', trailer);
    trailer = newline == std::string::npos ? text.size() : newline + 1;
  }
  StatusOr<Document> document = ParseDocument(text.substr(0, trailer));
  if (!document.ok()) {
    return FailedPreconditionError("[" + tag + "] corpus file does not parse: " +
                                   document.status().message());
  }
  CheckCase c{std::move(*document), std::nullopt, std::nullopt};
  auto malformed = [&](const std::string& line, const std::string& why) {
    return FailedPreconditionError("[" + tag + "] corpus trailer line '" + line + "': " + why);
  };
  std::string section;
  for (const std::string& raw : SplitString(std::string_view(text).substr(trailer), '\n')) {
    std::string line(TrimString(raw));
    if (raw.rfind("%%", 0) != 0) {
      if (line.empty()) {
        continue;
      }
      if (section != "edits") {
        return malformed(line, "section '" + section + "' takes no body lines");
      }
      StatusOr<EditOp> op = ParseEditOp(line);
      if (!op.ok()) {
        return malformed(line, "edit op does not parse: " + op.status().message());
      }
      c.edits->push_back(std::move(*op));
      continue;
    }
    std::vector<std::string> tokens;
    for (const std::string& token : SplitString(line, ' ')) {
      if (!token.empty()) {
        tokens.push_back(token);
      }
    }
    if (tokens.size() < 2 || tokens[0] != "%%") {
      return malformed(line, "expected '%% <section> [key=value]...'");
    }
    section = tokens[1];
    if (section == "edits") {
      if (c.edits) {
        return malformed(line, "duplicate section");
      }
      if (tokens.size() > 2) {
        return malformed(line, "section 'edits' takes no keys");
      }
      c.edits.emplace();
    } else if (section == "stream") {
      if (c.link) {
        return malformed(line, "duplicate section");
      }
      c.link.emplace();
      if (Status s = ParseStreamKeys(tokens, *c.link); !s.ok()) {
        return malformed(line, s.message());
      }
    } else {
      return malformed(line, "unknown section '" + section + "'");
    }
  }
  return c;
}

StatusOr<std::string> FormatCase(const CheckCase& c) {
  CMIF_ASSIGN_OR_RETURN(std::string out, WriteDocument(c.document));
  if (out.empty() || out.back() != '\n') {
    out += '\n';
  }
  if (c.edits) {
    out += "%% edits\n";
    for (const EditOp& op : *c.edits) {
      out += FormatEditOp(op) + "\n";
    }
  }
  if (c.link) {
    out += StrFormat("%%%% stream bandwidth=%lld chunk=%llu\n",
                     static_cast<long long>(c.link->bandwidth_bytes_per_s),
                     static_cast<unsigned long long>(c.link->chunk_bytes));
  }
  return out;
}

StatusOr<std::string> ShrinkReproducer(const CheckCase& failing, Lens lens,
                                       const DescriptorStore* store, const SystemProfile& profile) {
  auto fails = [&](const CheckCase& candidate) {
    return !RunLens(lens, candidate, store, "shrink", profile, nullptr).ok();
  };
  if (!fails(failing)) {
    return FailedPreconditionError("case passes every check of that lens; nothing to shrink");
  }
  // A reproducer carries only what its lens reads.
  CheckCase current{failing.document.Clone(), std::nullopt, std::nullopt};
  if (lens == Lens::kEdit) {
    current.edits = failing.edits;
  } else if (lens == Lens::kStream) {
    current.link = failing.link;
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (const auto& reduce : Reductions(current)) {
      CheckCase trial{current.document.Clone(), current.edits, current.link};
      if (reduce(trial) && fails(trial)) {
        current = std::move(trial);
        progress = true;
        break;
      }
    }
  }
  return FormatCase(current);
}

StatusOr<CheckReport> RunDifferentialCheck(const CheckOptions& options) {
  if (options.link) {
    CMIF_RETURN_IF_ERROR(ValidateLink(*options.link));
  }
  CheckReport report;
  std::vector<std::uint64_t> seeds = options.seeds;
  if (seeds.empty()) {
    seeds.reserve(static_cast<std::size_t>(std::max(options.count, 0)));
    for (int i = 0; i < options.count; ++i) {
      seeds.push_back(MixSeed(options.base_seed + static_cast<std::uint64_t>(i)));
    }
  }
  for (std::uint64_t seed : seeds) {
    std::string tag = StrFormat("seed=0x%016llx", static_cast<unsigned long long>(seed));
    GenOptions gen = PathologicalGenOptions(seed, options.target_leaves);
    StatusOr<GenWorkload> workload = GenerateRandomDocument(gen);
    if (!workload.ok()) {
      report.failures.push_back(
          CheckFailure{seed, "generator failed: " + workload.status().message(), ""});
      continue;
    }
    ++report.documents;
    CheckCase c{std::move(workload->document), std::nullopt, options.link};
    if (options.edits > 0) {
      EditGenOptions egen;
      egen.count = options.edits;
      egen.seed = seed;
      StatusOr<std::vector<EditOp>> trace = GenerateEditTrace(c.document, egen);
      if (!trace.ok()) {
        report.failures.push_back(CheckFailure{
            seed, "[" + tag + "] edit-trace generator failed: " + trace.status().message(), ""});
        continue;
      }
      c.edits = std::move(*trace);
    }
    Lens failed = Lens::kDocument;
    Status verdict = RunCase(c, &workload->store, tag, options.profile, &report, &failed);
    if (verdict.ok()) {
      continue;
    }
    CheckFailure failure{seed, verdict.message(), ""};
    if (options.shrink) {
      StatusOr<std::string> minimized =
          ShrinkReproducer(c, failed, &workload->store, options.profile);
      if (minimized.ok()) {
        std::filesystem::path dir =
            options.reproducer_dir.empty() ? "." : options.reproducer_dir;
        std::string name = StrFormat("repro-%s%016llx.cmif", kReproInfix[static_cast<int>(failed)],
                                     static_cast<unsigned long long>(seed));
        std::filesystem::path path = dir / name;
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        std::ofstream out(path);
        if (out) {
          out << *minimized;
          failure.reproducer_path = path.string();
        }
      }
    }
    report.failures.push_back(std::move(failure));
  }
  return report;
}

Status ReplayCorpusText(const std::string& text, const std::string& tag) {
  CMIF_ASSIGN_OR_RETURN(CheckCase c, ParseCase(text, tag));
  // Corpus files are self-contained: generated leaves pin their durations
  // with duration attributes, so no catalog is needed to re-judge them.
  return RunCase(c, /*store=*/nullptr, tag, WorkstationProfile(), nullptr, nullptr);
}

StatusOr<int> ReplayCorpusDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return NotFoundError("cannot open corpus dir '" + dir + "': " + ec.message());
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".cmif") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    if (!in) {
      return NotFoundError("cannot read corpus file '" + path.string() + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    CMIF_RETURN_IF_ERROR(ReplayCorpusText(buffer.str(), path.filename().string()));
  }
  return static_cast<int>(files.size());
}

std::string CheckReport::Summary() const {
  std::ostringstream os;
  os << "checked " << documents << " documents: " << feasible << " feasible, " << relaxed
     << " relaxed, " << infeasible << " infeasible, " << streamed << " streamed ("
     << oracle_passes << " oracle sweeps)\n";
  for (const CheckFailure& failure : failures) {
    os << StrFormat("FAIL seed=0x%016llx: %s\n",
                    static_cast<unsigned long long>(failure.seed), failure.detail.c_str());
    if (!failure.reproducer_path.empty()) {
      os << "  minimized reproducer: " << failure.reproducer_path << "\n";
    }
  }
  if (failures.empty()) {
    os << "zero divergences\n";
  }
  return os.str();
}

}  // namespace check
}  // namespace cmif
