// The differential conformance driver. Each seed becomes one *case*: a
// pathology-biased generated document (src/gen), plus an optional seeded
// edit trace and an optional simulated stream link. A case is judged
// through up to three *lenses* — the document, edit and stream check
// bodies below — each asserting that the production stack and a
// deliberately naive reference implementation agree. On divergence one
// greedy shrinker reduces the case against the lens that diverged and
// writes it as a corpus file: the serialized document followed by a `%%`
// trailer that pins the edit trace and the link.
#ifndef SRC_CHECK_DIFFERENTIAL_H_
#define SRC_CHECK_DIFFERENTIAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/doc/edit.h"
#include "src/gen/docgen.h"
#include "src/present/capability.h"

namespace cmif {
namespace check {

// The simulated link the stream lens delivers over.
struct StreamLink {
  // Bytes per second; 0 = infinite (every block arrives at t=0, the
  // degenerate blob-equivalent link).
  std::int64_t bandwidth_bytes_per_s = 64 << 10;
  // Chunk payload size, within [net::kMinChunkBytes, net::kMaxChunkBytes].
  // Small by default so ordinary generated documents span several chunks
  // (and therefore several resume boundaries).
  std::uint64_t chunk_bytes = 1 << 10;

  bool operator==(const StreamLink&) const = default;
};

// InvalidArgument unless the bandwidth is non-negative and the chunk size
// is within the wire's chunk range.
Status ValidateLink(const StreamLink& link);

// One differential case. The document lens always runs; `edits` selects
// the edit lens (an empty trace still checks the session's opening
// compile) and `link` the stream lens.
struct CheckCase {
  Document document;
  std::optional<std::vector<EditOp>> edits;
  std::optional<StreamLink> link;
};

// The check bodies a case is judged through, in the order they run.
enum class Lens { kDocument, kEdit, kStream };

// Controls one driver run.
struct CheckOptions {
  // First document seed; document i uses a seed derived from base_seed + i.
  std::uint64_t base_seed = 1;
  // Number of generated documents.
  int count = 200;
  // Explicit seed list; when non-empty it replaces base_seed/count (the CI
  // nightly job replays a fixed list).
  std::vector<std::uint64_t> seeds;
  // Size of each generated document.
  int target_leaves = 12;
  // Shrink failures to minimal reproducers.
  bool shrink = true;
  // Directory minimized reproducers are written into ("" = current dir).
  std::string reproducer_dir;
  // Device model for compilation, the capability-injected differential and
  // the player.
  SystemProfile profile = WorkstationProfile();
  // Edits per document (0 = off): each case carries a seeded edit trace
  // (src/gen/editgen) for the edit lens.
  int edits = 0;
  // When set, each case also streams over this link (the stream lens).
  std::optional<StreamLink> link;
};

// One divergence.
struct CheckFailure {
  std::uint64_t seed = 0;
  std::string detail;           // which check diverged and how
  std::string reproducer_path;  // minimized corpus file, when shrinking ran
};

// Per-document verdict counters, shared by the driver and corpus replay.
// The document lens fills the verdict buckets; the stream lens counts
// documents whose delivery plan carried blocks.
struct CheckCounters {
  std::size_t feasible = 0;    // schedulable as authored
  std::size_t relaxed = 0;     // schedulable after dropping may arcs
  std::size_t infeasible = 0;  // rejected by production and oracle alike
  std::size_t streamed = 0;    // stream plan carried at least one block
  std::size_t oracle_passes = 0;  // total oracle sweeps, for the bench ratio
};

// The outcome of a driver run.
struct CheckReport : CheckCounters {
  std::size_t documents = 0;
  std::vector<CheckFailure> failures;

  bool ok() const { return failures.empty(); }
  // Human-readable outcome; failure lines always include the seed.
  std::string Summary() const;
};

// Derives the document shape for one seed, sweeping the paper's pathology
// space: deep par/seq nesting, cross-subtree arcs, zero/negative offsets,
// infeasible tolerance windows, and channel starvation (channels == 1).
GenOptions PathologicalGenOptions(std::uint64_t seed, int target_leaves);

// The document lens:
//
//   solver     SolveStn (SPFA and Bellman-Ford) vs the fixed-point oracle —
//              same feasibility verdict, identical exact earliest times,
//              and after may-arc relaxation the same final assignment; on
//              rejection, consistent conflict classification.
//   round trip compile -> serialize -> parse -> compile is a fixed point of
//              the FNV-1a PresentationHash, and compile -> wire-encode ->
//              decode returns the identical canonical presentation.
//   player     the production engine vs the event-by-event simulator —
//              identical traces, zero sync violations with freezing on,
//              identical violation counts with freezing off.
//
// With a non-null `store` the full set runs; a null store runs the
// store-independent subset (no pipeline-hash or wire round trip), which is
// what corpus replay uses. The first divergence comes back as
// FailedPrecondition with `tag` in the message.
Status CheckDocument(const Document& document, const DescriptorStore* store,
                     const std::string& tag, const SystemProfile& profile,
                     CheckCounters* counters = nullptr);

// The edit lens. Replays `trace` through an api::EditSession on `document`
// and, after every op, compares the session's (warm-started,
// SCC-condensed) recompile against a from-scratch compile of an identically
// edited mirror and against the fixed-point oracle: same feasibility,
// identical exact earliest times, identical relaxation drops, and on
// rejection the same conflict class and cycle. Ops that fail to apply
// identically on both sides are skipped (the shrinker relies on that);
// asymmetric apply failures are divergences.
Status CheckEditTrace(const Document& document, const DescriptorStore* store,
                      const std::vector<EditOp>& trace, const std::string& tag,
                      CheckCounters* counters = nullptr);

// The stream lens (src/check/stream.cc). Chunked delivery must be invisible
// to the presentation:
//
//   bytes      the plan carved through the real chunk codecs and the
//              StreamReassembler must equal the blob carve, block for
//              block, byte for byte — and every payload must decode as a
//              canonical block encoding.
//   resume     cutting the stream at every chunk boundary (capped on long
//              streams) and resuming with the held prefix must reproduce
//              the uninterrupted bytes exactly.
//   playback   the engine run with a block-arrival hook (arrival of byte n
//              at n / bandwidth) vs the classic all-local run: when every
//              block arrives by its first need the streamed run stalls
//              zero times and the traces are identical; a stall-free run
//              is identical regardless; a stalling run still presents the
//              same events in the same order and keeps must-sync intact.
//
// With a null `store` an empty catalog stands in (corpus replay). The first
// divergence comes back as FailedPrecondition with `tag` in the message;
// an invalid link is InvalidArgument.
Status CheckStreamDocument(const Document& document, const DescriptorStore* store,
                           const std::string& tag, const SystemProfile& profile,
                           const StreamLink& link, CheckCounters* counters = nullptr);

// The driver: seeds become cases, every selected lens runs, and failures
// shrink to reproducers named repro[-edit|-stream]-<seed>.cmif after the
// lens that diverged. An invalid `options.link` is InvalidArgument.
StatusOr<CheckReport> RunDifferentialCheck(const CheckOptions& options);

// Greedily shrinks a case that fails `lens` — deleting a subtree (pre-order,
// so large subtrees go first), an arc, or an edit op, until no single
// deletion still fails that lens — and returns the result as corpus text
// (FormatCase). The reproducer keeps only the inputs the lens reads: the
// edit trace for the edit lens, the link for the stream lens. A case that
// passes the lens is FailedPrecondition.
StatusOr<std::string> ShrinkReproducer(const CheckCase& failing, Lens lens,
                                       const DescriptorStore* store, const SystemProfile& profile);

// The corpus file codec. A file is a document followed by an optional
// trailer: a list of sections, each opened by a `%% <name> [key=value]...`
// line whose body runs until the next `%%` line. Sections:
//
//   %% edits                               body: one EditOp per line
//   %% stream [bandwidth=<B>] [chunk=<C>]  no body; missing keys default
//
// Unknown sections or keys, duplicate sections or keys, malformed values
// and stray body lines are FailedPrecondition with `tag` in the message.
StatusOr<CheckCase> ParseCase(const std::string& text, const std::string& tag);
// The inverse: ParseCase(FormatCase(c)) is `c`.
StatusOr<std::string> FormatCase(const CheckCase& c);

// Replays one corpus file: parse, then run every lens the case selects with
// the store-independent document checks.
Status ReplayCorpusText(const std::string& text, const std::string& tag);

// Replays every *.cmif file under `dir` (sorted by name); returns the
// number of files replayed, or the first file's divergence.
StatusOr<int> ReplayCorpusDir(const std::string& dir);

}  // namespace check
}  // namespace cmif

#endif  // SRC_CHECK_DIFFERENTIAL_H_
