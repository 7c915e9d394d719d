// Divergence reporting shared by the lens bodies in differential.cc and
// stream.cc. Private to src/check.
#ifndef SRC_CHECK_DIVERGE_H_
#define SRC_CHECK_DIVERGE_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/string_util.h"
#include "src/player/engine.h"

namespace cmif {
namespace check {

// FailedPrecondition "[tag] <check> differential diverged: <detail>".
Status Diverged(const std::string& tag, const std::string& check, const std::string& detail);

// The state a playback run's clock ends in.
struct FinalClock {
  MediaTime document_time;
  MediaTime presentation_time;
  MediaTime frozen_total;

  bool operator==(const FinalClock&) const = default;
};

// Compares `played` against a reference run, entry by entry on the nine
// fields every playback differential pins, then on the final clock. The
// reference is another engine run (TraceEntry) or the simulator (SimEntry);
// the two entry types share field names. Callers add their own checks
// (sync violations, stall rules, Verify) after this one.
template <typename Entry>
Status CompareTrace(const std::string& tag, const std::string& check, const PlaybackResult& played,
                    const char* played_name, const std::vector<Entry>& reference,
                    const FinalClock& reference_clock, const char* reference_name) {
  const std::vector<TraceEntry>& entries = played.trace.entries();
  if (entries.size() != reference.size()) {
    return Diverged(tag, check,
                    StrFormat("%s presented %zu events, %s %zu", played_name, entries.size(),
                              reference_name, reference.size()));
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const TraceEntry& a = entries[i];
    const Entry& b = reference[i];
    if (a.label != b.label || a.channel != b.channel || a.scheduled_begin != b.scheduled_begin ||
        a.target_begin != b.target_begin || a.actual_begin != b.actual_begin ||
        a.actual_end != b.actual_end || a.lateness != b.lateness ||
        a.caused_freeze != b.caused_freeze || a.freeze_amount != b.freeze_amount) {
      return Diverged(tag, check,
                      StrFormat("entry %zu ('%s') differs between %s and %s", i, a.label.c_str(),
                                played_name, reference_name));
    }
  }
  FinalClock clock{played.clock.document_time(), played.clock.presentation_time(),
                   played.clock.frozen_total()};
  if (clock != reference_clock) {
    return Diverged(tag, check,
                    StrFormat("final clock state differs between %s and %s", played_name,
                              reference_name));
  }
  return Status::Ok();
}

}  // namespace check
}  // namespace cmif

#endif  // SRC_CHECK_DIVERGE_H_
