#include "src/serve/persistent_cache.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "src/base/crc32.h"
#include "src/base/lexer.h"
#include "src/base/logging.h"
#include "src/base/media_time.h"
#include "src/base/string_util.h"
#include "src/doc/event.h"
#include "src/doc/node.h"
#include "src/fault/fault.h"
#include "src/media/media_type.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/sched/schedule.h"

namespace cmif {
namespace {

namespace fs = std::filesystem;

constexpr int kEntryVersion = 1;
constexpr std::string_view kEntrySuffix = ".cpe";

// ---------------------------------------------------------------------------
// Kill-9 crash hook. One plan per process: the writer thread raises SIGKILL
// on the `remaining`-th arrival at `point`. Guarded by a mutex — this is a
// test/chaos facility, never on a fault-free path.

std::mutex& CrashMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}
std::string& CrashPoint() {
  static std::string* point = new std::string();
  return *point;
}
int g_crash_remaining = 0;

// True when this arrival at `point` is the one armed to die.
bool CrashHere(std::string_view point) {
  std::lock_guard<std::mutex> lock(CrashMu());
  if (CrashPoint() != point) {
    return false;
  }
  if (--g_crash_remaining > 0) {
    return false;
  }
  CrashPoint().clear();
  return true;
}

[[noreturn]] void KillSelf() {
  // The whole point: die the way a power cut does — no destructors, no
  // flushes, no atexit. SIGKILL cannot be caught.
  ::kill(::getpid(), SIGKILL);
  for (;;) {
    ::pause();
  }
}

void MaybeKillAt(std::string_view point) {
  if (CrashHere(point)) {
    KillSelf();
  }
}

// ---------------------------------------------------------------------------
// Paths and file names.

fs::path EntriesDir(const std::string& dir) { return fs::path(dir) / "entries"; }
fs::path TmpDir(const std::string& dir) { return fs::path(dir) / "tmp"; }
fs::path QuarantineDir(const std::string& dir) { return fs::path(dir) / "quarantine"; }
fs::path JournalPath(const std::string& dir) { return fs::path(dir) / "manifest.journal"; }

std::string SanitizeProfile(std::string_view profile) {
  std::string out;
  for (char c : profile.substr(0, 32)) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '-' || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Small read/parse helpers.

StatusOr<std::string> ReadFileBytes(const fs::path& path, std::size_t limit = 0) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return UnavailableError("cannot open " + path.string());
  }
  std::string out;
  char buffer[4096];
  while (in.good() && (limit == 0 || out.size() < limit)) {
    in.read(buffer, sizeof(buffer));
    out.append(buffer, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) {
    return UnavailableError("read error on " + path.string());
  }
  if (limit != 0 && out.size() > limit) {
    out.resize(limit);
  }
  return out;
}

StatusOr<std::uint64_t> ParseU64(const Token& token, int base = 10) {
  // Canonical digits only (the writer emits lowercase hex, no sign, no "0x"):
  // strtoull alone would accept uppercase hex and prefixes, letting a
  // bit-flipped header still verify. Every non-canonical byte is corruption.
  for (char c : token.text) {
    if (!((c >= '0' && c <= '9' && c - '0' < base) || (base == 16 && c >= 'a' && c <= 'f'))) {
      return DataLossError(StrFormat("line %d (offset %zu): bad number '%s'", token.line,
                                     token.offset, token.text.c_str()));
    }
  }
  errno = 0;
  char* end = nullptr;
  std::uint64_t value = std::strtoull(token.text.c_str(), &end, base);
  if (token.text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    return DataLossError(StrFormat("line %d (offset %zu): bad number '%s'", token.line,
                                   token.offset, token.text.c_str()));
  }
  return value;
}

StatusOr<std::int64_t> ParseI64(const Token& token) {
  errno = 0;
  char* end = nullptr;
  std::int64_t value = std::strtoll(token.text.c_str(), &end, 10);
  if (token.text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    return DataLossError(StrFormat("line %d (offset %zu): bad integer '%s'", token.line,
                                   token.offset, token.text.c_str()));
  }
  return value;
}

Status ExpectWord(Lexer& lexer, std::string_view word) {
  CMIF_ASSIGN_OR_RETURN(Token token, lexer.Expect(TokenKind::kWord));
  if (token.text != word) {
    return DataLossError(StrFormat("line %d (offset %zu): expected '%s', got '%s'", token.line,
                                   token.offset, std::string(word).c_str(), token.text.c_str()));
  }
  return Status::Ok();
}

StatusOr<std::uint64_t> ReadU64After(Lexer& lexer, std::string_view word, int base = 10) {
  CMIF_RETURN_IF_ERROR(ExpectWord(lexer, word));
  CMIF_ASSIGN_OR_RETURN(Token token, lexer.Expect(TokenKind::kWord));
  return ParseU64(token, base);
}

StatusOr<std::string> ReadStringAfter(Lexer& lexer, std::string_view word) {
  CMIF_RETURN_IF_ERROR(ExpectWord(lexer, word));
  CMIF_ASSIGN_OR_RETURN(Token token, lexer.Expect(TokenKind::kString));
  return std::move(token.text);
}

StatusOr<MediaTime> ReadTimeAfter(Lexer& lexer, std::string_view word) {
  CMIF_RETURN_IF_ERROR(ExpectWord(lexer, word));
  CMIF_ASSIGN_OR_RETURN(Token token, lexer.Expect(TokenKind::kWord));
  StatusOr<MediaTime> time = ParseMediaTime(token.text);
  if (!time.ok()) {
    return DataLossError(StrFormat("line %d (offset %zu): bad time '%s'", token.line, token.offset,
                                   token.text.c_str()));
  }
  return time;
}

StatusOr<FilterOpKind> ParseFilterOpKind(const Token& token) {
  static constexpr FilterOpKind kKinds[] = {
      FilterOpKind::kQuantizeColor, FilterOpKind::kMonochrome,    FilterOpKind::kDownscale,
      FilterOpKind::kSubsampleFps,  FilterOpKind::kResampleAudio, FilterOpKind::kMixToMono,
  };
  for (FilterOpKind kind : kKinds) {
    if (token.text == FilterOpKindName(kind)) {
      return kind;
    }
  }
  return DataLossError(StrFormat("line %d (offset %zu): unknown filter op '%s'", token.line,
                                 token.offset, token.text.c_str()));
}

StatusOr<ConflictClass> ParseConflictClass(const Token& token) {
  static constexpr ConflictClass kClasses[] = {
      ConflictClass::kAuthoring,
      ConflictClass::kCapability,
      ConflictClass::kNavigation,
  };
  for (ConflictClass cls : kClasses) {
    if (token.text == ConflictClassName(cls)) {
      return cls;
    }
  }
  return DataLossError(StrFormat("line %d (offset %zu): unknown conflict class '%s'", token.line,
                                 token.offset, token.text.c_str()));
}

// ---------------------------------------------------------------------------
// Entry header: the first line of every entry file.
//   (pcache-entry version 1 doc <hex> chan <hex> gen <n> profile "<p>"
//    bytes <n> crc <hex>)

struct EntryHeader {
  MappingCacheKey key;
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;
  std::size_t header_bytes = 0;  // header line length including '\n'
};

std::string BuildHeaderLine(const MappingCacheKey& key, std::size_t payload_bytes,
                            std::uint32_t crc) {
  return StrFormat("(pcache-entry version %d doc %016llx chan %016llx gen %llu profile %s "
                   "bytes %zu crc %08lx)\n",
                   kEntryVersion, static_cast<unsigned long long>(key.document_hash),
                   static_cast<unsigned long long>(key.channel_hash),
                   static_cast<unsigned long long>(key.store_generation),
                   QuoteString(key.profile).c_str(), payload_bytes,
                   static_cast<unsigned long>(crc));
}

StatusOr<EntryHeader> ParseHeaderLine(std::string_view content) {
  std::size_t newline = content.find('\n');
  if (newline == std::string_view::npos) {
    return DataLossError(StrFormat("truncated entry header (no newline in the first %zu bytes)",
                                   content.size()));
  }
  EntryHeader header;
  header.header_bytes = newline + 1;
  Lexer lexer(content.substr(0, newline));
  CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kLParen).status());
  CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "pcache-entry"));
  CMIF_ASSIGN_OR_RETURN(std::uint64_t version, ReadU64After(lexer, "version"));
  if (version != static_cast<std::uint64_t>(kEntryVersion)) {
    return DataLossError(StrFormat("unsupported pcache entry version %llu",
                                   static_cast<unsigned long long>(version)));
  }
  CMIF_ASSIGN_OR_RETURN(header.key.document_hash, ReadU64After(lexer, "doc", 16));
  CMIF_ASSIGN_OR_RETURN(header.key.channel_hash, ReadU64After(lexer, "chan", 16));
  CMIF_ASSIGN_OR_RETURN(header.key.store_generation, ReadU64After(lexer, "gen"));
  CMIF_ASSIGN_OR_RETURN(header.key.profile, ReadStringAfter(lexer, "profile"));
  CMIF_ASSIGN_OR_RETURN(header.payload_bytes, ReadU64After(lexer, "bytes"));
  CMIF_ASSIGN_OR_RETURN(std::uint64_t crc, ReadU64After(lexer, "crc", 16));
  header.payload_crc = static_cast<std::uint32_t>(crc);
  CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kRParen).status());
  CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kEnd).status());
  return header;
}

// Full structural check of one entry file image: header, exact size, CRC.
StatusOr<EntryHeader> VerifyEntryImage(std::string_view content) {
  CMIF_ASSIGN_OR_RETURN(EntryHeader header, ParseHeaderLine(content));
  std::size_t have = content.size() - header.header_bytes;
  if (have < header.payload_bytes) {
    return DataLossError(StrFormat("entry truncated: header declares %llu payload bytes, "
                                   "%zu present (offset %zu)",
                                   static_cast<unsigned long long>(header.payload_bytes), have,
                                   content.size()));
  }
  if (have > header.payload_bytes) {
    return DataLossError(StrFormat("entry has %zu trailing bytes past the declared payload "
                                   "(offset %zu)",
                                   have - header.payload_bytes,
                                   header.header_bytes + header.payload_bytes));
  }
  std::uint32_t actual = Crc32(content.substr(header.header_bytes));
  if (actual != header.payload_crc) {
    return DataLossError(StrFormat("entry payload fails its CRC-32 check: declared %08lx, "
                                   "actual %08lx (offset %zu)",
                                   static_cast<unsigned long>(header.payload_crc),
                                   static_cast<unsigned long>(actual), header.header_bytes));
  }
  return header;
}

// ---------------------------------------------------------------------------
// Manifest journal: one CRC'd line per committed entry.
//   <crc8> commit <file> <payload-bytes> <payload-crc8>\n
// The line CRC covers everything after "<crc8> ". Appends are single writes
// of whole lines, so a crash tears at most the trailing line; replay drops a
// torn or corrupt tail (the affected entries reappear as orphans and are
// fully verified instead).

std::string BuildJournalLine(const std::string& file, std::uint64_t payload_bytes,
                             std::uint32_t payload_crc) {
  std::string body = StrFormat("commit %s %llu %08lx", file.c_str(),
                               static_cast<unsigned long long>(payload_bytes),
                               static_cast<unsigned long>(payload_crc));
  return StrFormat("%08lx %s\n", static_cast<unsigned long>(Crc32(body)), body.c_str());
}

struct JournalRecord {
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;
};

struct JournalReplay {
  std::map<std::string, JournalRecord> committed;  // file name -> last record
  std::uint64_t torn_lines = 0;                    // dropped (torn or corrupt) tail lines
};

JournalReplay ReplayJournal(std::string_view text) {
  JournalReplay replay;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t newline = text.find('\n', pos);
    if (newline == std::string_view::npos) {
      // Torn tail: the crash hit mid-append. Drop it.
      ++replay.torn_lines;
      break;
    }
    std::string_view line = text.substr(pos, newline - pos);
    pos = newline + 1;
    bool ok = false;
    if (line.size() > 9 && line[8] == ' ') {
      std::string_view body = line.substr(9);
      errno = 0;
      char* end = nullptr;
      const std::string declared_text(line.substr(0, 8));  // `end` points into it
      std::uint32_t declared =
          static_cast<std::uint32_t>(std::strtoul(declared_text.c_str(), &end, 16));
      if (end != nullptr && *end == '\0' && declared == Crc32(body)) {
        std::vector<std::string> fields = SplitString(body, ' ');
        if (fields.size() == 4 && fields[0] == "commit") {
          JournalRecord record;
          record.payload_bytes = std::strtoull(fields[2].c_str(), nullptr, 10);
          record.payload_crc = static_cast<std::uint32_t>(std::strtoul(fields[3].c_str(), nullptr, 16));
          replay.committed[fields[1]] = record;
          ok = true;
        }
      }
    }
    if (!ok) {
      // A bad line mid-journal means nothing after it can be trusted; stop.
      // The entries its lost successors named are re-verified as orphans.
      ++replay.torn_lines;
      break;
    }
  }
  return replay;
}

// ---------------------------------------------------------------------------
// POSIX write helpers (the commit path needs real fds for fsync).

Status WriteAllFd(int fd, std::string_view bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return UnavailableError(StrFormat("write failed: %s", std::strerror(errno)));
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

void FsyncDir(const fs::path& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Payload serialization.

std::string SerializeCompiledPresentation(const CompiledPresentation& compiled) {
  std::string out;
  out += "(compiled\n";

  out += " (map\n";
  for (const ChannelBinding& binding : compiled.map.bindings()) {
    if (!binding.region.empty()) {
      out += StrFormat("  (bind %s region %s)\n", QuoteString(binding.channel).c_str(),
                       QuoteString(binding.region).c_str());
    } else {
      out += StrFormat("  (bind %s speaker %s volume %d)\n", QuoteString(binding.channel).c_str(),
                       QuoteString(binding.speaker).c_str(), binding.volume);
    }
  }
  out += " )\n";

  out += StrFormat(" (filter total %lld %lld unsupported %zu\n",
                   static_cast<long long>(compiled.filter.total_bytes_before),
                   static_cast<long long>(compiled.filter.total_bytes_after),
                   compiled.filter.unsupported);
  for (const FilterPlan& plan : compiled.filter.plans) {
    out += StrFormat("  (plan %s bytes %lld -> %lld supported %d reason %s",
                     QuoteString(plan.descriptor_id).c_str(),
                     static_cast<long long>(plan.bytes_before),
                     static_cast<long long>(plan.bytes_after), plan.supported ? 1 : 0,
                     QuoteString(plan.unsupported_reason).c_str());
    for (const FilterOp& op : plan.ops) {
      out += StrFormat(" (op %s %d %d)", std::string(FilterOpKindName(op.kind)).c_str(), op.arg1,
                       op.arg2);
    }
    out += ")\n";
  }
  out += " )\n";

  out += StrFormat(" (schedule feasible %d\n", compiled.schedule.feasible ? 1 : 0);
  for (const ScheduledEvent& scheduled : compiled.schedule.schedule.events()) {
    out += StrFormat("  (event %s channel %s medium %s descriptor %s begin %s end %s)\n",
                     QuoteString(scheduled.event.node ? scheduled.event.node->DisplayPath() : "")
                         .c_str(),
                     QuoteString(scheduled.event.channel).c_str(),
                     std::string(MediaTypeName(scheduled.event.medium)).c_str(),
                     QuoteString(scheduled.event.descriptor_id).c_str(),
                     scheduled.begin.ToString().c_str(), scheduled.end.ToString().c_str());
  }
  // Node times in display-path order: the table is a hash map in memory, and
  // a deterministic serialization keeps identical compiles byte-identical on
  // disk (the crash harness diffs entry files across cycles).
  std::vector<std::pair<std::string, std::pair<MediaTime, MediaTime>>> node_rows;
  compiled.schedule.schedule.VisitNodeTimes([&](const Node* node, MediaTime begin, MediaTime end) {
    node_rows.emplace_back(node->DisplayPath(), std::make_pair(begin, end));
  });
  std::sort(node_rows.begin(), node_rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [path, times] : node_rows) {
    out += StrFormat("  (node %s begin %s end %s)\n", QuoteString(path).c_str(),
                     times.first.ToString().c_str(), times.second.ToString().c_str());
  }
  for (const std::string& arc : compiled.schedule.dropped_arcs) {
    out += StrFormat("  (dropped-arc %s)\n", QuoteString(arc).c_str());
  }
  for (const Conflict& conflict : compiled.schedule.conflicts) {
    out += StrFormat("  (conflict %s %s", std::string(ConflictClassName(conflict.cls)).c_str(),
                     QuoteString(conflict.description).c_str());
    for (const std::string& label : conflict.cycle) {
      out += StrFormat(" %s", QuoteString(label).c_str());
    }
    out += ")\n";
  }
  out += " )\n";
  out += ")\n";
  return out;
}

StatusOr<CompiledPresentation> ParseCompiledPresentation(std::string_view payload,
                                                         const Document& document,
                                                         const DescriptorStore& store) {
  CompiledPresentation compiled;
  Lexer lexer(payload);
  CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kLParen).status());
  CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "compiled"));

  // (map (bind ...) ...)
  CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kLParen).status());
  CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "map"));
  for (;;) {
    CMIF_ASSIGN_OR_RETURN(Token token, lexer.Next());
    if (token.kind == TokenKind::kRParen) {
      break;
    }
    if (token.kind != TokenKind::kLParen) {
      return DataLossError(StrFormat("line %d (offset %zu): expected '(' or ')' in map section",
                                     token.line, token.offset));
    }
    CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "bind"));
    CMIF_ASSIGN_OR_RETURN(Token channel, lexer.Expect(TokenKind::kString));
    CMIF_ASSIGN_OR_RETURN(Token kind, lexer.Expect(TokenKind::kWord));
    if (kind.text == "region") {
      CMIF_ASSIGN_OR_RETURN(Token region, lexer.Expect(TokenKind::kString));
      CMIF_RETURN_IF_ERROR(compiled.map.BindRegion(channel.text, region.text));
    } else if (kind.text == "speaker") {
      CMIF_ASSIGN_OR_RETURN(Token speaker, lexer.Expect(TokenKind::kString));
      CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "volume"));
      CMIF_ASSIGN_OR_RETURN(Token volume, lexer.Expect(TokenKind::kWord));
      CMIF_ASSIGN_OR_RETURN(std::int64_t vol, ParseI64(volume));
      CMIF_RETURN_IF_ERROR(
          compiled.map.BindSpeaker(channel.text, speaker.text, static_cast<int>(vol)));
    } else {
      return DataLossError(StrFormat("line %d (offset %zu): unknown binding kind '%s'", kind.line,
                                     kind.offset, kind.text.c_str()));
    }
    CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kRParen).status());
  }

  // (filter total B A unsupported N (plan ...) ...)
  CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kLParen).status());
  CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "filter"));
  CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "total"));
  {
    CMIF_ASSIGN_OR_RETURN(Token before, lexer.Expect(TokenKind::kWord));
    CMIF_ASSIGN_OR_RETURN(compiled.filter.total_bytes_before, ParseI64(before));
    CMIF_ASSIGN_OR_RETURN(Token after, lexer.Expect(TokenKind::kWord));
    CMIF_ASSIGN_OR_RETURN(compiled.filter.total_bytes_after, ParseI64(after));
    CMIF_ASSIGN_OR_RETURN(std::uint64_t unsupported, ReadU64After(lexer, "unsupported"));
    compiled.filter.unsupported = static_cast<std::size_t>(unsupported);
  }
  for (;;) {
    CMIF_ASSIGN_OR_RETURN(Token token, lexer.Next());
    if (token.kind == TokenKind::kRParen) {
      break;
    }
    if (token.kind != TokenKind::kLParen) {
      return DataLossError(StrFormat("line %d (offset %zu): expected '(' or ')' in filter section",
                                     token.line, token.offset));
    }
    CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "plan"));
    FilterPlan plan;
    CMIF_ASSIGN_OR_RETURN(Token id, lexer.Expect(TokenKind::kString));
    plan.descriptor_id = std::move(id.text);
    CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "bytes"));
    CMIF_ASSIGN_OR_RETURN(Token before, lexer.Expect(TokenKind::kWord));
    CMIF_ASSIGN_OR_RETURN(plan.bytes_before, ParseI64(before));
    CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "->"));
    CMIF_ASSIGN_OR_RETURN(Token after, lexer.Expect(TokenKind::kWord));
    CMIF_ASSIGN_OR_RETURN(plan.bytes_after, ParseI64(after));
    CMIF_ASSIGN_OR_RETURN(std::uint64_t supported, ReadU64After(lexer, "supported"));
    plan.supported = supported != 0;
    CMIF_ASSIGN_OR_RETURN(plan.unsupported_reason, ReadStringAfter(lexer, "reason"));
    for (;;) {
      CMIF_ASSIGN_OR_RETURN(Token inner, lexer.Next());
      if (inner.kind == TokenKind::kRParen) {
        break;
      }
      if (inner.kind != TokenKind::kLParen) {
        return DataLossError(StrFormat("line %d (offset %zu): expected '(op ...)' or ')'",
                                       inner.line, inner.offset));
      }
      CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "op"));
      FilterOp op;
      CMIF_ASSIGN_OR_RETURN(Token name, lexer.Expect(TokenKind::kWord));
      CMIF_ASSIGN_OR_RETURN(op.kind, ParseFilterOpKind(name));
      CMIF_ASSIGN_OR_RETURN(Token arg1, lexer.Expect(TokenKind::kWord));
      CMIF_ASSIGN_OR_RETURN(std::int64_t a1, ParseI64(arg1));
      op.arg1 = static_cast<int>(a1);
      CMIF_ASSIGN_OR_RETURN(Token arg2, lexer.Expect(TokenKind::kWord));
      CMIF_ASSIGN_OR_RETURN(std::int64_t a2, ParseI64(arg2));
      op.arg2 = static_cast<int>(a2);
      CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kRParen).status());
      plan.ops.push_back(op);
    }
    compiled.filter.plans.push_back(std::move(plan));
  }

  // (schedule feasible F (event ...) (node ...) (dropped-arc ...) (conflict ...))
  CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kLParen).status());
  CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "schedule"));
  CMIF_ASSIGN_OR_RETURN(std::uint64_t feasible, ReadU64After(lexer, "feasible"));
  compiled.schedule.feasible = feasible != 0;
  compiled.schedule.solve.feasible = compiled.schedule.feasible;

  struct PersistedEvent {
    std::string path;
    std::string channel;
    MediaType medium = MediaType::kText;
    std::string descriptor_id;
    MediaTime begin;
    MediaTime end;
  };
  std::vector<PersistedEvent> persisted_events;
  std::vector<std::pair<std::string, std::pair<MediaTime, MediaTime>>> persisted_nodes;
  for (;;) {
    CMIF_ASSIGN_OR_RETURN(Token token, lexer.Next());
    if (token.kind == TokenKind::kRParen) {
      break;
    }
    if (token.kind != TokenKind::kLParen) {
      return DataLossError(StrFormat("line %d (offset %zu): expected '(' or ')' in schedule "
                                     "section",
                                     token.line, token.offset));
    }
    CMIF_ASSIGN_OR_RETURN(Token kind, lexer.Expect(TokenKind::kWord));
    if (kind.text == "event") {
      PersistedEvent event;
      CMIF_ASSIGN_OR_RETURN(Token path, lexer.Expect(TokenKind::kString));
      event.path = std::move(path.text);
      CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "channel"));
      CMIF_ASSIGN_OR_RETURN(Token channel, lexer.Expect(TokenKind::kString));
      event.channel = std::move(channel.text);
      CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "medium"));
      CMIF_ASSIGN_OR_RETURN(Token medium, lexer.Expect(TokenKind::kWord));
      StatusOr<MediaType> media_type = ParseMediaType(medium.text);
      if (!media_type.ok()) {
        return DataLossError(StrFormat("line %d (offset %zu): unknown medium '%s'", medium.line,
                                       medium.offset, medium.text.c_str()));
      }
      event.medium = *media_type;
      CMIF_RETURN_IF_ERROR(ExpectWord(lexer, "descriptor"));
      CMIF_ASSIGN_OR_RETURN(Token descriptor, lexer.Expect(TokenKind::kString));
      event.descriptor_id = std::move(descriptor.text);
      CMIF_ASSIGN_OR_RETURN(event.begin, ReadTimeAfter(lexer, "begin"));
      CMIF_ASSIGN_OR_RETURN(event.end, ReadTimeAfter(lexer, "end"));
      CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kRParen).status());
      persisted_events.push_back(std::move(event));
    } else if (kind.text == "node") {
      CMIF_ASSIGN_OR_RETURN(Token path, lexer.Expect(TokenKind::kString));
      CMIF_ASSIGN_OR_RETURN(MediaTime begin, ReadTimeAfter(lexer, "begin"));
      CMIF_ASSIGN_OR_RETURN(MediaTime end, ReadTimeAfter(lexer, "end"));
      CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kRParen).status());
      persisted_nodes.emplace_back(std::move(path.text), std::make_pair(begin, end));
    } else if (kind.text == "dropped-arc") {
      CMIF_ASSIGN_OR_RETURN(Token label, lexer.Expect(TokenKind::kString));
      CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kRParen).status());
      compiled.schedule.dropped_arcs.push_back(std::move(label.text));
    } else if (kind.text == "conflict") {
      Conflict conflict;
      CMIF_ASSIGN_OR_RETURN(Token cls, lexer.Expect(TokenKind::kWord));
      CMIF_ASSIGN_OR_RETURN(conflict.cls, ParseConflictClass(cls));
      CMIF_ASSIGN_OR_RETURN(Token description, lexer.Expect(TokenKind::kString));
      conflict.description = std::move(description.text);
      for (;;) {
        CMIF_ASSIGN_OR_RETURN(Token label, lexer.Next());
        if (label.kind == TokenKind::kRParen) {
          break;
        }
        if (label.kind != TokenKind::kString) {
          return DataLossError(StrFormat("line %d (offset %zu): expected cycle label string",
                                         label.line, label.offset));
        }
        conflict.cycle.push_back(std::move(label.text));
      }
      compiled.schedule.conflicts.push_back(std::move(conflict));
    } else {
      return DataLossError(StrFormat("line %d (offset %zu): unknown schedule item '%s'", kind.line,
                                     kind.offset, kind.text.c_str()));
    }
  }
  CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kRParen).status());  // (compiled
  CMIF_RETURN_IF_ERROR(lexer.Expect(TokenKind::kEnd).status());

  // Resolve display paths against the live document tree.
  std::unordered_map<std::string, const Node*> by_path;
  document.root().Visit([&](const Node& node) { by_path.emplace(node.DisplayPath(), &node); });

  std::unordered_map<const Node*, std::pair<MediaTime, MediaTime>> node_times;
  for (auto& [path, times] : persisted_nodes) {
    auto it = by_path.find(path);
    if (it == by_path.end()) {
      return DataLossError("persisted node '" + path + "' is not in the document");
    }
    node_times.emplace(it->second, times);
  }

  // Regenerate the full event descriptors (durations, effective attributes)
  // from the document + catalog — valid because the cache key pins both via
  // the document hash and store generation — and cross-check each against
  // its persisted counterpart. Any disagreement means the entry does not
  // belong to this (document, catalog) state: corruption, by definition.
  std::vector<ScheduledEvent> events;
  if (!persisted_events.empty()) {
    CMIF_ASSIGN_OR_RETURN(std::vector<EventDescriptor> collected, CollectEvents(document, &store));
    if (collected.size() != persisted_events.size()) {
      return DataLossError(StrFormat("entry has %zu events, document yields %zu",
                                     persisted_events.size(), collected.size()));
    }
    events.reserve(collected.size());
    for (std::size_t i = 0; i < collected.size(); ++i) {
      const EventDescriptor& descriptor = collected[i];
      const PersistedEvent& persisted = persisted_events[i];
      if (descriptor.node == nullptr || descriptor.node->DisplayPath() != persisted.path ||
          descriptor.channel != persisted.channel || descriptor.medium != persisted.medium ||
          descriptor.descriptor_id != persisted.descriptor_id) {
        return DataLossError(StrFormat("persisted event %zu does not match the document's event "
                                       "list",
                                       i));
      }
      events.push_back(ScheduledEvent{descriptor, persisted.begin, persisted.end});
    }
  }
  compiled.schedule.schedule = Schedule::FromParts(std::move(events), std::move(node_times));
  return compiled;
}

// ---------------------------------------------------------------------------
// PersistentCache.

std::string PersistentCacheFileName(const MappingCacheKey& key) {
  return StrFormat("%016llx-%016llx-g%llu-%s-%08llx%s",
                   static_cast<unsigned long long>(key.document_hash),
                   static_cast<unsigned long long>(key.channel_hash),
                   static_cast<unsigned long long>(key.store_generation),
                   SanitizeProfile(key.profile).c_str(),
                   static_cast<unsigned long long>(Fnv1a64(key.profile) & 0xffffffffULL),
                   std::string(kEntrySuffix).c_str());
}

PersistentCache::PersistentCache(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {}

PersistentCache::~PersistentCache() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (writer_.joinable()) {
    writer_.join();
  }
}

void PersistentCache::SetCrashPlanForTest(std::string point, int after) {
  std::lock_guard<std::mutex> lock(CrashMu());
  CrashPoint() = std::move(point);
  g_crash_remaining = after;
}

StatusOr<std::unique_ptr<PersistentCache>> PersistentCache::Open(std::string dir,
                                                                 Options options) {
  if (dir.empty()) {
    return InvalidArgumentError("persistent cache directory must not be empty");
  }
  if (const char* crash = std::getenv("CMIF_PCACHE_CRASH")) {
    std::string spec(crash);
    std::size_t colon = spec.find(':');
    int after = 1;
    if (colon != std::string::npos) {
      after = std::max(1, std::atoi(spec.c_str() + colon + 1));
      spec.resize(colon);
    }
    SetCrashPlanForTest(spec, after);
  }
  std::unique_ptr<PersistentCache> cache(new PersistentCache(std::move(dir), options));
  CMIF_RETURN_IF_ERROR(cache->Recover());
  cache->writer_ = std::thread([raw = cache.get()] { raw->WriterLoop(); });
  return cache;
}

Status PersistentCache::Recover() {
  auto start = std::chrono::steady_clock::now();
  std::error_code ec;
  for (const fs::path& sub :
       {fs::path(dir_), EntriesDir(dir_), TmpDir(dir_), QuarantineDir(dir_)}) {
    fs::create_directories(sub, ec);
    if (ec) {
      return UnavailableError("cannot create cache directory " + sub.string() + ": " +
                              ec.message());
    }
  }

  // 1. In-flight temp files are garbage by definition.
  for (const fs::directory_entry& entry : fs::directory_iterator(TmpDir(dir_), ec)) {
    fs::remove(entry.path(), ec);
  }

  // 2. Replay the manifest journal (tolerating a torn tail).
  JournalReplay replay;
  if (fs::exists(JournalPath(dir_), ec)) {
    StatusOr<std::string> journal = ReadFileBytes(JournalPath(dir_));
    if (journal.ok()) {
      replay = ReplayJournal(*journal);
    }
  }

  // 3. Scan committed entries. Journaled files get a cheap header + exact-
  // size check (CRC is verified on first read); orphans — renamed into place
  // but lost from the journal by a crash — are fully verified, then adopted
  // back into the journal or quarantined.
  std::vector<std::string> adopt;
  for (const fs::directory_entry& entry : fs::directory_iterator(EntriesDir(dir_), ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::string file = entry.path().filename().string();
    if (file.size() < kEntrySuffix.size() ||
        file.substr(file.size() - kEntrySuffix.size()) != kEntrySuffix) {
      continue;
    }
    auto journaled = replay.committed.find(file);
    Status verdict = Status::Ok();
    EntryHeader header;
    bool orphan = false;
    if (journaled != replay.committed.end()) {
      StatusOr<std::string> prefix = ReadFileBytes(entry.path(), 4096);
      if (!prefix.ok()) {
        verdict = prefix.status();
      } else {
        StatusOr<EntryHeader> parsed = ParseHeaderLine(*prefix);
        if (!parsed.ok()) {
          verdict = parsed.status();
        } else {
          header = *parsed;
          std::uint64_t expected = header.header_bytes + header.payload_bytes;
          std::uint64_t actual = entry.file_size(ec);
          if (actual != expected) {
            verdict = DataLossError(StrFormat("entry is %llu bytes, header declares %llu",
                                              static_cast<unsigned long long>(actual),
                                              static_cast<unsigned long long>(expected)));
          } else if (header.payload_bytes != journaled->second.payload_bytes ||
                     header.payload_crc != journaled->second.payload_crc) {
            verdict = DataLossError("entry header disagrees with its journal record");
          }
        }
      }
    } else {
      StatusOr<std::string> content = ReadFileBytes(entry.path());
      if (!content.ok()) {
        verdict = content.status();
      } else {
        StatusOr<EntryHeader> parsed = VerifyEntryImage(*content);
        if (!parsed.ok()) {
          verdict = parsed.status();
        } else {
          header = *parsed;
          orphan = true;  // adopted below, once the filename check passes too
        }
      }
    }
    if (!verdict.ok()) {
      // Quarantine without the lock: Recover runs before the writer starts.
      fs::rename(entry.path(), QuarantineDir(dir_) / file, ec);
      ++stats_.quarantined;
      if (obs::Enabled()) {
        static obs::Counter& quarantined = obs::GetCounter("serve.pcache.quarantined");
        quarantined.Add();
      }
      CMIF_LOG(kWarning) << "pcache quarantined " << file << " at startup: " << verdict.message();
      continue;
    }
    if (PersistentCacheFileName(header.key) != file) {
      fs::rename(entry.path(), QuarantineDir(dir_) / file, ec);
      ++stats_.quarantined;
      CMIF_LOG(kWarning) << "pcache quarantined " << file << ": header key does not match name";
      continue;
    }
    if (orphan) {
      adopt.push_back(file);
    }
    IndexEntry index_entry;
    index_entry.file = file;
    index_entry.bytes = header.payload_bytes;
    index_entry.crc = header.payload_crc;
    stats_.disk_bytes += header.header_bytes + header.payload_bytes;
    index_.emplace(std::move(file), std::move(index_entry));
  }
  stats_.journal_torn = replay.torn_lines;
  stats_.orphans_adopted = adopt.size();
  stats_.entries = index_.size();

  // 4. Compact the journal whenever this scan learned something it didn't
  // say: adopted orphans must be journaled so the next Open trusts them
  // cheaply, and a torn line must not stay in the file — appending after a
  // newline-less tail would corrupt the junction and re-tear every later
  // replay at the same spot. A full rewrite (tmp, fsync, rename) heals both
  // and drops duplicate lines from refills as a side effect.
  if (!adopt.empty() || replay.torn_lines > 0) {
    std::string lines;
    for (const auto& [file, entry] : index_) {
      lines += BuildJournalLine(file, entry.bytes, entry.crc);
    }
    fs::path tmp = TmpDir(dir_) / "manifest.journal.tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      Status wrote = WriteAllFd(fd, lines);
      ::fsync(fd);
      ::close(fd);
      if (wrote.ok()) {
        fs::rename(tmp, JournalPath(dir_), ec);
        FsyncDir(dir_);
      }
    }
  }

  auto end = std::chrono::steady_clock::now();
  stats_.open_recovery_ms = std::chrono::duration<double, std::milli>(end - start).count();
  return Status::Ok();
}

void PersistentCache::Quarantine(const std::string& file, const Status& reason) {
  std::error_code ec;
  fs::rename(EntriesDir(dir_) / file, QuarantineDir(dir_) / file, ec);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(file);
    if (it != index_.end()) {
      index_.erase(it);
      stats_.entries = index_.size();
    }
    ++stats_.quarantined;
  }
  if (obs::Enabled()) {
    static obs::Counter& quarantined = obs::GetCounter("serve.pcache.quarantined");
    quarantined.Add();
  }
  CMIF_LOG(kWarning) << "pcache quarantined " << file << ": " << reason.message();
}

std::shared_ptr<const CompiledPresentation> PersistentCache::Get(const MappingCacheKey& key,
                                                                 const Document& document,
                                                                 const DescriptorStore& store) {
  std::string file = PersistentCacheFileName(key);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.find(file) == index_.end()) {
      ++stats_.misses;
      if (obs::Enabled()) {
        static obs::Counter& misses = obs::GetCounter("serve.pcache.misses");
        misses.Add();
      }
      return nullptr;
    }
  }
  if (fault::Enabled()) {
    if (Status injected = fault::InjectPoint("fs.pcache.read"); !injected.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.read_errors;
      return nullptr;  // transient: served as a miss, the caller recompiles
    }
  }
  StatusOr<std::string> content = ReadFileBytes(EntriesDir(dir_) / file);
  if (!content.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.read_errors;
    return nullptr;
  }
  StatusOr<EntryHeader> header = VerifyEntryImage(*content);
  if (!header.ok()) {
    Quarantine(file, header.status());
    return nullptr;
  }
  if (!(header->key == key)) {
    Quarantine(file, DataLossError("entry header key does not match the lookup key"));
    return nullptr;
  }
  StatusOr<CompiledPresentation> parsed =
      ParseCompiledPresentation(std::string_view(*content).substr(header->header_bytes), document,
                                store);
  if (!parsed.ok()) {
    Quarantine(file, parsed.status());
    return nullptr;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    stats_.bytes_read += content->size();
  }
  if (obs::Enabled()) {
    static obs::Counter& hits = obs::GetCounter("serve.pcache.hits");
    hits.Add();
  }
  return std::make_shared<const CompiledPresentation>(*std::move(parsed));
}

bool PersistentCache::Put(const MappingCacheKey& key,
                          std::shared_ptr<const CompiledPresentation> compiled) {
  if (compiled == nullptr) {
    return false;
  }
  {
    // Cheap reject before paying for serialization when the queue is full.
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_ || queue_.size() >= options_.max_pending_writes) {
      std::lock_guard<std::mutex> stats_lock(mu_);
      ++stats_.dropped_writes;
      return false;
    }
  }
  // Serialize here, on the caller's thread: the presentation holds Node*
  // into the live document, and the caller only guarantees that document
  // alive across this call — a Publish can swap it out the moment we
  // return. The writer thread must never dereference the presentation.
  std::string payload = SerializeCompiledPresentation(*compiled);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_ || queue_.size() >= options_.max_pending_writes) {
      std::lock_guard<std::mutex> stats_lock(mu_);
      ++stats_.dropped_writes;
      return false;
    }
    queue_.push_back(PendingWrite{key, std::move(payload)});
  }
  queue_cv_.notify_one();
  return true;
}

void PersistentCache::Flush() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void PersistentCache::WriterLoop() {
  for (;;) {
    PendingWrite write;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping
      }
      write = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    Status status = CommitEntry(write);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.write_errors;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --in_flight_;
    }
    idle_cv_.notify_all();
  }
}

Status PersistentCache::CommitEntry(const PendingWrite& write) {
  std::string file = PersistentCacheFileName(write.key);
  {
    // An identical key is already on disk (a racing fill); skip the rewrite.
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.find(file) != index_.end()) {
      return Status::Ok();
    }
  }
  std::string payload = write.payload;
  std::uint32_t crc = Crc32(payload);
  if (fault::Enabled()) {
    // Bit rot between write and read: the CRC is computed over the pristine
    // payload first, so injected corruption is caught on read + quarantined,
    // never decoded.
    (void)fault::MaybeCorrupt("fs.pcache.write", payload);
    CMIF_RETURN_IF_ERROR(fault::InjectPoint("fs.pcache.write"));
  }
  std::string image = BuildHeaderLine(write.key, payload.size(), crc);
  std::size_t header_bytes = image.size();
  image += payload;

  fs::path tmp = TmpDir(dir_) / (file + ".tmp");
  fs::path final_path = EntriesDir(dir_) / file;
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return UnavailableError(StrFormat("cannot create %s: %s", tmp.c_str(), std::strerror(errno)));
  }
  if (CrashHere("entry.partial")) {
    // Torn write: half the image reaches the page cache, then the process
    // dies. The survivor must never serve this.
    (void)WriteAllFd(fd, std::string_view(image).substr(0, image.size() / 2));
    KillSelf();
  }
  Status written = WriteAllFd(fd, image);
  if (!written.ok()) {
    ::close(fd);
    std::error_code ec;
    fs::remove(tmp, ec);
    return written;
  }
  MaybeKillAt("entry.pre_fsync");
  if (fault::Enabled()) {
    if (Status injected = fault::InjectPoint("fs.pcache.fsync"); !injected.ok()) {
      ::close(fd);
      std::error_code ec;
      fs::remove(tmp, ec);
      return injected;
    }
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    std::error_code ec;
    fs::remove(tmp, ec);
    return UnavailableError(StrFormat("fsync failed: %s", std::strerror(errno)));
  }
  ::close(fd);

  MaybeKillAt("entry.pre_rename");
  if (fault::Enabled()) {
    if (Status injected = fault::InjectPoint("fs.pcache.rename"); !injected.ok()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return injected;
    }
  }
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return UnavailableError(StrFormat("rename failed: %s", std::strerror(errno)));
  }
  FsyncDir(EntriesDir(dir_));

  // The entry is durable from here on: journal-append failures (or a crash
  // before the append) only cost the next Open a full verification of this
  // file as an orphan.
  MaybeKillAt("journal.pre_append");
  std::string line = BuildJournalLine(file, payload.size(), crc);
  int jfd = ::open(JournalPath(dir_).c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (jfd >= 0) {
    if (CrashHere("journal.partial")) {
      (void)WriteAllFd(jfd, std::string_view(line).substr(0, line.size() / 2));
      KillSelf();
    }
    (void)WriteAllFd(jfd, line);
    ::fsync(jfd);
    ::close(jfd);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    IndexEntry entry;
    entry.file = file;
    entry.bytes = payload.size();
    entry.crc = crc;
    index_.emplace(file, std::move(entry));
    ++stats_.writes;
    stats_.bytes_written += header_bytes + payload.size();
    stats_.disk_bytes += header_bytes + payload.size();
    stats_.entries = index_.size();
  }
  if (obs::Enabled()) {
    static obs::Counter& writes = obs::GetCounter("serve.pcache.writes");
    writes.Add();
  }
  return Status::Ok();
}

PersistentCache::Stats PersistentCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

StatusOr<std::vector<PersistentCache::EntryInfo>> PersistentCache::List(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(fs::path(dir), ec)) {
    return NotFoundError("no cache directory at " + dir);
  }
  JournalReplay replay;
  if (fs::exists(JournalPath(dir), ec)) {
    StatusOr<std::string> journal = ReadFileBytes(JournalPath(dir));
    if (journal.ok()) {
      replay = ReplayJournal(*journal);
    }
  }
  std::vector<EntryInfo> entries;
  if (fs::is_directory(EntriesDir(dir), ec)) {
    for (const fs::directory_entry& file : fs::directory_iterator(EntriesDir(dir), ec)) {
      if (!file.is_regular_file()) {
        continue;
      }
      EntryInfo info;
      info.file = file.path().filename().string();
      info.journaled = replay.committed.count(info.file) > 0;
      StatusOr<std::string> prefix = ReadFileBytes(file.path(), 4096);
      if (prefix.ok()) {
        StatusOr<EntryHeader> header = ParseHeaderLine(*prefix);
        if (header.ok()) {
          info.document_hash = header->key.document_hash;
          info.channel_hash = header->key.channel_hash;
          info.store_generation = header->key.store_generation;
          info.profile = header->key.profile;
          info.bytes = header->payload_bytes;
        }
      }
      entries.push_back(std::move(info));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const EntryInfo& a, const EntryInfo& b) { return a.file < b.file; });
  return entries;
}

StatusOr<PersistentCache::VerifyReport> PersistentCache::Verify(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(fs::path(dir), ec)) {
    return NotFoundError("no cache directory at " + dir);
  }
  VerifyReport report;
  if (fs::is_directory(EntriesDir(dir), ec)) {
    std::vector<fs::path> files;
    for (const fs::directory_entry& file : fs::directory_iterator(EntriesDir(dir), ec)) {
      if (file.is_regular_file()) {
        files.push_back(file.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& path : files) {
      ++report.checked;
      StatusOr<std::string> content = ReadFileBytes(path);
      Status verdict =
          content.ok() ? VerifyEntryImage(*content).status() : content.status();
      if (verdict.ok()) {
        ++report.ok;
      } else {
        report.corrupt.push_back(path.filename().string() + ": " + std::string(verdict.message()));
      }
    }
  }
  return report;
}

Status PersistentCache::Purge(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(fs::path(dir), ec)) {
    return NotFoundError("no cache directory at " + dir);
  }
  for (const fs::path& sub : {EntriesDir(dir), TmpDir(dir), QuarantineDir(dir)}) {
    if (!fs::is_directory(sub, ec)) {
      continue;
    }
    for (const fs::directory_entry& file : fs::directory_iterator(sub, ec)) {
      fs::remove_all(file.path(), ec);
    }
  }
  fs::remove(JournalPath(dir), ec);
  return Status::Ok();
}

}  // namespace cmif
