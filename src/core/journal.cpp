#include "core/journal.hpp"

#include <sstream>
#include <string_view>

#include "core/jsonl.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace peak::core {

namespace {

// Serialization lives in core/jsonl.{hpp,cpp} (shared with the rating
// cache); this file only knows the journal's record shapes. Doubles
// travel as IEEE-754 bit patterns so the journal round trip is exact;
// decimal formatting would lose ulps and break the bit-identical-resume
// guarantee.
using jsonl::hex_double;
using jsonl::hex_u64;
using jsonl::JsonArray;
using jsonl::JsonParser;
using jsonl::JsonValue;
using jsonl::quote;

sim::SimExecutionBackend::Snapshot parse_backend_snapshot(
    const JsonValue& j) {
  sim::SimExecutionBackend::Snapshot s;
  const JsonArray& rng = j.at("rng").as_array();
  PEAK_CHECK(rng.size() == 4, "journal: rng state arity");
  for (std::size_t i = 0; i < 4; ++i)
    s.rng_state[i] = std::stoull(rng[i].as_string(), nullptr, 16);
  s.warmth = j.at("warmth").as_hex_double();
  s.accumulated = j.at("acc").as_hex_double();
  s.timed = j.at("timed").as_hex_double();
  s.precondition = j.at("pre").as_hex_double();
  s.checkpoint = j.at("ckpt").as_hex_double();
  s.faulted = j.at("faulted").as_hex_double();
  // Absent in journals written before the retry phase existed; those
  // runs folded backoff into "faulted", so zero is the faithful value.
  if (j.has("retry")) s.retry = j.at("retry").as_hex_double();
  s.saves = j.at("saves").as_u64();
  s.restores = j.at("restores").as_u64();
  s.checkpoint_bytes = j.at("ckpt_bytes").as_u64();
  s.swap_toggle = j.at("swap").as_bool();
  return s;
}

JournalEval parse_eval(const JsonValue& j) {
  JournalEval e;
  e.base_key = j.at("base").as_string();
  e.cfg_key = j.at("cfg").as_string();
  e.r = j.at("r").as_hex_double();
  if (j.has("memo"))
    for (const JsonValue& m : j.at("memo").as_array())
      e.memo_added.emplace_back(m.at("k").as_string(),
                                m.at("v").as_hex_double());
  if (j.has("validated"))
    for (const JsonValue& v : j.at("validated").as_array())
      e.validated_added.push_back(v.as_string());
  if (j.has("robs"))
    for (const JsonValue& o : j.at("robs").as_array()) {
      JournalEval::RatingObs obs;
      obs.converged = o.at("c").as_bool();
      obs.samples = o.at("s").as_u64();
      e.ratings_observed.push_back(obs);
    }
  if (j.has("fails"))
    for (const JsonValue& f : j.at("fails").as_array()) {
      JournalEval::FailDelta d;
      d.key = f.at("k").as_string();
      const auto kind = fault::parse_fault_kind(f.at("kind").as_string());
      PEAK_CHECK(kind.has_value(), "journal: unknown fault kind");
      d.kind = *kind;
      d.failures = f.at("n").as_u64();
      d.quarantined = f.at("q").as_bool();
      e.fails.push_back(std::move(d));
    }
  const JsonValue& snap = j.at("snap");
  e.snap.backend = parse_backend_snapshot(snap.at("backend"));
  e.snap.invocations = snap.at("inv").as_u64();
  e.snap.evaluations = snap.at("evals").as_u64();
  e.snap.ratings = snap.at("ratings").as_u64();
  e.snap.exhausted = snap.at("exhausted").as_u64();
  e.snap.whole_program_surcharge = snap.at("whl").as_hex_double();
  return e;
}

}  // namespace

TuningJournal::TuningJournal(std::string path) : path_(std::move(path)) {
  out_.open(path_, std::ios::app);
  PEAK_CHECK(out_.good(), "cannot open tuning journal " + path_);
}

void TuningJournal::write_line(const std::string& line) {
  out_ << line << '\n';
  // Flush per record: a kill between lines then loses at most the record
  // in flight, which load() skips as a partial trailing line.
  out_.flush();
}

void TuningJournal::start_segment(const std::string& method) {
  write_line("{\"type\":\"start\",\"method\":" + quote(method) + "}");
}

void TuningJournal::record_eval(const JournalEval& e) {
  std::ostringstream os;
  os << "{\"type\":\"eval\",\"base\":" << quote(e.base_key)
     << ",\"cfg\":" << quote(e.cfg_key) << ",\"r\":" << quote(hex_double(e.r));
  if (!e.memo_added.empty()) {
    os << ",\"memo\":[";
    for (std::size_t i = 0; i < e.memo_added.size(); ++i)
      os << (i ? "," : "") << "{\"k\":" << quote(e.memo_added[i].first)
         << ",\"v\":" << quote(hex_double(e.memo_added[i].second)) << "}";
    os << "]";
  }
  if (!e.validated_added.empty()) {
    os << ",\"validated\":[";
    for (std::size_t i = 0; i < e.validated_added.size(); ++i)
      os << (i ? "," : "") << quote(e.validated_added[i]);
    os << "]";
  }
  if (!e.ratings_observed.empty()) {
    os << ",\"robs\":[";
    for (std::size_t i = 0; i < e.ratings_observed.size(); ++i)
      os << (i ? "," : "") << "{\"c\":"
         << (e.ratings_observed[i].converged ? "true" : "false")
         << ",\"s\":" << e.ratings_observed[i].samples << "}";
    os << "]";
  }
  if (!e.fails.empty()) {
    os << ",\"fails\":[";
    for (std::size_t i = 0; i < e.fails.size(); ++i) {
      const JournalEval::FailDelta& d = e.fails[i];
      os << (i ? "," : "") << "{\"k\":" << quote(d.key)
         << ",\"kind\":" << quote(fault::to_string(d.kind))
         << ",\"n\":" << d.failures
         << ",\"q\":" << (d.quarantined ? "true" : "false") << "}";
    }
    os << "]";
  }
  const JournalEval::Snapshot& s = e.snap;
  os << ",\"snap\":{\"backend\":{\"rng\":[";
  for (std::size_t i = 0; i < 4; ++i)
    os << (i ? "," : "") << quote(hex_u64(s.backend.rng_state[i]));
  os << "],\"warmth\":" << quote(hex_double(s.backend.warmth))
     << ",\"acc\":" << quote(hex_double(s.backend.accumulated))
     << ",\"timed\":" << quote(hex_double(s.backend.timed))
     << ",\"pre\":" << quote(hex_double(s.backend.precondition))
     << ",\"ckpt\":" << quote(hex_double(s.backend.checkpoint))
     << ",\"faulted\":" << quote(hex_double(s.backend.faulted))
     << ",\"retry\":" << quote(hex_double(s.backend.retry))
     << ",\"saves\":" << s.backend.saves
     << ",\"restores\":" << s.backend.restores
     << ",\"ckpt_bytes\":" << s.backend.checkpoint_bytes
     << ",\"swap\":" << (s.backend.swap_toggle ? "true" : "false")
     // Every rating runs on its own member-local invocation cursor, so
     // the evaluator-level "cursor" is a constant 0, kept for a stable
     // record format.
     << "},\"cursor\":0,\"inv\":" << s.invocations
     << ",\"evals\":" << s.evaluations << ",\"ratings\":" << s.ratings
     << ",\"exhausted\":" << s.exhausted
     << ",\"whl\":" << quote(hex_double(s.whole_program_surcharge)) << "}}";
  write_line(os.str());
}

void TuningJournal::record_fault(const fault::FaultEvent& ev) {
  std::ostringstream os;
  os << "{\"type\":\"fault\",\"kind\":" << quote(fault::to_string(ev.kind))
     << ",\"cfg\":" << quote(ev.config_key) << ",\"inv\":" << ev.invocation_id
     << ",\"attempt\":" << ev.attempt
     << ",\"gave_up\":" << (ev.gave_up ? "true" : "false")
     << ",\"q\":" << (ev.quarantined ? "true" : "false") << "}";
  write_line(os.str());
}

std::vector<JournalSegment> TuningJournal::load(const std::string& path,
                                                bool strict,
                                                LoadStats* stats) {
  std::ifstream in(path, std::ios::binary);
  PEAK_CHECK(in.good(), "cannot read tuning journal " + path);
  std::vector<JournalSegment> segments;
  LoadStats local;
  std::string line;
  std::uint64_t offset = 0;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // getline() stops at '\n' or EOF; eof() after a successful read means
    // this final line has no terminator — i.e. the record that was being
    // written when the process died.
    const bool complete = !in.eof();
    const std::uint64_t line_end = offset + line.size() + (complete ? 1 : 0);
    if (line.empty()) {
      offset = line_end;
      continue;
    }
    std::string damage;
    try {
      if (line.back() != '}')
        throw support::CheckError("journal: unterminated record");
      const JsonValue record = JsonParser(line).parse();
      const std::string& type = record.at("type").as_string();
      if (type == "start") {
        JournalSegment seg;
        seg.method = record.at("method").as_string();
        segments.push_back(std::move(seg));
      } else if (type == "eval") {
        PEAK_CHECK(!segments.empty(), "journal: eval before any start");
        segments.back().evals.push_back(parse_eval(record));
      }
      // Other record types (fault, …) are informational.
    } catch (const std::exception& e) {
      // std::exception, not just CheckError: a flipped bit inside a hex
      // field surfaces as std::invalid_argument from stoull, and a
      // missing key as whatever jsonl throws — all of it is damage.
      damage = e.what();
    }
    if (damage.empty()) {
      offset = line_end;
      local.good_bytes = offset;
      continue;
    }
    if (!complete) break;  // partial trailing line: tolerated in any mode
    if (strict)
      throw support::CheckError("journal " + path + " line " +
                                std::to_string(line_no) +
                                " is corrupt: " + damage);
    // Lenient: the replayable prefix ends here. Everything from this line
    // on — including later lines that would parse — is discarded, because
    // replay consumes evals in key-checked sequence and cannot skip over
    // a hole. Resume re-measures the lost tail live, which stays
    // bit-identical (the journal only caches what the evaluator would
    // recompute).
    local.truncated = true;
    ++local.corrupt_lines;
    while (std::getline(in, line))
      if (!line.empty()) ++local.corrupt_lines;
    break;
  }
  if (local.corrupt_lines > 0)
    obs::counter("journal.corrupt_lines").inc(local.corrupt_lines);
  if (stats != nullptr) *stats = local;
  return segments;
}

}  // namespace peak::core
