#pragma once

/// \file search_algorithm.hpp
/// Search over the optimization space. Algorithms see configurations only
/// through a ConfigEvaluator — in PEAK that evaluator is the rating
/// machinery (CBR/MBR/RBR/AVG/WHL) measuring real or simulated executions,
/// so the same algorithms work for any rating method, any backend.

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "search/opt_config.hpp"

namespace peak::search {

/// Rates configurations. Implementations are stateful: evaluation costs
/// (invocations, simulated time) accumulate inside so the tuning-time
/// experiments can read them back.
class ConfigEvaluator {
public:
  virtual ~ConfigEvaluator() = default;

  /// Relative improvement R of `cfg` over `base`: R > 1 means `cfg` is
  /// faster. (For time-based raters this is time(base)/time(cfg).)
  virtual double relative_improvement(const FlagConfig& base,
                                      const FlagConfig& cfg) = 0;

  /// True when `cfg` must not be measured at all (quarantined after
  /// deterministic failures). Search algorithms skip such candidates and
  /// emit a kQuarantined event instead of probing them.
  [[nodiscard]] virtual bool excluded(const FlagConfig& cfg) const {
    (void)cfg;
    return false;
  }

  /// Rate every candidate against `base`; result i corresponds to
  /// candidates[i]. The candidates of one call must be mutually
  /// independent (none depends on another's outcome) — exactly the shape
  /// of one elimination-search probe round, which searches always submit
  /// through here (an evaluator may fan them out or serve them from a
  /// cache). The default implementation is a serial
  /// relative_improvement() loop, so plain evaluators need not override
  /// it.
  virtual std::vector<double> rate_batch(
      const FlagConfig& base, const std::vector<FlagConfig>& candidates);
};

/// One structured decision made by a search algorithm (or by the tuning
/// driver's method-switching logic on top of it). Events replace the old
/// stringly `log`; `render(event)` reproduces the exact strings the log
/// used to carry, and the obs layer exports the structured form.
struct SearchEvent {
  enum class Kind {
    kRemove,       ///< IE: remove `flag` in `round`, measured `ratio`
    kStop,         ///< IE: no removal improves in `round`
    kHarmful,      ///< BatchElimination: `flag` flagged harmful
    kEnable,       ///< GreedyConstruction: `flag` enabled
    kCeRemove,     ///< CombinedElimination: `flag` removed outright
    kCeRevalidate, ///< CombinedElimination: `flag` removed on recheck
    kCeExhausted,  ///< CombinedElimination: nothing harmful in `round`
    kMainEffect,   ///< FactorialScreening: `flag`'s main effect harmful
    kDegenerate,   ///< FactorialScreening: regression degenerate
    kMethodChosen, ///< driver: rating method `flag` selected (round =
                   ///< position in the consultant's chain)
    kAbandoned,    ///< driver: method gave up; reason in `note`
    kQuarantined,  ///< candidate touching `flag` skipped: quarantined
    kNote,         ///< free text in `note`
  };
  Kind kind = Kind::kNote;
  std::size_t round = 0;
  std::string flag;    ///< flag or method name, when applicable
  double ratio = 0.0;  ///< measured R, when applicable
  std::string note;    ///< free text for kAbandoned / kNote

  friend bool operator==(const SearchEvent&, const SearchEvent&) = default;
};

/// Render one event exactly as the legacy string log did.
std::string render(const SearchEvent& event);

/// Stable identifier of an event kind ("remove", "method_chosen",
/// "quarantined", …) — used as the SSE event name on /events.
std::string_view to_string(SearchEvent::Kind kind);

/// One event as a single-line JSON object:
///   {"kind":"remove","round":2,"flag":"...","ratio":...,"note":"...",
///    "text":"round 2: remove ... (R=...)"}
/// ratio/note/flag appear only when set; "text" always carries
/// render(event) so stream consumers need no kind-specific formatting.
std::string to_json(const SearchEvent& event);

/// Append `event` to `events` AND publish it to the global obs event
/// ring, so a live `/events` SSE stream sees every search decision the
/// moment it is made. Publishing is never-blocking and in-memory (the
/// ring evicts when full); with no telemetry consumer attached the cost
/// is one mutex acquisition per decision, far off the per-invocation hot
/// path.
void record_event(std::vector<SearchEvent>& events, SearchEvent event);

/// Render a whole event stream (byte-compatible with the old log).
std::vector<std::string> render_search_log(
    const std::vector<SearchEvent>& events);

struct SearchResult {
  FlagConfig best;
  double improvement_over_start = 1.0;  ///< R of best vs the start config
  std::size_t configs_evaluated = 0;
  std::vector<SearchEvent> events;  ///< structured decision trace

  /// Legacy view of `events` (the old `log` member).
  [[nodiscard]] std::vector<std::string> render_log() const {
    return render_search_log(events);
  }
};

/// Rate `cfg` against `base` under an obs "probe" span carrying the
/// probed flag and the measured R. All search algorithms funnel their
/// evaluator calls through here. (The `search.configs_evaluated` counter
/// lives in the tuning driver's evaluator, so it also counts algorithms
/// that bypass this helper.)
double rate_config(ConfigEvaluator& evaluator, const FlagConfig& base,
                   const FlagConfig& cfg, std::string_view label = {});

/// One probe of an elimination-style search that rates candidates one at
/// a time (BatchElimination): if `candidate` is quarantined, record the
/// kQuarantined event on `result` and return nothing; otherwise rate it against `base`
/// (probe span, wall gate) and count it in `result.configs_evaluated`.
std::optional<double> probe_candidate(ConfigEvaluator& evaluator,
                                      SearchResult& result,
                                      const FlagConfig& base,
                                      const FlagConfig& candidate,
                                      std::string_view flag_name,
                                      std::size_t round);

/// Batched counterpart of a probe_candidate() loop over `flags`
/// (candidate = `base` with the flag turned off): quarantined candidates
/// get their kQuarantined events up front, the survivors go to the
/// evaluator as one rate_batch() call, and (flag, R) pairs come back in
/// canonical flag order. Moving the quarantine checks ahead of the
/// measurements cannot change what is skipped: a probe only ever
/// quarantines configurations it measured (the base or the candidate
/// itself), and no later candidate of the round equals either.
std::vector<std::pair<std::size_t, double>> probe_flags(
    ConfigEvaluator& evaluator, SearchResult& result,
    const OptimizationSpace& space, const FlagConfig& base,
    std::size_t round, const std::vector<std::size_t>& flags);

class SearchAlgorithm {
public:
  virtual ~SearchAlgorithm() = default;
  virtual SearchResult run(const OptimizationSpace& space,
                           ConfigEvaluator& evaluator,
                           const FlagConfig& start) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace peak::search
