// A regular-expression engine for the POSIX BRE subset
// used by the paper's benchmark commands (`grep`, `sed s///`) plus the GNU
// extensions \+ \? \|.
//
// Supported syntax:
//   c          literal character
//   .          any character except newline
//   [abc]      bracket expression; ranges a-z; negation [^...];
//              character classes [:alpha:] [:digit:] [:punct:] [:space:]
//              [:upper:] [:lower:] [:alnum:]
//   *          zero or more of the previous atom (literal at branch start)
//   \+  \?     one-or-more / zero-or-one (GNU extensions)
//   \(..\)     capture group (up to 9)
//   \1..\9     backreference
//   \|         alternation (GNU extension)
//   ^  $       anchors at branch start / end (literal elsewhere)
//   \c         escaped literal
//
// Matching semantics are those of greedy backtracking: the leftmost match,
// and among matches starting there the first path in greedy order (one
// more repetition before fewer, the left alternative before the right; an
// iteration that matches empty is refused). This agrees with GNU grep/sed
// on every pattern in the benchmark suite.
//
// Engines. The pattern alone picks the engine; there is no flag.
//   - Every pattern has a required literal (possibly empty): the longest
//     string every match contains. search/find/replace first look for it
//     with memmem and answer "no match" without running any engine when it
//     is absent; next_matching_line, grep's block scan, looks for it over
//     a whole block and runs an engine only on the lines it hits.
//   - Without backreferences the AST is lowered to a Thompson NFA program.
//     search() runs a lazy DFA over it: one table lookup per byte once
//     its states are built. The state cache is per thread and capped, and
//     a search that would grow it past the cap finishes on the Pike VM.
//     find() and replace() run the Pike VM, whose thread priority
//     reproduces the backtracker's captures exactly.
//     Both are linear in the line length for every pattern: `\(a*\)*b`
//     cannot blow up. (compile() rejects a pattern with more than 64
//     repetitions whose body can match empty; see program.h.)
//   - With a backreference the AST runs on the greedy backtracker. First a
//     lazy DFA over the pattern with each \N read as a copy of group N
//     (which matches wherever the original does) rules out the lines that
//     cannot match. The backtracker runs under a budget of
//     kBacktrackStepBudget steps per start position, a per-line budget
//     that grows with the line's length, and a recursion depth of
//     kBacktrackDepthLimit frames (backtrack.cpp says what counts).
//     Exhausting either throws BudgetExceeded, whose message is a coded
//     "[KQ-REGEX] ..." diagnostic; grep and sed report it as exit status
//     2, and the runtime fails the run with it. Nothing hangs and nothing
//     silently fails to match.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace kq::regex {

namespace detail {
struct Node;
struct Program;
}

// Budget of the backtracker (backreference patterns only; backtrack.cpp
// says what a step is). A start position may take kBacktrackStepBudget
// steps: an exponential blow-up fails within a few milliseconds. A line of
// n bytes may take kBacktrackStepBudget + kBacktrackStepsPerByte·n in all;
// at n = 8 KiB that is twice the 2·n² steps a quadratic pattern such as
// `\([ab]\)a*\1c` takes on a non-matching line (1.2 s on one x86-64 core
// at -O2). Nesting is capped at kBacktrackDepthLimit frames: about 1 MiB
// of stack (3 MiB under ASan), measured at 230 bytes a frame at -O2; a
// repeated group nests about four frames per iteration.
constexpr std::uint64_t kBacktrackStepBudget = 1u << 20;
constexpr std::uint64_t kBacktrackStepsPerByte = 1u << 15;
constexpr std::size_t kBacktrackDepthLimit = 1u << 12;

// The backtracker ran out of its budget; what() is "[KQ-REGEX] ...".
class BudgetExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A successful match: [begin,end) of the whole match plus capture groups.
struct Match {
  std::size_t begin = 0;
  std::size_t end = 0;
  // groups[i] is the i-th capture (1-based like \1); npos pair if unset.
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  std::array<std::pair<std::size_t, std::size_t>, 10> groups{};
  int group_count = 0;

  std::string_view group(std::string_view text, int i) const {
    auto [b, e] = groups[static_cast<std::size_t>(i)];
    if (b == kNpos) return {};
    return text.substr(b, e - b);
  }
};

class Regex {
 public:
  Regex(Regex&&) noexcept;
  Regex& operator=(Regex&&) noexcept;
  ~Regex();

  // Compiles `pattern`; returns nullopt and sets *error on syntax errors.
  static std::optional<Regex> compile(std::string_view pattern,
                                      std::string* error = nullptr);

  // True iff the pattern matches anywhere in `line` (grep semantics; `line`
  // must not contain the trailing newline).
  bool search(std::string_view line) const;

  // Leftmost match starting at or after `from`, or nullopt.
  std::optional<Match> find(std::string_view line, std::size_t from = 0) const;

  // sed `s///` semantics: replaces the first (or, with `global`, every
  // non-overlapping) match with `replacement`, where `\1`..`\9` and `&`
  // refer to captures / the whole match. Sets *replaced if any change.
  std::string replace(std::string_view line, std::string_view replacement,
                      bool global = false, bool* replaced = nullptr) const;

  // find() on the backtracker whatever the pattern: the engine for
  // backreferences, and the reference the compiled engines must agree
  // with. Throws BudgetExceeded like find().
  std::optional<Match> backtrack_find(std::string_view line,
                                      std::size_t from = 0) const;

  // grep's block scan. `block` holds '\n'-terminated lines (the last may
  // be unterminated) and `from` is a line start. Returns the first line at
  // or after `from` that the pattern matches, as [begin, end) without its
  // '\n', or nullopt. The required literal is looked for over the whole
  // block, so lines without it are never visited one by one.
  struct LineSpan {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::optional<LineSpan> next_matching_line(std::string_view block,
                                             std::size_t from = 0) const;

  // The longest string every match contains ("" when none is known): the
  // prefilter's key.
  const std::string& required_literal() const { return literal_; }

  bool has_backreferences() const { return program_ == nullptr; }

  // Generates up to `count` distinct strings matching the pattern, for the
  // preprocessing dictionary (§3.2 "Preprocessing"). Backreference-free
  // parts are sampled structurally; stars sample 0..3 repetitions.
  std::vector<std::string> sample_matches(std::size_t count,
                                          std::uint64_t seed) const;

  const std::string& pattern() const { return pattern_; }
  int group_count() const { return group_count_; }

 private:
  Regex();
  bool contains_literal(std::string_view text) const;
  // search() on a line known to contain the required literal.
  bool confirm(std::string_view line) const;

  std::string pattern_;
  std::shared_ptr<detail::Node> root_;  // alternation of branches
  // The compiled NFA; null when the pattern has a backreference.
  std::shared_ptr<const detail::Program> program_;
  // With a backreference: the NFA of detail::relax_backrefs, whose DFA
  // rules out lines before the backtracker runs (may be null).
  std::shared_ptr<const detail::Program> relaxed_;
  std::string literal_;
  bool literal_exact_ = false;
  int group_count_ = 0;
  friend struct detail::Node;
};

// The sed substitution loop over any leftmost-match function (Regex::find,
// or Regex::backtrack_find in the differential tests): replaces the first
// or, with `global`, every non-overlapping match; an empty match copies the
// next byte to make progress, and one right where the previous match ended
// is skipped, as GNU sed does.
using FindFn =
    std::function<std::optional<Match>(std::string_view, std::size_t)>;
std::string substitute(std::string_view line, std::string_view replacement,
                       bool global, bool* replaced, const FindFn& find);

}  // namespace kq::regex
