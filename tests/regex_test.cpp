// Tests for the BRE-subset engine, covering every pattern in the benchmark
// suite plus the generator used for preprocessing dictionaries; ReDoS
// regressions under a wall bound; and a seeded differential test of the
// compiled engines (lazy DFA, Pike VM, block-level grep) against the
// retained backtracker.

#include <gtest/gtest.h>

#include <chrono>
#include <random>

#include "bench_support/workloads.h"
#include "regex/regex.h"
#include "text/streams.h"
#include "text/strings.h"
#include "unixcmd/registry.h"

namespace kq::regex {
namespace {

bool matches(const std::string& pattern, const std::string& line) {
  auto re = Regex::compile(pattern);
  EXPECT_TRUE(re.has_value()) << "pattern failed to compile: " << pattern;
  return re && re->search(line);
}

TEST(Compile, RejectsBadPatterns) {
  EXPECT_FALSE(Regex::compile("[abc").has_value());
  EXPECT_FALSE(Regex::compile("\\(x").has_value());
  EXPECT_FALSE(Regex::compile("a\\").has_value());
}

TEST(Match, Literals) {
  EXPECT_TRUE(matches("1969", "in 1969 unix"));
  EXPECT_FALSE(matches("1969", "in 1970 unix"));
  EXPECT_TRUE(matches("AT&T", "from AT&T labs"));
}

TEST(Match, Dot) {
  EXPECT_TRUE(matches("light.light", "lightXlight"));
  EXPECT_FALSE(matches("light.light", "lightlight"));
}

TEST(Match, Star) {
  EXPECT_TRUE(matches("light.*light", "light and moonlight"));
  EXPECT_TRUE(matches("ab*c", "ac"));
  EXPECT_TRUE(matches("ab*c", "abbbc"));
  EXPECT_FALSE(matches("ab*c", "adc"));
}

TEST(Match, Anchors) {
  EXPECT_TRUE(matches("^....$", "word"));
  EXPECT_FALSE(matches("^....$", "words"));
  EXPECT_TRUE(matches("^0$", "0"));
  EXPECT_FALSE(matches("^0$", "10"));
  // '$' not at the end is a literal.
  EXPECT_TRUE(matches("a$b", "a$b"));
}

TEST(Match, BracketExpressions) {
  EXPECT_TRUE(matches("[KQRBN]", "Qxe5"));
  EXPECT_FALSE(matches("[KQRBN]", "exd5"));
  EXPECT_TRUE(matches("^[A-Z]", "Word"));
  EXPECT_FALSE(matches("^[A-Z]", "word"));
  EXPECT_TRUE(matches("[a-z]", "X y"));
}

TEST(Match, NegatedClass) {
  EXPECT_TRUE(matches("^[^aeiou]*$", "rhythm"));
  EXPECT_FALSE(matches("^[^aeiou]*$", "vowel"));
}

TEST(Match, VowelSandwich) {
  // poets 1syllable_words: ^[^aeiou]*[aeiou][^aeiou]*$
  const std::string p = "^[^aeiou]*[aeiou][^aeiou]*$";
  EXPECT_TRUE(matches(p, "cat"));
  EXPECT_TRUE(matches(p, "a"));
  EXPECT_FALSE(matches(p, "beer"));
  EXPECT_FALSE(matches(p, "audio"));
}

TEST(Match, EscapedDot) {
  EXPECT_TRUE(matches("\\.", "a.b"));
  EXPECT_FALSE(matches("\\.", "ab"));
}

TEST(Match, NamedClasses) {
  EXPECT_TRUE(matches("[[:digit:]]", "a1"));
  EXPECT_FALSE(matches("[[:digit:]]", "abc"));
  EXPECT_TRUE(matches("^[[:upper:]][[:lower:]]*$", "Hello"));
}

TEST(Match, Backreferences) {
  // oneliners nfa-regex: \(.\).*\1\(.\).*\2\(.\).*\3\(.\).*\4
  // The repeats are sequential: c1 ... c1 c2 ... c2 (verified against GNU
  // grep: "aabb" matches, "abab" does not).
  const std::string p = "\\(.\\).*\\1\\(.\\).*\\2";
  EXPECT_TRUE(matches(p, "aabb"));
  EXPECT_TRUE(matches(p, "xa_x_aybyb"));
  EXPECT_FALSE(matches(p, "abab"));
  EXPECT_FALSE(matches(p, "abcd"));
}

TEST(Match, FourfoldBackreference) {
  const std::string p =
      "\\(.\\).*\\1\\(.\\).*\\2\\(.\\).*\\3\\(.\\).*\\4";
  EXPECT_TRUE(matches(p, "aabbccdd"));
  EXPECT_TRUE(matches(p, "xxyyzzww"));
  EXPECT_FALSE(matches(p, "abcdabcd"));
  EXPECT_FALSE(matches(p, "abcdefgh"));
}

TEST(Match, GnuExtensions) {
  EXPECT_TRUE(matches("ab\\+c", "abbc"));
  EXPECT_FALSE(matches("ab\\+c", "ac"));
  EXPECT_TRUE(matches("ab\\?c", "ac"));
  EXPECT_TRUE(matches("cat\\|dog", "hotdog"));
  EXPECT_FALSE(matches("cat\\|dog", "bird"));
}

TEST(Find, ReportsLeftmostMatch) {
  auto re = Regex::compile("b+*");  // '*' after '+' literal: stays literal
  ASSERT_TRUE(re.has_value());
  auto re2 = Regex::compile("ab");
  auto m = re2->find("xxabyab");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 2u);
  EXPECT_EQ(m->end, 4u);
}

TEST(Find, GreedyStar) {
  auto re = Regex::compile("a.*b");
  auto m = re->find("aXbYb");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->begin, 0u);
  EXPECT_EQ(m->end, 5u);  // greedy reaches the last b
}

TEST(Replace, FirstOnly) {
  auto re = Regex::compile("o");
  EXPECT_EQ(re->replace("foo", "0"), "f0o");
}

TEST(Replace, Global) {
  auto re = Regex::compile("o");
  EXPECT_EQ(re->replace("foo", "0", /*global=*/true), "f00");
}

TEST(Replace, BackrefInReplacement) {
  // analytics-mts: sed 's/T\(..\):..:../,\1/'
  auto re = Regex::compile("T\\(..\\):..:..");
  EXPECT_EQ(re->replace("2020-01-05T08:31:22,v1", ",\\1"),
            "2020-01-05,08,v1");
}

TEST(Replace, WholeMatchAmpersand) {
  auto re = Regex::compile("ab");
  EXPECT_EQ(re->replace("ab", "[&]"), "[ab]");
}

TEST(Replace, EmptyMatchAtLineStart) {
  // sed "s;^;PREFIX;" prepends to the line.
  auto re = Regex::compile("^");
  EXPECT_EQ(re->replace("file.txt", "dir/"), "dir/file.txt");
}

TEST(Replace, DollarAppends) {
  // unix50: sed s/$/0s/ appends to each line.
  auto re = Regex::compile("$");
  EXPECT_EQ(re->replace("196", "0s"), "1960s");
}

TEST(Replace, NoEmptyMatchWhereThePreviousMatchEnded) {
  // GNU sed (LC_ALL=C) outputs: after "ttt" matches, the empty match of t*
  // at the 'b' is refused, so no second '-' lands before the 'b'.
  auto t_star = Regex::compile("t*");
  EXPECT_EQ(t_star->replace("atttb", "-", /*global=*/true), "-a-b-");
  auto x_star = Regex::compile("x*");
  EXPECT_EQ(x_star->replace("abc", "-", /*global=*/true), "-a-b-c-");
}

TEST(Generator, SamplesMatchPattern) {
  auto re = Regex::compile("light.light");
  auto samples = re->sample_matches(6, 42);
  ASSERT_FALSE(samples.empty());
  for (const std::string& s : samples) {
    EXPECT_TRUE(re->search(s)) << s;
    EXPECT_EQ(s.size(), 11u);
  }
}

TEST(Generator, SamplesDistinct) {
  auto re = Regex::compile("[a-z][a-z][a-z]");
  auto samples = re->sample_matches(8, 7);
  for (std::size_t i = 0; i < samples.size(); ++i)
    for (std::size_t j = i + 1; j < samples.size(); ++j)
      EXPECT_NE(samples[i], samples[j]);
}

TEST(Generator, HandlesBackrefs) {
  auto re = Regex::compile("\\(ab\\)x\\1");
  auto samples = re->sample_matches(2, 3);
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples[0], "abxab");
}

TEST(Generator, LiteralPattern) {
  auto re = Regex::compile("AT&T");
  auto samples = re->sample_matches(3, 1);
  ASSERT_EQ(samples.size(), 1u);  // only one distinct match exists
  EXPECT_EQ(samples[0], "AT&T");
}

// ------------------------------------------------------------ ReDoS --

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

TEST(ReDoS, NestedStarIsLinear) {
  // Exponential for a backtracker: every split of the a-run between the
  // inner and outer star is tried before giving up on the missing 'b'.
  auto re = Regex::compile("\\(a*\\)*b");
  ASSERT_TRUE(re.has_value());
  EXPECT_FALSE(re->has_backreferences());
  for (std::size_t n : {std::size_t{28}, std::size_t{100000}}) {
    const std::string line(n, 'a');
    auto start = Clock::now();
    EXPECT_FALSE(re->search(line));
    EXPECT_FALSE(re->find(line).has_value());
    EXPECT_EQ(re->replace(line, "x", true), line);
    EXPECT_LE(seconds_since(start), 1.0) << n << " a's";
  }
}

// A backreference keeps the pattern on the backtracker; the nested star in
// front of it makes the search exponential, so the budget must end it. The
// line holds the required literal "b", so the prefilter lets it through.
constexpr const char* kHostileBackref = "\\(a*\\)*\\1b";
const std::string kHostileLine = std::string(28, 'a') + "xb";

TEST(ReDoS, BackrefBudgetThrowsCodedError) {
  auto re = Regex::compile(kHostileBackref);
  ASSERT_TRUE(re.has_value());
  EXPECT_TRUE(re->has_backreferences());
  auto start = Clock::now();
  try {
    (void)re->search(kHostileLine);
    ADD_FAILURE() << "no budget error";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(std::string(e.what()).rfind("[KQ-REGEX]", 0), 0u) << e.what();
  }
  EXPECT_LE(seconds_since(start), 1.0);
}

TEST(ReDoS, BackrefDepthLimitThrowsCodedError) {
  // Each iteration of a repeated group nests continuation frames: a long
  // run of iterations must hit the depth limit instead of overflowing the
  // stack.
  auto re = Regex::compile("\\(a\\)*\\1b");
  ASSERT_TRUE(re.has_value());
  auto start = Clock::now();
  EXPECT_THROW((void)re->search(std::string(100000, 'a') + "b"),
               BudgetExceeded);
  EXPECT_LE(seconds_since(start), 1.0);
  // Short runs stay well inside both limits.
  EXPECT_TRUE(re->search("aaaab"));
}

// The budget is for blow-ups, not for long lines: backreference patterns
// that do polynomial work must still answer on 8 KiB lines.
TEST(ReDoS, BackrefPatternsAnswerOnLongLines) {
  const std::size_t n = 8 << 10;
  std::string letters;  // a..w: no 'x', no 'z'
  while (letters.size() < n) letters += "abcdefghijklmnopqrstuvw";
  letters.resize(n - 1);
  struct Case {
    const char* pattern;
    std::string line;
    bool match;
  };
  const Case cases[] = {
      // A repetition of a one-byte node costs one frame, not one per byte.
      {"\\(a\\).*\\1", "a" + std::string(n - 2, 'b') + "a", true},
      {"\\(a\\).*\\1", std::string(n, 'a'), true},
      {"\\(.\\)[a-z]*\\1$", letters + "a", true},
      // Non-matching lines that the relaxed DFA (each \N read as a copy
      // of group N) lets through: the backtracker does work quadratic in
      // the line length.
      {"\\(.\\).*\\1x", "x" + letters.substr(2) + "zx", false},
      {"\\([ab]\\)a*\\1c", std::string(n - 2, 'a') + "bc", false},
  };
  for (const Case& c : cases) {
    auto re = Regex::compile(c.pattern);
    ASSERT_TRUE(re.has_value()) << c.pattern;
    bool matched = false;
    ASSERT_NO_THROW(matched = re->search(c.line)) << c.pattern;
    EXPECT_EQ(matched, c.match) << c.pattern;
    if (c.match) {
      EXPECT_TRUE(re->find(c.line).has_value()) << c.pattern;
    }
  }
  // Through grep: selected, status 0.
  auto grep = cmd::make_command_line("grep '\\(a\\).*\\1'");
  ASSERT_NE(grep, nullptr);
  const std::string input = std::string(n, 'a') + "\n";
  cmd::Result r = grep->execute(input);
  EXPECT_EQ(r.status, 0) << r.err;
  EXPECT_EQ(r.out, input);
}

TEST(ReDoS, RelaxedDfaRulesOutLinesBeforeBacktracking) {
  // Read with \1 as a copy of its group, the pattern needs a 'b' after
  // the a's: the DFA answers for the line, the backtracker never runs
  // (it would need ~2·n² steps, well past the line's budget).
  auto re = Regex::compile("\\(a\\)a*\\1b");
  ASSERT_TRUE(re.has_value());
  const std::string line(100000, 'a');
  auto start = Clock::now();
  EXPECT_FALSE(re->search(line));
  EXPECT_FALSE(re->find(line).has_value());
  EXPECT_EQ(re->replace(line, "x", true), line);
  EXPECT_LE(seconds_since(start), 1.0);
}

TEST(ReDoS, GrepAndSedReportBudgetAsStatus2) {
  const std::string input = kHostileLine + "\n";
  for (const std::string& line :
       {std::string("grep '") + kHostileBackref + "'",
        std::string("grep -v '") + kHostileBackref + "'",
        std::string("sed 's/") + kHostileBackref + "/x/'"}) {
    auto cmd = cmd::make_command_line(line);
    ASSERT_NE(cmd, nullptr) << line;
    auto start = Clock::now();
    cmd::Result r = cmd->execute(input);
    EXPECT_LE(seconds_since(start), 1.0) << line;
    EXPECT_EQ(r.status, 2) << line;
    EXPECT_EQ(r.err.rfind("[KQ-REGEX]", 0), 0u) << line << ": " << r.err;
    // The runtime's path (Command::run) must not pass a partial answer on.
    EXPECT_THROW((void)cmd->run(input), cmd::CommandFailure) << line;
  }
}

TEST(ReDoS, CatalogBackrefPipelineStaysInBudget) {
  // oneliners/nfa-regex.sh over the catalog's own input: the budget is for
  // hostile patterns, never for the catalog's.
  auto re = Regex::compile(
      "\\(.\\).*\\1\\(.\\).*\\2\\(.\\).*\\3\\(.\\).*\\4");
  ASSERT_TRUE(re.has_value());
  vfs::Vfs fs;
  const std::string input = text::to_lower(
      bench::generate_workload(bench::Workload::kGutenberg, 256 << 10, 1, fs));
  for (std::string_view line : text::lines(input))
    ASSERT_NO_THROW((void)re->search(line)) << line;
}

// ------------------------------------------------------- differential --

// Random patterns over the parser's grammar, drawn from a small alphabet
// so that matches, near-misses and nested empty loops are all common.
// Backreference-free unless `backrefs`; then some atoms are \N, mostly to
// a group opened so far (closed, or still open around the \N), sometimes
// to one that does not exist.
class PatternGen {
 public:
  explicit PatternGen(std::uint64_t seed, bool backrefs = false)
      : rng_(seed), backrefs_(backrefs) {}

  std::string pattern() {
    groups_ = 0;
    return alternation(0);
  }

  std::string line(const std::string& literal) {
    std::string s;
    std::size_t len = pick(10) == 0 ? 100 + pick(300) : pick(14);
    while (s.size() < len) {
      if (!literal.empty() && pick(6) == 0)
        s += literal;
      else
        s.push_back("abcd.x"[pick(6)]);
    }
    return s;
  }

  std::size_t pick(std::size_t n) { return rng_() % n; }

 private:
  std::string alternation(int depth) {
    std::string s = branch(depth);
    if (depth < 3 && pick(5) == 0) s += "\\|" + branch(depth);
    return s;
  }

  std::string branch(int depth) {
    std::string s;
    if (pick(6) == 0) s += "^";
    std::size_t n = pick(4);
    for (std::size_t i = 0; i < n; ++i) s += piece(depth);
    if (pick(6) == 0) s += "$";
    return s;
  }

  std::string piece(int depth) {
    std::string s = atom(depth);
    switch (pick(6)) {
      case 0: s += "*"; break;
      case 1: s += "\\+"; break;
      case 2: s += "\\?"; break;
      default: break;
    }
    return s;
  }

  std::string atom(int depth) {
    if (backrefs_ && pick(5) == 0) {
      const std::size_t n = groups_ > 0 && pick(8) != 0
                                ? 1 + pick(static_cast<std::size_t>(groups_))
                                : 1 + pick(9);
      return "\\" + std::to_string(n);
    }
    switch (pick(depth < 3 ? 8 : 6)) {
      case 0: return ".";
      case 1: return pick(2) ? "[ab]" : "[^a]";
      case 2: return "\\.";
      case 6:
      case 7:
        if (groups_ < 9) {
          ++groups_;
          return "\\(" + alternation(depth + 1) + "\\)";
        }
        return "a";
      default: return std::string(1, "abc"[pick(3)]);
    }
  }

  std::mt19937_64 rng_;
  bool backrefs_;
  int groups_ = 0;
};

bool same_match(const std::optional<Match>& a, const std::optional<Match>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->begin == b->begin && a->end == b->end && a->groups == b->groups;
}

TEST(Differential, CompiledEnginesAgreeWithBacktracker) {
  PatternGen gen(20240611);
  std::size_t compared = 0, matched = 0, skipped = 0;
  for (int p = 0; p < 2500; ++p) {
    const std::string pattern = gen.pattern();
    auto re = Regex::compile(pattern);
    ASSERT_TRUE(re.has_value()) << pattern;
    ASSERT_FALSE(re->has_backreferences()) << pattern;
    auto reference = [&](std::string_view l, std::size_t from) {
      return re->backtrack_find(l, from);
    };
    for (int l = 0; l < 12; ++l) {
      const std::string line = gen.line(re->required_literal());
      try {
        auto expected = re->backtrack_find(line);
        ASSERT_EQ(re->search(line), expected.has_value())
            << "search /" << pattern << "/ on '" << line << "'";
        ASSERT_TRUE(same_match(re->find(line), expected))
            << "find /" << pattern << "/ on '" << line << "'";
        const std::size_t from = gen.pick(line.size() + 1);
        ASSERT_TRUE(same_match(re->find(line, from), re->backtrack_find(line, from)))
            << "find /" << pattern << "/ from " << from << " on '" << line << "'";
        for (bool global : {false, true}) {
          bool got_hit = false, want_hit = false;
          std::string got = re->replace(line, "<\\1&>", global, &got_hit);
          std::string want =
              substitute(line, "<\\1&>", global, &want_hit, reference);
          ASSERT_EQ(got, want) << "replace /" << pattern << "/ g=" << global
                               << " on '" << line << "'";
          ASSERT_EQ(got_hit, want_hit);
        }
        ++compared;
        matched += expected.has_value();
      } catch (const BudgetExceeded&) {
        ++skipped;  // the reference itself blew up (exponential pattern)
      }
    }
  }
  // The generator must exercise both outcomes, and the reference must
  // answer for nearly every case.
  EXPECT_GT(matched, compared / 5);
  EXPECT_LT(matched, compared * 4 / 5);
  EXPECT_LT(skipped, compared / 100);
}

TEST(Differential, RelaxedDfaNeverHidesABackrefMatch) {
  // A backreference pattern runs the DFA of its relaxed form first, and
  // the backtracker only on the lines that DFA accepts: answers must be
  // the backtracker's alone, for search, find and replace.
  PatternGen gen(20261017, /*backrefs=*/true);
  std::size_t compared = 0, matched = 0, skipped = 0;
  for (int p = 0; p < 2500; ++p) {
    const std::string pattern = gen.pattern();
    auto re = Regex::compile(pattern);
    ASSERT_TRUE(re.has_value()) << pattern;
    if (!re->has_backreferences()) continue;
    auto reference = [&](std::string_view l, std::size_t from) {
      return re->backtrack_find(l, from);
    };
    for (int l = 0; l < 12; ++l) {
      const std::string line = gen.line(re->required_literal());
      try {
        auto expected = re->backtrack_find(line);
        ASSERT_EQ(re->search(line), expected.has_value())
            << "search /" << pattern << "/ on '" << line << "'";
        ASSERT_TRUE(same_match(re->find(line), expected))
            << "find /" << pattern << "/ on '" << line << "'";
        for (bool global : {false, true}) {
          bool got_hit = false, want_hit = false;
          std::string got = re->replace(line, "<\\1&>", global, &got_hit);
          std::string want =
              substitute(line, "<\\1&>", global, &want_hit, reference);
          ASSERT_EQ(got, want) << "replace /" << pattern << "/ g=" << global
                               << " on '" << line << "'";
          ASSERT_EQ(got_hit, want_hit);
        }
        ++compared;
        matched += expected.has_value();
      } catch (const BudgetExceeded&) {
        ++skipped;
      }
    }
  }
  EXPECT_GT(compared, 5000u);
  EXPECT_GT(matched, compared / 5);
  EXPECT_LT(matched, compared * 4 / 5);
  EXPECT_LT(skipped, compared / 100);
}

TEST(Differential, RelaxedDfaKnownCases) {
  // Groups whose body cannot stand in for their backreference: an anchor
  // would assert at the wrong place, a backreference has no fixed
  // language; plus unset, nested and missing groups.
  for (const char* pattern :
       {"\\(^a\\)\\1", "\\(x\\|^\\)a\\1", "\\(a$\\)*b\\1",
        "\\(\\(a\\)\\2\\)\\1", "\\(a\\1\\)b", "\\(a\\)\\2",
        "\\(a\\)\\|\\1b", "\\(a\\(b\\)\\)*\\2", "\\(a*\\)\\1c",
        "\\([ab]\\)\\1\\+"}) {
    auto re = Regex::compile(pattern);
    ASSERT_TRUE(re.has_value()) << pattern;
    ASSERT_TRUE(re->has_backreferences()) << pattern;
    for (const char* line : {"", "a", "aa", "xax", "aab", "abab", "ababb",
                             "b", "bb", "aaaac", "xaa", "abba"}) {
      auto expected = re->backtrack_find(line);
      EXPECT_EQ(re->search(line), expected.has_value())
          << "/" << pattern << "/ on '" << line << "'";
      EXPECT_TRUE(same_match(re->find(line), expected))
          << "/" << pattern << "/ on '" << line << "'";
    }
  }
}

TEST(Differential, KnownCaptureCornerCases) {
  // Empty iterations are refused: \(\)\+ never matches, \(a*\)* leaves
  // the group unset rather than empty, and an inner empty star cannot
  // hide the outer iteration's progress.
  for (const char* pattern :
       {"\\(\\)\\+", "\\(a*\\)*", "a*\\(a*\\)\\+c", "\\(a*b*\\)*c",
        "\\(a\\|\\)*b", "\\(\\(a\\)\\|b\\)*", "\\(^a\\)*", "\\(a$\\)*",
        "x*\\(\\(a*\\)*b\\)\\+"}) {
    auto re = Regex::compile(pattern);
    ASSERT_TRUE(re.has_value()) << pattern;
    for (const char* line : {"", "a", "ab", "ac", "aac", "abab", "bab", "xaab"}) {
      EXPECT_TRUE(same_match(re->find(line), re->backtrack_find(line)))
          << pattern << " on '" << line << "'";
      EXPECT_EQ(re->search(line), re->backtrack_find(line).has_value())
          << pattern << " on '" << line << "'";
    }
  }
}

TEST(Differential, DfaCacheOverflowFallsBackToPike) {
  // "an a, then 14 more bytes" needs a DFA state per 15-byte window of a/b
  // history: far more states than the per-thread cache holds, so long
  // lines finish on the Pike VM mid-search. The answers must not change.
  std::string pattern = "a";
  for (int i = 0; i < 14; ++i) pattern += "[ab]";
  pattern += "$";
  auto re = Regex::compile(pattern);
  ASSERT_TRUE(re.has_value());
  std::mt19937_64 rng(5);
  for (int l = 0; l < 200; ++l) {
    std::string line;
    for (int i = 0; i < 400; ++i) line.push_back(rng() % 2 ? 'a' : 'b');
    if (l % 2) line[line.size() - 15] = 'b';
    ASSERT_EQ(re->search(line), re->backtrack_find(line).has_value()) << line;
  }
}

// The per-line grep the block scan replaced: every line searched on its
// own, selected lines re-terminated.
cmd::Result per_line_grep(const std::string& pattern, bool invert, bool count,
                          bool fold, std::string_view input) {
  auto re = Regex::compile(fold ? text::to_lower(pattern) : pattern);
  std::uint64_t selected = 0;
  std::string out;
  for (std::string_view line : text::lines(input)) {
    std::string lowered = fold ? text::to_lower(line) : std::string(line);
    if (re->backtrack_find(lowered).has_value() == invert) continue;
    ++selected;
    if (!count) {
      out += line;
      out.push_back('\n');
    }
  }
  if (count) out = std::to_string(selected) + "\n";
  return {out, selected > 0 ? 0 : 1, {}};
}

TEST(Differential, BlockGrepEqualsPerLineGrep) {
  for (bool backrefs : {false, true}) {
    PatternGen gen(backrefs ? 78 : 77, backrefs);
    int checked = 0;
    for (int p = 0; p < 600; ++p) {
      const std::string pattern = gen.pattern();
      if (pattern.find('\'') != std::string::npos) continue;
      auto re = Regex::compile(pattern);
      ASSERT_TRUE(re.has_value());
      std::string input;
      std::size_t nlines = gen.pick(12);
      for (std::size_t i = 0; i < nlines; ++i) {
        std::string line = gen.line(re->required_literal());
        if (gen.pick(4) == 0)
          for (char& c : line)
            if (c == 'a') c = 'A';  // -i folds these back
        input += line;
        input.push_back('\n');
      }
      if (gen.pick(3) == 0) input += gen.line(re->required_literal());
      for (const char* flags : {"", "-v", "-c", "-i", "-vc", "-vi"}) {
        const std::string f = flags;
        const bool invert = f.find('v') != std::string::npos;
        const bool count = f.find('c') != std::string::npos;
        const bool fold = f.find('i') != std::string::npos;
        auto grep = cmd::make_command_line("grep " + f + " '" + pattern + "'");
        ASSERT_NE(grep, nullptr) << pattern;
        cmd::Result want, got;
        try {
          want = per_line_grep(pattern, invert, count, fold, input);
        } catch (const BudgetExceeded&) {
          continue;
        }
        got = grep->execute(input);
        ASSERT_EQ(got.out, want.out) << "grep " << f << " '" << pattern
                                     << "' on:\n" << input;
        ASSERT_EQ(got.status, want.status) << "grep " << f << " '" << pattern;
        ++checked;
      }
    }
    EXPECT_GT(checked, 2000) << (backrefs ? "with" : "without")
                             << " backreferences";
  }
}

}  // namespace
}  // namespace kq::regex
