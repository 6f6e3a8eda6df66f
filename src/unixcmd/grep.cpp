// Built-in `grep` over the BRE engine. Flags: -v (invert), -c (count),
// -i (case-insensitive), combined forms (-vc, -vi, -vci). Exit status
// follows grep: 0 if any line selected, 1 otherwise, 2 when the pattern's
// backtracking budget ran out ([KQ-REGEX]).
//
// Matching is block-level: Regex::next_matching_line finds the matching
// lines of the whole record-aligned block (a memmem for the pattern's
// required literal, then a confirm of each line it hits). Selected lines —
// or with -v the unselected ones — leave in contiguous runs, one append
// per run. -i folds the block once into a reused buffer.

#include <algorithm>
#include <array>
#include <cctype>

#include "regex/regex.h"
#include "text/strings.h"
#include "unixcmd/builtins.h"

namespace kq::cmd {
namespace {

// std::tolower per byte, tabulated once: the fold of -i, identical to
// text::to_lower (the program never switches locale).
const std::array<char, 256>& lower_table() {
  static const std::array<char, 256> table = [] {
    std::array<char, 256> t{};
    for (int c = 0; c < 256; ++c) t[static_cast<std::size_t>(c)] =
        static_cast<char>(std::tolower(c));
    return t;
  }();
  return table;
}

class GrepCommand final : public Command {
 public:
  GrepCommand(std::string name, regex::Regex re, bool invert, bool count,
              bool fold)
      : Command(std::move(name)), re_(std::move(re)), invert_(invert),
        count_(count), fold_(fold) {}

  Result execute(std::string_view input) const override {
    std::string out, folded;
    std::size_t hits = 0;
    try {
      hits = scan(input, count_ ? nullptr : &out, folded);
    } catch (const regex::BudgetExceeded& e) {
      return Result::failure(std::move(out), e.what());
    }
    const std::size_t selected = invert_ ? count_lines(input) - hits : hits;
    if (count_) {
      out = std::to_string(selected);
      out.push_back('\n');
    }
    return {std::move(out), selected > 0 ? 0 : 1, {}};
  }

  // Appends the selected lines of one record-aligned block to *out (null
  // for -c) and returns how many lines the pattern matched. GNU grep
  // re-terminates a selected unterminated final line. Throws
  // regex::BudgetExceeded from a backreference pattern's backtracker.
  std::size_t scan(std::string_view block, std::string* out,
                   std::string& folded) const {
    std::string_view text = block;
    if (fold_) {
      const std::array<char, 256>& lower = lower_table();
      folded.resize(block.size());
      for (std::size_t i = 0; i < block.size(); ++i)
        folded[i] = lower[static_cast<unsigned char>(block[i])];
      text = folded;
    }
    const std::size_t n = text.size();
    auto emit = [&](std::size_t begin, std::size_t end) {
      if (begin >= end) return;
      out->append(block.substr(begin, end - begin));
      if (end == n && block[n - 1] != '\n') out->push_back('\n');
    };
    std::size_t hits = 0;
    // Non-inverted: the pending run of selected lines. Inverted: where the
    // pending run of unselected lines starts.
    std::size_t run_begin = 0, run_end = 0;
    std::size_t pos = 0;
    while (auto line = re_.next_matching_line(text, pos)) {
      ++hits;
      pos = line->end + 1;
      if (!out) continue;
      const std::size_t next = std::min(pos, n);
      if (invert_) {
        emit(run_begin, line->begin);
        run_begin = next;
      } else if (line->begin == run_end) {
        run_end = next;
      } else {
        emit(run_begin, run_end);
        run_begin = line->begin;
        run_end = next;
      }
    }
    if (out) {
      if (invert_)
        emit(run_begin, n);
      else
        emit(run_begin, run_end);
    }
    return hits;
  }

  // Plain grep is a pure per-line filter (GNU grep re-terminates a matched
  // unterminated final line, so even that case composes per block); -c
  // aggregates a global count and must see the whole input.
  Streamability streamability() const override {
    return count_ ? Streamability::kNone : Streamability::kPerRecord;
  }
  std::unique_ptr<StreamProcessor> stream_processor() const override;

  // grep exits 1 when it selects nothing: without -c exactly when its
  // output is empty, with -c when the one count it prints is 0.
  int exit_status(std::string_view output_prefix) const override {
    const bool selected =
        count_ ? output_prefix != "0\n" : !output_prefix.empty();
    return selected ? 0 : 1;
  }

 private:
  static std::size_t count_lines(std::string_view s) {
    std::size_t lines = static_cast<std::size_t>(
        std::count(s.begin(), s.end(), '\n'));
    return lines + (!s.empty() && s.back() != '\n' ? 1 : 0);
  }

  regex::Regex re_;
  bool invert_, count_, fold_;
};

// Scans each block straight into the node's output buffer; the fold
// buffer lives as long as the stream. A regex::BudgetExceeded propagates
// and fails the run with its coded message.
class GrepProcessor final : public StreamProcessor {
 public:
  explicit GrepProcessor(const GrepCommand& command) : command_(command) {}
  bool process(std::string_view block, std::string* out) override {
    command_.scan(block, out, folded_);
    return true;
  }

 private:
  const GrepCommand& command_;
  std::string folded_;
};

std::unique_ptr<StreamProcessor> GrepCommand::stream_processor() const {
  if (count_) return nullptr;
  return std::make_unique<GrepProcessor>(*this);
}

}  // namespace

CommandPtr make_grep(const Argv& argv, std::string* error) {
  bool invert = false, count = false, fold = false;
  std::string pattern;
  bool have_pattern = false;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (!have_pattern && a.size() >= 2 && a[0] == '-') {
      for (std::size_t j = 1; j < a.size(); ++j) {
        switch (a[j]) {
          case 'v': invert = true; break;
          case 'c': count = true; break;
          case 'i': fold = true; break;
          case 'e': break;  // -e PATTERN handled by position
          default:
            if (error) *error = "grep: unsupported flag";
            return nullptr;
        }
      }
    } else if (!have_pattern) {
      pattern = a;
      have_pattern = true;
    } else {
      if (error) *error = "grep: file operands not supported";
      return nullptr;
    }
  }
  if (!have_pattern) {
    if (error) *error = "grep: missing pattern";
    return nullptr;
  }
  // Case-insensitivity: we lower-case both the scanned line and the literal
  // characters of the pattern (classes already cover both cases or are
  // lowered the same way).
  std::string compiled_pattern = fold ? text::to_lower(pattern) : pattern;
  std::string err;
  auto re = regex::Regex::compile(compiled_pattern, &err);
  if (!re) {
    if (error) *error = "grep: bad pattern: " + err;
    return nullptr;
  }
  return std::make_shared<GrepCommand>(argv_to_display(argv), std::move(*re),
                                       invert, count, fold);
}

}  // namespace kq::cmd
