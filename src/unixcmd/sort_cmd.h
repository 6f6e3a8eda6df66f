// Built-in `sort` and the comparator/merge machinery shared with the DSL's
// `merge <flags>` combiner (§3.5: merge is "sort -m <flags>").
//
// Supported flags, with GNU `LC_ALL=C sort` semantics: -n (numeric), -r
// (reverse), -f (fold case), -d (dictionary order), -b (ignore leading
// blanks), -u (unique), -s/--stable (no last-resort comparison), -m (merge
// mode), -kF[opts][,G[opts]] key specs whose opts are any of n r f d b
// (-k1n, -k1,1, -k2, -k2b, -k2,2n -k1,1r), and --parallel=N (accepted,
// ignored — the evaluation infrastructure forces serial sort just like the
// paper's, §4).
//
// Keys follow GNU: a field is a blank run plus the non-blank run after it,
// so without `b` the key for field N>1 starts at the blanks before the
// field, and field 1 keeps the line's leading blanks. A key with no
// options of its own inherits every global ordering option (n r f d b); a
// key with any of its own inherits none. With no -k and a global n/f/d/b,
// the whole line is the one key.
//
// Every sort, merge and legality check compares KeyedLine records: the
// first key is extracted (and, for a numeric key, parsed) once per record
// by keyed(), and later keys only on ties.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "unixcmd/builtins.h"

namespace kq::cmd {

struct SortKey {
  int start_field = 1;   // 1-based
  int end_field = 0;     // 0 = through end of line
  bool numeric = false;
  bool reverse = false;
  bool fold = false;
  bool dictionary = false;
  bool blank_start = false;  // `b` on the start position: skip its blanks
  bool blank_end = false;    // `b` on the end position (no effect without
                             // character offsets, but it is an option)
};

// One record decorated with its first sort key (with no key: the whole
// line, compared bytewise). Offsets are relative to `line`, so a copy can
// be re-pointed at a copy of the line's bytes. Trivially copyable; 32
// bytes.
struct KeyedLine {
  std::string_view line;
  // The key's bytes, [key_off, key_off + key_len) of `line`. For a
  // numeric key: its integer digits without leading zeros.
  std::uint32_t key_off = 0;
  std::uint32_t key_len = 0;
  union {
    // A bytewise key: its first 8 bytes, big-endian and zero-padded,
    // which settle most compares without touching the line.
    std::uint64_t prefix = 0;
    // A numeric key: its fraction digits without trailing zeros, which
    // start just past the '.' after the integer digits, and its sign
    // (never negative for a zero).
    struct {
      std::uint32_t frac_len;
      bool negative;
    } number;
  };
};

// `key` re-pointed at `line`, a copy of the bytes it was extracted from
// (windows and spill cursors keep keys beside their own copies of lines).
inline KeyedLine rebased(KeyedLine key, std::string_view line) {
  key.line = line;
  return key;
}

class SortSpec {
 public:
  // Parses sort flags (argv without the program name). Returns nullopt on
  // unsupported flags.
  static std::optional<SortSpec> parse(const std::vector<std::string>& flags,
                                       std::string* error = nullptr);

  // Decorates `line` with its first key. Throws std::length_error for a
  // line of 4 GiB or more.
  KeyedLine keyed(std::string_view line) const;

  // Three-way comparison in output order: the keys, then (unless -u or -s)
  // the whole line bytewise, reversed under a global -r.
  int compare(const KeyedLine& a, const KeyedLine& b) const;
  int compare(std::string_view a, std::string_view b) const {
    return compare(keyed(a), keyed(b));
  }

  // Sorts the lines of stream `input` (uniq-filtering if -u).
  std::string sort_stream(std::string_view input) const;

  // Merges k pre-sorted streams stably (`sort -m`); streams that are not
  // sorted produce the same garbage real sort -m would, so callers check
  // sortedness for legality first (see dsl::domain).
  std::string merge_streams(const std::vector<std::string_view>& streams) const;

  // True iff the lines of `input` are already in output order.
  bool is_sorted_stream(std::string_view input) const;

  bool unique() const { return unique_; }
  bool merge_mode() const { return merge_mode_; }
  const std::string& canonical_flags() const { return canonical_flags_; }

 private:
  int compare_later_keys(std::string_view a, std::string_view b) const;

  bool reverse_ = false;  // global -r: applies to the last-resort compare
  bool unique_ = false;
  bool merge_mode_ = false;
  bool stable_only_ = false;  // -s: no last-resort comparison
  std::vector<SortKey> keys_;  // effective keys, global options inherited
  std::string canonical_flags_;
};

// The k-way merge of §3.5 over keyed heads: a binary min-heap of (head,
// source) ordered by SortSpec::compare, ties to the lower source index —
// `sort -m`'s stable earlier-file-first order. The caller owns the
// sources and re-keys a source's head when it advances; a head's line
// must stay valid while it is in the heap.
class KeyedMerge {
 public:
  explicit KeyedMerge(const SortSpec& spec) : spec_(&spec) {}

  void add(std::size_t source, const KeyedLine& head);
  bool empty() const { return heap_.empty(); }
  const KeyedLine& top() const { return heap_.front().head; }
  std::size_t top_source() const { return heap_.front().source; }
  // The top source advanced to `head`.
  void replace_top(const KeyedLine& head);
  // The top source is exhausted.
  void pop_top();

 private:
  struct Entry {
    KeyedLine head;
    std::size_t source;
  };
  bool before(const Entry& a, const Entry& b) const;
  void sift_down(std::size_t i);

  const SortSpec* spec_;
  std::vector<Entry> heap_;
};

CommandPtr make_sort_command(const Argv& argv, std::string* error);

// The SortSpec behind a built-in `sort` command instance, or nullptr when
// `command` is not one. Lets the streaming runtime (stream/spill.*) run a
// sequential sort stage as an external merge sort — spec->sort_stream is
// the command's exact semantics, so spilled sorted runs re-merged under the
// same comparator reproduce its output byte-for-byte.
std::shared_ptr<const SortSpec> sort_spec_of(const Command& command);

}  // namespace kq::cmd
