// Seam fold: the streaming form of dsl::combine_k's left fold for the
// StructOps of Figure 3 (`stitch b`, `stitch2 d b1 b2`, `offset d b`).
//
// A StructOp reads only the seam between its operands — y1's last line
// against y2's first (stitch, stitch2), or y1's last non-empty line as the
// base every line of y2 is rewritten from (offset) — and leaves the rest of
// y1 untouched. So in the fold acc := g(acc, part), everything of acc before
// its last record is final the moment it is produced: a seam fold hands that
// settled prefix out after each part and carries forward only what the next
// seam reads, instead of re-copying and re-checking a whole-output
// accumulator on every fold.
//
// The fold is exact: the concatenation of every settled piece and finish()
// is byte-identical to combine_k(g, parts), and add() fails exactly on the
// part that makes combine_k undefined. That includes the rules the legal
// domain imposes on the accumulator itself: a single part passes through
// unchecked; a part that is exactly "\n" is exempt from the stitch2/offset
// operand check on its own but, concatenated into acc, leaves an empty line
// that makes the next stitch2 fold undefined; a combined seam line that
// falls outside the domain (a uniq -c count that outgrows its padding) ends
// the foldable prefix the same way.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dsl/ast.h"

namespace kq::dsl {

// True when dispatching `members` in order as a composite combiner
// (synth::CompositeCombiner::apply_k) is the seam fold of members.front():
// every member is an unswapped stitch, stitch2 or offset; all share the op,
// the delimiter and stitch2's/offset's b1; and they differ at most in the
// one leaf the operator only ever applies to two equal values — stitch's b
// on equal lines, stitch2's b2 on equal tails — where that leaf is `first`
// or `second` (both always legal, both the identity on equal values). So
// `(stitch first) | (stitch second)` (uniq) and `(stitch2 ' ' add first) |
// (stitch2 ' ' add second)` (uniq -c) qualify; RecOps, RunOps and swapped
// forms do not.
bool seam_foldable(const std::vector<Combiner>& members);

class SeamFold {
 public:
  // `g` must satisfy seam_foldable({g}).
  explicit SeamFold(Combiner g);

  // Folds the next part in (acc := g(acc, part)) and moves into `*settled`
  // the bytes of acc no later part can change, possibly none. Parts are
  // handed on by buffer: a settled piece is a previous part's own storage,
  // trimmed of its carried last line. Returns false when the fold is
  // undefined; the fold is then spent.
  bool add(std::string part, std::string* settled);

  // End of parts: the rest of the result (combine_k of no parts is "").
  std::string finish();

  // Bytes the fold has read: every part once (its legality check), the
  // carried record at every seam, and offset's rewritten lines. Linear in
  // the input, where a whole-output accumulator re-reads acc per fold.
  std::uint64_t bytes_read() const { return bytes_read_; }

  // Bytes held between calls: the part whose last record is the carry.
  std::size_t held_bytes() const { return pending_.size(); }

 private:
  bool line_ok(std::string_view line) const;
  bool lines_ok(std::string_view text) const;
  bool legal_part(std::string_view part);
  bool add_stitch(std::string part, std::string* settled);
  bool add_offset(std::string part, std::string* settled);
  void set_base(std::string_view text);

  Combiner g_;
  Combiner b1_;  // the RecOp child (stitch's b, stitch2's b1, offset's b)
  Combiner b2_;  // stitch2's b2
  bool lines_trivial_ = false;  // every line is legal: only is_stream counts
  std::size_t parts_ = 0;
  bool acc_legal_ = false;  // acc lies in L(g): a next fold may proceed
  // stitch/stitch2: acc's unsettled suffix, ending in acc's last record.
  // The first part waits here whole, since a lone part is the result as is.
  std::string pending_;
  // offset: acc's last non-empty line, the base of the next part's rewrite
  // (empty while acc has none).
  std::string base_;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace kq::dsl
