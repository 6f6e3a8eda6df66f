// Tests for the combiner DSL: sizes, printing, legal domains, the big-step
// semantics of every operator (Figure 6), candidate enumeration (including
// the paper's exact space sizes), k-way generalization, and the seam fold
// that streams the StructOps' k-way fold.

#include <gtest/gtest.h>

#include <random>

#include "dsl/domain.h"
#include "dsl/enumerate.h"
#include "dsl/eval.h"
#include "dsl/kway.h"
#include "dsl/seam.h"
#include "synth/composite.h"
#include "unixcmd/registry.h"

namespace kq::dsl {
namespace {

std::optional<std::string> ev(const Combiner& g, std::string_view y1,
                              std::string_view y2) {
  return eval(g, y1, y2);
}

// ------------------------------------------------------------- size -----

TEST(Size, MatchesPaperExamples) {
  // Example 2 of the appendix: |add| = 3, |fbfa| = 6, |saf| = 5.
  EXPECT_EQ(size(combiner_add()), 3);
  Combiner fbfa{make_unary(Op::kFront, ' ',
                           make_unary(Op::kBack, ',',
                                      make_unary(Op::kFuse, '\t',
                                                 make_leaf(Op::kAdd)))),
                false, nullptr, ""};
  EXPECT_EQ(size(fbfa), 6);
  EXPECT_EQ(size(combiner_stitch2_add_first(' ')), 5);
}

TEST(Size, OtherRepresentatives) {
  EXPECT_EQ(size(combiner_concat()), 3);
  EXPECT_EQ(size(combiner_back_add('\n')), 4);
  EXPECT_EQ(size(combiner_stitch_first()), 4);
  EXPECT_EQ(size(combiner_offset_add(' ')), 4);
  EXPECT_EQ(size(combiner_rerun()), 3);
}

// ------------------------------------------------------------ printing --

TEST(Print, Table10Style) {
  EXPECT_EQ(to_string(combiner_concat()), "(concat a b)");
  EXPECT_EQ(to_string(swapped(combiner_concat())), "(concat b a)");
  EXPECT_EQ(to_string(combiner_back_add('\n')), "((back '\\n' add) a b)");
  EXPECT_EQ(to_string(combiner_stitch2_add_first(' ')),
            "((stitch2 ' ' add first) a b)");
  EXPECT_EQ(to_string(combiner_merge("-rn")), "(merge('-rn') a b)");
  EXPECT_EQ(to_string(combiner_rerun()), "(rerun a b)");
}

TEST(Print, Classification) {
  EXPECT_EQ(combiner_concat().cls(), OpClass::kRec);
  EXPECT_EQ(combiner_stitch_first().cls(), OpClass::kStruct);
  EXPECT_EQ(combiner_merge("").cls(), OpClass::kRun);
}

// -------------------------------------------------------------- domains --

TEST(Domain, Add) {
  EXPECT_TRUE(legal(combiner_add(), "042"));
  EXPECT_FALSE(legal(combiner_add(), ""));
  EXPECT_FALSE(legal(combiner_add(), "42\n"));
}

TEST(Domain, BackAdd) {
  EXPECT_TRUE(legal(combiner_back_add('\n'), "42\n"));
  EXPECT_FALSE(legal(combiner_back_add('\n'), "4\n2\n"));
  EXPECT_FALSE(legal(combiner_back_add('\n'), "42"));
}

TEST(Domain, Fuse) {
  Combiner fa = combiner_fuse_add(' ');
  EXPECT_TRUE(legal(fa, "1 2 3"));
  EXPECT_FALSE(legal(fa, "123"));     // k must be >= 2
  EXPECT_FALSE(legal(fa, " 1 2"));    // first element empty
  EXPECT_FALSE(legal(fa, "1 2 "));    // last element empty
  EXPECT_FALSE(legal(fa, "1 x"));     // element outside L(add)
}

TEST(Domain, Stitch2RequiresPaddedTable) {
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_TRUE(legal(saf, "      2 apple\n      1 pear\n"));
  EXPECT_FALSE(legal(saf, "2 apple\n"));   // no padding
  EXPECT_FALSE(legal(saf, "      x apple\n"));  // head not numeric
  EXPECT_TRUE(legal(saf, "\n"));
}

TEST(Domain, OffsetAcceptsUnpaddedLines) {
  Combiner oa = combiner_offset_add(' ');
  EXPECT_TRUE(legal(oa, "3 file1\n10 file2\n"));
  EXPECT_TRUE(legal(oa, "3 a\n\n4 b\n"));  // nil lines allowed
  EXPECT_FALSE(legal(oa, "x file\n"));
}

TEST(Domain, MergeRequiresSortedInput) {
  Combiner m = combiner_merge("");
  EXPECT_TRUE(legal(m, "a\nb\n"));
  EXPECT_FALSE(legal(m, "b\na\n"));
  EXPECT_TRUE(legal(m, ""));
}

// ------------------------------------------------------------ semantics --

TEST(Eval, AddCanonicalizes) {
  EXPECT_EQ(ev(combiner_add(), "2", "3").value(), "5");
  EXPECT_EQ(ev(combiner_add(), "09", "1").value(), "10");
  EXPECT_FALSE(ev(combiner_add(), "x", "1").has_value());
}

TEST(Eval, ConcatFirstSecond) {
  EXPECT_EQ(ev(combiner_concat(), "ab", "cd").value(), "abcd");
  EXPECT_EQ(ev(combiner_first(), "ab", "cd").value(), "ab");
  EXPECT_EQ(ev(combiner_second(), "ab", "cd").value(), "cd");
}

TEST(Eval, SwappedArguments) {
  EXPECT_EQ(ev(swapped(combiner_concat()), "ab", "cd").value(), "cdab");
  EXPECT_EQ(ev(swapped(combiner_first()), "ab", "cd").value(), "cd");
}

TEST(Eval, FrontBack) {
  Combiner fc = combiner_front_concat(',');
  EXPECT_EQ(ev(fc, ",ab", ",cd").value(), ",abcd");
  EXPECT_FALSE(ev(fc, "ab", ",cd").has_value());

  Combiner ba = combiner_back_add('\n');
  EXPECT_EQ(ev(ba, "2\n", "40\n").value(), "42\n");
  EXPECT_FALSE(ev(ba, "2", "40\n").has_value());
}

TEST(Eval, WcCombinerShape) {
  // wc -l: (back '\n' add) combines the two counts.
  Combiner ba = combiner_back_add('\n');
  EXPECT_EQ(ev(ba, "3\n", "4\n").value(), "7\n");
}

TEST(Eval, FusePiecewise) {
  // wc (multi-column) shape: fuse applies add per column.
  Combiner fa = combiner_fuse_add(' ');
  EXPECT_EQ(ev(fa, "1 2 3", "10 20 30").value(), "11 22 33");
  EXPECT_FALSE(ev(fa, "1 2", "1 2 3").has_value());  // mismatched k
}

TEST(Eval, NestedBackFuse) {
  Combiner bfa{make_unary(Op::kBack, '\n',
                          make_unary(Op::kFuse, ' ', make_leaf(Op::kAdd))),
               false, nullptr, ""};
  EXPECT_EQ(ev(bfa, "1 2\n", "3 4\n").value(), "4 6\n");
}

TEST(Eval, StitchMergesEqualBoundaryLines) {
  // uniq: (stitch first).
  Combiner sf = combiner_stitch_first();
  EXPECT_EQ(ev(sf, "a\nb\n", "b\nc\n").value(), "a\nb\nc\n");
}

TEST(Eval, StitchConcatenatesDistinctBoundaryLines) {
  Combiner sf = combiner_stitch_first();
  EXPECT_EQ(ev(sf, "a\nb\n", "c\nd\n").value(), "a\nb\nc\nd\n");
}

TEST(Eval, StitchSingleLineOperands) {
  Combiner sf = combiner_stitch_first();
  EXPECT_EQ(ev(sf, "b\n", "b\n").value(), "b\n");
  EXPECT_EQ(ev(sf, "a\n", "b\n").value(), "a\nb\n");
}

TEST(Eval, StitchEmptyLineStream) {
  Combiner sf = combiner_stitch_first();
  EXPECT_EQ(ev(sf, "\n", "a\n").value(), "\na\n");
}

TEST(Eval, Stitch2CombinesCounts) {
  // uniq -c: (stitch2 ' ' add first). Boundary rows with the same word
  // merge, counts add, padding stays aligned to the left column.
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(
      ev(saf, "      2 apple\n      1 pear\n", "      3 pear\n      1 fig\n")
          .value(),
      "      2 apple\n      4 pear\n      1 fig\n");
}

TEST(Eval, Stitch2DistinctTailsConcatenate) {
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(ev(saf, "      1 a\n", "      1 b\n").value(),
            "      1 a\n      1 b\n");
}

TEST(Eval, Stitch2PaddingShrinksWithWiderCounts) {
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(ev(saf, "      9 x\n", "      9 x\n").value(), "     18 x\n");
}

TEST(Eval, OffsetAdjustsFirstFields) {
  // xargs -L1 wc -l shape with add: offset line counts.
  Combiner oa = combiner_offset_add(' ');
  EXPECT_EQ(ev(oa, "5 f1\n", "3 f2\n1 f3\n").value(), "5 f1\n8 f2\n6 f3\n");
}

TEST(Eval, OffsetSecondIsConcat) {
  Combiner os{make_unary(Op::kOffset, ' ', make_leaf(Op::kSecond)), false,
              nullptr, ""};
  EXPECT_EQ(ev(os, "5 f1\n", "3 f2\n").value(), "5 f1\n3 f2\n");
}

TEST(Eval, MergeInterleavesSorted) {
  Combiner m = combiner_merge("");
  EXPECT_EQ(ev(m, "a\nc\n", "b\nd\n").value(), "a\nb\nc\nd\n");
  EXPECT_FALSE(ev(m, "c\na\n", "b\n").has_value());
}

TEST(Eval, MergeNumericFlags) {
  Combiner m = combiner_merge("-n");
  EXPECT_EQ(ev(m, "2\n10\n", "3\n").value(), "2\n3\n10\n");
}

TEST(Eval, RerunInvokesCommand) {
  cmd::CommandPtr sort = cmd::make_command_line("sort");
  ASSERT_NE(sort, nullptr);
  EvalContext ctx{sort.get()};
  EXPECT_EQ(eval(combiner_rerun(), "b\n", "a\n", ctx).value(), "a\nb\n");
  EXPECT_FALSE(eval(combiner_rerun(), "b\n", "a\n", {}).has_value());
}

// ---------------------------------------------------------- enumeration --

TEST(Enumerate, PaperSpaceSizesExactly) {
  // Table 10: 2700 = 968 + 1728 + 4 (one delimiter), 26404 = 12440 +
  // 13960 + 4 (two), 110444 = 59048 + 51392 + 4 (three).
  SpaceCounts d1 = count_candidates(1, 5);
  EXPECT_EQ(d1.rec, 968u);
  EXPECT_EQ(d1.strct, 1728u);
  EXPECT_EQ(d1.run, 4u);
  EXPECT_EQ(d1.total(), 2700u);

  SpaceCounts d2 = count_candidates(2, 5);
  EXPECT_EQ(d2.rec, 12440u);
  EXPECT_EQ(d2.strct, 13960u);
  EXPECT_EQ(d2.total(), 26404u);

  SpaceCounts d3 = count_candidates(3, 5);
  EXPECT_EQ(d3.rec, 59048u);
  EXPECT_EQ(d3.strct, 51392u);
  EXPECT_EQ(d3.total(), 110444u);
}

TEST(Enumerate, GeneratorMatchesClosedForm) {
  for (std::size_t d = 1; d <= 3; ++d) {
    SpaceSpec spec;
    spec.delims.assign(kDelims, kDelims + d);
    CandidateSpace space = enumerate_candidates(spec);
    SpaceCounts counts = count_candidates(d, spec.max_ops);
    EXPECT_EQ(space.rec_count, counts.rec) << "D=" << d;
    EXPECT_EQ(space.struct_count, counts.strct) << "D=" << d;
    EXPECT_EQ(space.run_count, counts.run) << "D=" << d;
    EXPECT_EQ(space.candidates.size(), counts.total()) << "D=" << d;
  }
}

TEST(Enumerate, AllCandidatesWithinSizeBound) {
  SpaceSpec spec;
  spec.delims = {'\n', ' '};
  CandidateSpace space = enumerate_candidates(spec);
  for (const Combiner& g : space.candidates)
    EXPECT_LE(size(g), spec.max_ops + 2) << to_string(g);
}

TEST(Enumerate, CandidatesAreDistinct) {
  SpaceSpec spec;  // one delimiter: 2700 candidates
  CandidateSpace space = enumerate_candidates(spec);
  std::set<std::string> seen;
  for (const Combiner& g : space.candidates)
    EXPECT_TRUE(seen.insert(to_string(g)).second) << to_string(g);
}

// ---------------------------------------------------------------- k-way --

TEST(KWay, ConcatJoins) {
  EXPECT_EQ(combine_k(combiner_concat(), {"a\n", "b\n", "c\n"}).value(),
            "a\nb\nc\n");
}

TEST(KWay, MergeAllAtOnce) {
  EXPECT_EQ(combine_k(combiner_merge(""), {"a\nd\n", "b\n", "c\ne\n"}).value(),
            "a\nb\nc\nd\ne\n");
}

TEST(KWay, RerunConcatenatesOnceThenRuns) {
  cmd::CommandPtr sort = cmd::make_command_line("sort");
  EvalContext ctx{sort.get()};
  EXPECT_EQ(combine_k(combiner_rerun(), {"c\n", "a\n", "b\n"}, ctx).value(),
            "a\nb\nc\n");
}

TEST(KWay, PairwiseFoldForStructOps) {
  Combiner saf = combiner_stitch2_add_first(' ');
  EXPECT_EQ(combine_k(saf, {"      1 x\n", "      1 x\n", "      1 x\n"})
                .value(),
            "      3 x\n");
}

TEST(KWay, SingletonAndEmpty) {
  EXPECT_EQ(combine_k(combiner_concat(), {}).value(), "");
  EXPECT_EQ(combine_k(combiner_stitch_first(), {"a\n"}).value(), "a\n");
}

// ----------------------------------------------------------- seam fold --

Combiner with_leaf(Op op, char d, Op b1, Op b2 = Op::kFirst) {
  if (op == Op::kStitch)
    return {make_stitch(make_leaf(b1)), false, nullptr, ""};
  if (op == Op::kStitch2)
    return {make_stitch2(d, make_leaf(b1), make_leaf(b2)), false, nullptr, ""};
  return {make_unary(op, d, make_leaf(b1)), false, nullptr, ""};
}

TEST(SeamFold, FoldableCompositesFollowTheTree) {
  const Combiner sf = with_leaf(Op::kStitch, 0, Op::kFirst);
  const Combiner ss = with_leaf(Op::kStitch, 0, Op::kSecond);
  const Combiner saf = with_leaf(Op::kStitch2, ' ', Op::kAdd, Op::kFirst);
  const Combiner sas = with_leaf(Op::kStitch2, ' ', Op::kAdd, Op::kSecond);
  EXPECT_TRUE(seam_foldable({sf, ss}));   // uniq
  EXPECT_TRUE(seam_foldable({saf, sas}));  // uniq -c
  EXPECT_TRUE(seam_foldable({combiner_offset_add(' ')}));
  EXPECT_TRUE(seam_foldable({with_leaf(Op::kStitch, 0, Op::kAdd)}));
  // b1 meets two different counts, and offset's b two different fields.
  EXPECT_FALSE(seam_foldable(
      {saf, with_leaf(Op::kStitch2, ' ', Op::kSecond, Op::kFirst)}));
  EXPECT_FALSE(seam_foldable(
      {combiner_offset_add(' '), with_leaf(Op::kOffset, ' ', Op::kSecond)}));
  // A leaf on equal values that is not the identity there.
  EXPECT_FALSE(seam_foldable(
      {saf, with_leaf(Op::kStitch2, ' ', Op::kAdd, Op::kConcat)}));
  EXPECT_FALSE(seam_foldable({sf, with_leaf(Op::kStitch, 0, Op::kAdd)}));
  EXPECT_FALSE(seam_foldable({saf, with_leaf(Op::kStitch2, '\t', Op::kAdd)}));
  EXPECT_FALSE(seam_foldable({sf, saf}));
  EXPECT_FALSE(seam_foldable({swapped(sf)}));
  EXPECT_FALSE(seam_foldable({combiner_add()}));
  EXPECT_FALSE(seam_foldable({combiner_concat()}));
  EXPECT_FALSE(seam_foldable({combiner_merge("")}));
  EXPECT_FALSE(seam_foldable({}));
}

// The seam fold over `parts`: every settled piece, then finish().
std::optional<std::string> seam_result(const Combiner& g,
                                       const std::vector<std::string>& parts) {
  SeamFold fold(g);
  std::string out, settled;
  for (const std::string& p : parts) {
    if (!fold.add(p, &settled)) return std::nullopt;
    out += settled;
  }
  return out + fold.finish();
}

TEST(SeamFold, HandsOnThePartBuffers) {
  SeamFold fold(combiner_stitch2_add_first(' '));
  std::string first = "      1 a\n      2 b\n";
  const char* first_data = first.data();
  std::string settled;
  ASSERT_TRUE(fold.add(std::move(first), &settled));
  EXPECT_EQ(settled, "");  // a lone part is the result unchecked: held
  ASSERT_TRUE(fold.add("      3 b\n      1 c\n", &settled));
  // The equal seam merges into the second part; the first part's buffer
  // leaves without its carried line.
  EXPECT_EQ(settled, "      1 a\n");
  EXPECT_EQ(settled.data(), first_data);
  EXPECT_EQ(fold.finish(), "      5 b\n      1 c\n");
}

TEST(SeamFold, EdgeCasesMatchTheFold) {
  const Combiner uniq = combiner_stitch_first();
  const Combiner uniq_c = combiner_stitch2_add_first(' ');
  const Combiner off = combiner_offset_add(' ');
  const Combiner stitch_add = with_leaf(Op::kStitch, 0, Op::kAdd);
  const std::vector<std::pair<Combiner, std::vector<std::string>>> cases = {
      {uniq, {}},
      {uniq, {"a"}},                  // lone unterminated part: as is
      {uniq, {"a", "a\n"}},           // unterminated then a fold: undefined
      {uniq, {"a\n", ""}},            // an empty part in a fold: undefined
      {uniq, {"\n", "\n", "a\n"}},
      {uniq_c, {"\n"}},
      {uniq_c, {"\n", "      1 a\n"}},  // exempt alone, concatenated
      {uniq_c, {"      1 a\n", "\n"}},
      {uniq_c, {"      1 a\n", "\n", "      1 a\n"}},  // then undefined
      {uniq_c, {"1 a\n"}},           // illegal but lone
      {uniq_c, {"1 a\n", "      1 a\n"}},
      {uniq_c, {"      1 a\nx\n      1 b\n", "      1 b\n"}},
      {uniq_c, {"999999 a\n", " 999999 a\n"}},  // unpadded row stays last
      {uniq_c, {" 999999 a\n", " 1 a\n"}},
      {uniq_c, {" 999999 a\n", " 1 a\n", " 1 b\n"}},  // then undefined
      {stitch_add, {"\n", "1\n"}},  // no "\n" exemption for stitch
      {stitch_add, {"1\n", "1\n", "2\n"}},
      {off, {"\n", "1 a\n"}},
      {off, {"1 a\n\n", "\n", "2 b\n"}},
      {off, {"1 a\n", "x b\n"}},
  };
  for (const auto& [g, parts] : cases) {
    std::string trace = to_string(g);
    trace += " over ";
    trace += std::to_string(parts.size());
    trace += " parts";
    SCOPED_TRACE(trace);
    EXPECT_EQ(seam_result(g, parts), combine_k(g, parts));
  }
}

// Random part sequences for one StructOp shape: records drawn from a small
// alphabet so seams often meet equal lines, plus empty parts, "\n" parts,
// unterminated parts and records outside the domain.
struct PartGen {
  std::mt19937 rng;
  std::vector<std::string> records;  // legal records, '\n' included
  std::vector<std::string> illegal;  // records outside the domain

  std::size_t pick(std::size_t n) { return rng() % n; }

  std::string part() {
    switch (pick(12)) {
      case 0: return "";
      case 1: return "\n";
      default: break;
    }
    std::string out;
    const std::size_t lines = 1 + pick(4);
    for (std::size_t i = 0; i < lines; ++i)
      out += pick(20) == 0 ? illegal[pick(illegal.size())]
                           : records[pick(records.size())];
    if (pick(15) == 0) out.pop_back();  // unterminated
    return out;
  }

  std::vector<std::string> parts() {
    std::vector<std::string> out(1 + pick(6));
    for (std::string& p : out) p = part();
    return out;
  }
};

void expect_seam_fold_matches(const std::vector<Combiner>& members,
                              PartGen gen) {
  ASSERT_TRUE(seam_foldable(members));
  const synth::CompositeCombiner composite =
      synth::CompositeCombiner::select(members);
  const Combiner& g = composite.combiners().front();
  int defined = 0, undefined = 0;
  for (int round = 0; round < 3000; ++round) {
    const std::vector<std::string> parts = gen.parts();
    // Every prefix: the fold must fail on exactly the part that makes the
    // left fold undefined, and agree byte for byte before it.
    SeamFold fold(g);
    std::string emitted, settled;
    bool alive = true;
    for (std::size_t n = 1; n <= parts.size(); ++n) {
      const std::vector<std::string> prefix(parts.begin(), parts.begin() + n);
      const std::optional<std::string> want = composite.apply_k(prefix);
      ASSERT_EQ(want, combine_k(g, prefix));
      if (alive) alive = fold.add(prefix.back(), &settled);
      ASSERT_EQ(alive, want.has_value())
          << to_string(g) << " round " << round << " part " << n;
      if (!alive) break;
      emitted += settled;
      SeamFold rest = fold;
      ASSERT_EQ(emitted + rest.finish(), *want)
          << to_string(g) << " round " << round << " part " << n;
    }
    ++(alive ? defined : undefined);
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(defined, 300);
  EXPECT_GT(undefined, 300);
}

TEST(SeamFold, MatchesCombineKForUniq) {
  PartGen gen{std::mt19937(1), {"a\n", "b\n", "\n", "a b\n"}, {}};
  gen.illegal = {"a"};  // only an unterminated record leaves stitch's domain
  expect_seam_fold_matches({with_leaf(Op::kStitch, 0, Op::kFirst),
                            with_leaf(Op::kStitch, 0, Op::kSecond)},
                           gen);
}

TEST(SeamFold, MatchesCombineKForUniqC) {
  PartGen gen{std::mt19937(2),
              {"      1 a\n", "      2 a\n", "      1 b\n", "      3 b\n",
               " 999999 a\n", "     12 a b\n"},
              {"1 a\n", "      x a\n", "      1\n", "\n"}};
  expect_seam_fold_matches(
      {with_leaf(Op::kStitch2, ' ', Op::kAdd, Op::kFirst),
       with_leaf(Op::kStitch2, ' ', Op::kAdd, Op::kSecond)},
      gen);
}

TEST(SeamFold, MatchesCombineKForOffset) {
  PartGen gen{std::mt19937(3), {"1 a\n", "12 b\n", "  3 c d\n", "\n"},
              {"x a\n", "7\n"}};
  expect_seam_fold_matches({combiner_offset_add(' ')}, gen);
}

TEST(SeamFold, MatchesCombineKForStitchAdd) {
  // A lone member with a b that changes equal lines and has a domain.
  PartGen gen{std::mt19937(4), {"1\n", "2\n", "01\n"}, {"x\n", "\n"}};
  expect_seam_fold_matches({with_leaf(Op::kStitch, 0, Op::kAdd)}, gen);
}

TEST(SeamFold, ReadsEachPartOnce) {
  // 1000 parts of distinct rows: the fold reads the input once plus one
  // carried row per seam, where an accumulator fold re-reads acc per part.
  SeamFold fold(combiner_stitch2_add_first(' '));
  std::size_t in = 0, out = 0;
  std::string settled;
  for (int i = 0; i < 1000; ++i) {
    std::string part = "      1 a";
    part += std::to_string(i);
    part += "\n      1 b";
    part += std::to_string(i);
    part += '\n';
    in += part.size();
    ASSERT_TRUE(fold.add(std::move(part), &settled));
    out += settled.size();
    EXPECT_LE(fold.held_bytes(), 64u);
  }
  out += fold.finish().size();
  EXPECT_EQ(out, in);
  EXPECT_LE(fold.bytes_read(), 2 * out);
}

}  // namespace
}  // namespace kq::dsl
