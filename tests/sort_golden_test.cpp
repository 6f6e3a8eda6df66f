// GNU-verified golden tests for sort's keyed comparator through every
// consumer of it: SortSpec::sort_stream (the sort stage), the external
// merge sort (SpillMerger over unsorted blocks, threshold 1 so every
// block is its own disk run), the spill merge of pre-sorted chunk outputs
// (SpillMerger over sorted parts), the §3.5 merge combiner
// (SortSpec::merge_streams over split_stream parts sorted one by one), the
// top-n window (`sort <flags> | head -n 5` fused) and the sort -u window.
//
// Every expected string is the byte output of GNU coreutils `LC_ALL=C
// sort <flags>` over kInput, a blank-heavy input with tabs, leading
// blanks, empty and blank-only lines, the numbers -0, .5 and 1., and an
// unterminated final line. To regenerate a row:
//
//   printf '%s' "<kInput>" | LC_ALL=C sort <flags>
//
// A last test checks the keyed comparator against the string-view one and
// itself (rebased copies, antisymmetry) over seeded random line pairs.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "exec/splitter.h"
#include "stream/spill.h"
#include "unixcmd/registry.h"
#include "unixcmd/sort_cmd.h"
#include "unixcmd/topn.h"

namespace kq {
namespace {

constexpr const char* kInput =
    "b  c 3\n"
    "a b 10\n"
    "  a c 2\n"
    "\tb a -0\n"
    "a\tc .5\n"
    "B b 1.\n"
    "A  b 0\n"
    "\n"
    "a c 10\n"
    " b  B -3\n"
    "c a 1.50\n"
    "a b 10\n"
    "x -1 b\n"
    "\t\tz\n"
    "a   a 2\n"
    "b,c c 01\n"
    "A a 3\n"
    "c- B .5\n"
    " \n"
    "a c  10\n"
    "10 a 1\n"
    " -2 b x\n"
    "2.5\tc 7\n"
    "-0.0 d 0\n"
    ".5 e 4\n"
    "1. f -1\n"
    "b c 3";

struct SortGolden {
  const char* flags;
  const char* expected;  // GNU `LC_ALL=C sort <flags>` over kInput
};

std::vector<std::string> words(const std::string& flags) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : flags + " ") {
    if (c != ' ') {
      cur.push_back(c);
    } else if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
  }
  return out;
}

std::shared_ptr<const cmd::SortSpec> spec_of(const char* flags) {
  std::string error;
  auto spec = cmd::SortSpec::parse(words(flags), &error);
  EXPECT_TRUE(spec.has_value()) << flags << ": " << error;
  if (!spec) return nullptr;
  return std::make_shared<const cmd::SortSpec>(*spec);
}

std::string spill_merge(std::shared_ptr<const cmd::SortSpec> spec,
                        stream::SpillMerger::Input mode,
                        const std::vector<std::string>& pieces) {
  stream::SpillMerger merger(std::move(spec), mode, /*threshold=*/1);
  for (const std::string& p : pieces) {
    std::string copy = p;
    EXPECT_TRUE(merger.add(std::move(copy))) << merger.error();
  }
  std::string out;
  EXPECT_TRUE(merger.finish(
      [&out](std::string&& block) {
        out += block;
        return true;
      },
      /*block_size=*/16))
      << merger.error();
  return out;
}

// Feeds a window processor `input` in blocks of `lines_per_block` lines.
std::string run_window(cmd::WindowProcessor& window, std::string_view input,
                       int lines_per_block) {
  std::string out;
  std::size_t pos = 0;
  while (pos < input.size()) {
    std::size_t end = pos;
    for (int i = 0; i < lines_per_block && end < input.size(); ++i) {
      std::size_t nl = input.find('\n', end);
      end = nl == std::string_view::npos ? input.size() : nl + 1;
    }
    window.push(input.substr(pos, end - pos), &out);
    pos = end;
  }
  window.finish([&out](std::string_view tail) {
    out.append(tail);
    return true;
  });
  return out;
}

class SortGoldenTest : public ::testing::TestWithParam<SortGolden> {};

TEST_P(SortGoldenTest, SortStage) {
  const SortGolden& c = GetParam();
  std::string line = "sort ";
  line += c.flags;
  std::string error;
  cmd::CommandPtr command = cmd::make_command_line(line, &error);
  ASSERT_NE(command, nullptr) << line << ": " << error;
  EXPECT_EQ(command->run(kInput), c.expected) << line;
  auto spec = spec_of(c.flags);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->sort_stream(kInput), c.expected) << c.flags;
  EXPECT_TRUE(spec->is_sorted_stream(c.expected)) << c.flags;
}

TEST_P(SortGoldenTest, SpillMergerOverUnsortedBlocks) {
  const SortGolden& c = GetParam();
  auto spec = spec_of(c.flags);
  ASSERT_NE(spec, nullptr);
  // Record-aligned blocks of 1 and 3 lines; threshold 1 spills each.
  for (int k : {30, 9}) {
    std::vector<std::string> pieces;
    for (std::string_view part : exec::split_stream(kInput, k))
      pieces.emplace_back(part);
    EXPECT_EQ(spill_merge(spec, stream::SpillMerger::Input::kUnsortedBlocks,
                          pieces),
              c.expected)
        << c.flags << " over " << pieces.size() << " blocks";
  }
}

TEST_P(SortGoldenTest, SpillMergerOverSortedParts) {
  const SortGolden& c = GetParam();
  auto spec = spec_of(c.flags);
  ASSERT_NE(spec, nullptr);
  for (int k : {2, 4, 7}) {
    std::vector<std::string> parts;
    for (std::string_view part : exec::split_stream(kInput, k))
      parts.push_back(spec->sort_stream(part));
    EXPECT_EQ(spill_merge(spec, stream::SpillMerger::Input::kSortedParts,
                          parts),
              c.expected)
        << c.flags << " over " << parts.size() << " parts";
  }
}

TEST_P(SortGoldenTest, MergeCombinerOverSortedParts) {
  const SortGolden& c = GetParam();
  auto spec = spec_of(c.flags);
  ASSERT_NE(spec, nullptr);
  for (int k : {2, 3, 5, 30}) {
    std::vector<std::string> sorted;
    for (std::string_view part : exec::split_stream(kInput, k))
      sorted.push_back(spec->sort_stream(part));
    std::vector<std::string_view> views(sorted.begin(), sorted.end());
    EXPECT_EQ(spec->merge_streams(views), c.expected)
        << c.flags << " over " << views.size() << " parts";
  }
}

TEST_P(SortGoldenTest, BoundedWindows) {
  const SortGolden& c = GetParam();
  auto spec = spec_of(c.flags);
  ASSERT_NE(spec, nullptr);
  // The top-n window holds the first 5 lines of the sorted output.
  std::string first5;
  std::string_view rest = c.expected;
  for (int i = 0; i < 5 && !rest.empty(); ++i) {
    std::size_t nl = rest.find('\n');
    first5.append(rest.substr(0, nl + 1));
    rest.remove_prefix(nl + 1);
  }
  cmd::CommandPtr top = cmd::make_top_n_command(spec, 5, "top-n");
  for (int lines : {1, 4}) {
    auto window = top->window_processor();
    EXPECT_EQ(run_window(*window, kInput, lines), first5) << c.flags;
  }
  // The sort -u window is the whole sorted output.
  if (spec->unique()) {
    std::string line = "sort ";
    line += c.flags;
    cmd::CommandPtr command = cmd::make_command_line(line, nullptr);
    ASSERT_NE(command, nullptr);
    auto window = command->window_processor();
    ASSERT_NE(window, nullptr) << line;
    EXPECT_EQ(run_window(*window, kInput, 3), c.expected) << line;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GnuSort, SortGoldenTest,
    ::testing::Values(
        SortGolden{"",
                   "\n\t\tz\n\tb a -0\n \n  a c 2\n -2 b x\n b  B -3\n"
                   "-0.0 d 0\n.5 e 4\n1. f -1\n10 a 1\n2.5\tc 7\nA  b 0\n"
                   "A a 3\nB b 1.\na\tc .5\na   a 2\na b 10\na b 10\n"
                   "a c  10\na c 10\nb  c 3\nb c 3\nb,c c 01\nc a 1.50\n"
                   "c- B .5\nx -1 b\n"},
        SortGolden{"-r",
                   "x -1 b\nc- B .5\nc a 1.50\nb,c c 01\nb c 3\nb  c 3\n"
                   "a c 10\na c  10\na b 10\na b 10\na   a 2\na\tc .5\n"
                   "B b 1.\nA a 3\nA  b 0\n2.5\tc 7\n10 a 1\n1. f -1\n"
                   ".5 e 4\n-0.0 d 0\n b  B -3\n -2 b x\n  a c 2\n \n"
                   "\tb a -0\n\t\tz\n\n"},
        SortGolden{"-n",
                   " -2 b x\n\n\t\tz\n\tb a -0\n \n  a c 2\n b  B -3\n"
                   "-0.0 d 0\nA  b 0\nA a 3\nB b 1.\na\tc .5\na   a 2\n"
                   "a b 10\na b 10\na c  10\na c 10\nb  c 3\nb c 3\n"
                   "b,c c 01\nc a 1.50\nc- B .5\nx -1 b\n.5 e 4\n1. f -1\n"
                   "2.5\tc 7\n10 a 1\n"},
        SortGolden{"-rn",
                   "10 a 1\n2.5\tc 7\n1. f -1\n.5 e 4\nx -1 b\nc- B .5\n"
                   "c a 1.50\nb,c c 01\nb c 3\nb  c 3\na c 10\na c  10\n"
                   "a b 10\na b 10\na   a 2\na\tc .5\nB b 1.\nA a 3\nA  b 0\n"
                   "-0.0 d 0\n b  B -3\n  a c 2\n \n\tb a -0\n\t\tz\n\n"
                   " -2 b x\n"},
        SortGolden{"-u",
                   "\n\t\tz\n\tb a -0\n \n  a c 2\n -2 b x\n b  B -3\n"
                   "-0.0 d 0\n.5 e 4\n1. f -1\n10 a 1\n2.5\tc 7\nA  b 0\n"
                   "A a 3\nB b 1.\na\tc .5\na   a 2\na b 10\na c  10\n"
                   "a c 10\nb  c 3\nb c 3\nb,c c 01\nc a 1.50\nc- B .5\n"
                   "x -1 b\n"},
        SortGolden{"-nu",
                   " -2 b x\nb  c 3\n.5 e 4\n1. f -1\n2.5\tc 7\n10 a 1\n"},
        SortGolden{"-ru",
                   "x -1 b\nc- B .5\nc a 1.50\nb,c c 01\nb c 3\nb  c 3\n"
                   "a c 10\na c  10\na b 10\na   a 2\na\tc .5\nB b 1.\n"
                   "A a 3\nA  b 0\n2.5\tc 7\n10 a 1\n1. f -1\n.5 e 4\n"
                   "-0.0 d 0\n b  B -3\n -2 b x\n  a c 2\n \n\tb a -0\n"
                   "\t\tz\n\n"},
        SortGolden{"-f",
                   "\n\t\tz\n\tb a -0\n \n  a c 2\n -2 b x\n b  B -3\n"
                   "-0.0 d 0\n.5 e 4\n1. f -1\n10 a 1\n2.5\tc 7\na\tc .5\n"
                   "a   a 2\nA  b 0\nA a 3\na b 10\na b 10\na c  10\na c 10\n"
                   "b  c 3\nB b 1.\nb c 3\nb,c c 01\nc a 1.50\nc- B .5\n"
                   "x -1 b\n"},
        SortGolden{"-d",
                   "\n\t\tz\n\tb a -0\n \n  a c 2\n -2 b x\n b  B -3\n"
                   "-0.0 d 0\n1. f -1\n10 a 1\n2.5\tc 7\n.5 e 4\nA  b 0\n"
                   "A a 3\nB b 1.\na\tc .5\na   a 2\na b 10\na b 10\n"
                   "a c  10\na c 10\nb  c 3\nb c 3\nb,c c 01\nc- B .5\n"
                   "c a 1.50\nx -1 b\n"},
        SortGolden{"-df",
                   "\n\t\tz\n\tb a -0\n \n  a c 2\n -2 b x\n b  B -3\n"
                   "-0.0 d 0\n1. f -1\n10 a 1\n2.5\tc 7\n.5 e 4\na\tc .5\n"
                   "a   a 2\nA  b 0\nA a 3\na b 10\na b 10\na c  10\na c 10\n"
                   "b  c 3\nB b 1.\nb c 3\nb,c c 01\nc a 1.50\nc- B .5\n"
                   "x -1 b\n"},
        SortGolden{"-b",
                   "\n \n-0.0 d 0\n -2 b x\n.5 e 4\n1. f -1\n10 a 1\n"
                   "2.5\tc 7\nA  b 0\nA a 3\nB b 1.\na\tc .5\na   a 2\n"
                   "a b 10\na b 10\na c  10\na c 10\n  a c 2\n b  B -3\n"
                   "b  c 3\n\tb a -0\nb c 3\nb,c c 01\nc a 1.50\nc- B .5\n"
                   "x -1 b\n\t\tz\n"},
        SortGolden{"-fu",
                   "\n\t\tz\n\tb a -0\n \n  a c 2\n -2 b x\n b  B -3\n"
                   "-0.0 d 0\n.5 e 4\n1. f -1\n10 a 1\n2.5\tc 7\na\tc .5\n"
                   "a   a 2\nA  b 0\nA a 3\na b 10\na c  10\na c 10\nb  c 3\n"
                   "B b 1.\nb c 3\nb,c c 01\nc a 1.50\nc- B .5\nx -1 b\n"},
        SortGolden{"-k1",
                   "\n\t\tz\n\tb a -0\n \n  a c 2\n -2 b x\n b  B -3\n"
                   "-0.0 d 0\n.5 e 4\n1. f -1\n10 a 1\n2.5\tc 7\nA  b 0\n"
                   "A a 3\nB b 1.\na\tc .5\na   a 2\na b 10\na b 10\n"
                   "a c  10\na c 10\nb  c 3\nb c 3\nb,c c 01\nc a 1.50\n"
                   "c- B .5\nx -1 b\n"},
        SortGolden{"-k2",
                   "\n\t\tz\n \na\tc .5\n2.5\tc 7\na   a 2\n b  B -3\n"
                   "A  b 0\nb  c 3\nx -1 b\nc- B .5\n\tb a -0\n10 a 1\n"
                   "c a 1.50\nA a 3\nB b 1.\na b 10\na b 10\n -2 b x\n"
                   "a c  10\nb,c c 01\na c 10\n  a c 2\nb c 3\n-0.0 d 0\n"
                   ".5 e 4\n1. f -1\n"},
        SortGolden{"-k3",
                   "\n\t\tz\n \na c  10\n\tb a -0\n1. f -1\n b  B -3\n"
                   "a\tc .5\nc- B .5\n-0.0 d 0\nA  b 0\nb,c c 01\n10 a 1\n"
                   "B b 1.\nc a 1.50\na b 10\na b 10\na c 10\n  a c 2\n"
                   "a   a 2\nA a 3\nb  c 3\nb c 3\n.5 e 4\n2.5\tc 7\nx -1 b\n"
                   " -2 b x\n"},
        SortGolden{"-k1,1",
                   "\n\t\tz\n\tb a -0\n \n  a c 2\n -2 b x\n b  B -3\n"
                   "-0.0 d 0\n.5 e 4\n1. f -1\n10 a 1\n2.5\tc 7\nA  b 0\n"
                   "A a 3\nB b 1.\na\tc .5\na   a 2\na b 10\na b 10\n"
                   "a c  10\na c 10\nb  c 3\nb c 3\nb,c c 01\nc a 1.50\n"
                   "c- B .5\nx -1 b\n"},
        SortGolden{"-k2,2",
                   "\n\t\tz\n \n2.5\tc 7\na\tc .5\na   a 2\n b  B -3\n"
                   "A  b 0\nb  c 3\nx -1 b\nc- B .5\n\tb a -0\n10 a 1\n"
                   "A a 3\nc a 1.50\n -2 b x\nB b 1.\na b 10\na b 10\n"
                   "  a c 2\na c  10\na c 10\nb c 3\nb,c c 01\n-0.0 d 0\n"
                   ".5 e 4\n1. f -1\n"},
        SortGolden{"-k2 -k1",
                   "\n\t\tz\n \na\tc .5\n2.5\tc 7\na   a 2\n b  B -3\n"
                   "A  b 0\nb  c 3\nx -1 b\nc- B .5\n\tb a -0\n10 a 1\n"
                   "c a 1.50\nA a 3\nB b 1.\na b 10\na b 10\n -2 b x\n"
                   "a c  10\nb,c c 01\na c 10\n  a c 2\nb c 3\n-0.0 d 0\n"
                   ".5 e 4\n1. f -1\n"},
        SortGolden{"-k2,2n -k1,1r",
                   "x -1 b\nc- B .5\nc a 1.50\nb,c c 01\nb  c 3\nb c 3\n"
                   "a\tc .5\na   a 2\na b 10\na b 10\na c  10\na c 10\n"
                   "B b 1.\nA  b 0\nA a 3\n2.5\tc 7\n10 a 1\n1. f -1\n"
                   ".5 e 4\n-0.0 d 0\n b  B -3\n -2 b x\n  a c 2\n \n"
                   "\tb a -0\n\t\tz\n\n"},
        SortGolden{"-s -k2,2",
                   "\n\t\tz\n \na\tc .5\n2.5\tc 7\na   a 2\n b  B -3\n"
                   "A  b 0\nb  c 3\nx -1 b\nc- B .5\n\tb a -0\nc a 1.50\n"
                   "A a 3\n10 a 1\na b 10\nB b 1.\na b 10\n -2 b x\n  a c 2\n"
                   "a c 10\nb,c c 01\na c  10\nb c 3\n-0.0 d 0\n.5 e 4\n"
                   "1. f -1\n"},
        SortGolden{"-k2f",
                   "\n\t\tz\n \na\tc .5\n2.5\tc 7\na   a 2\n b  B -3\n"
                   "A  b 0\nb  c 3\nx -1 b\n\tb a -0\n10 a 1\nc a 1.50\n"
                   "A a 3\nc- B .5\nB b 1.\na b 10\na b 10\n -2 b x\n"
                   "a c  10\nb,c c 01\na c 10\n  a c 2\nb c 3\n-0.0 d 0\n"
                   ".5 e 4\n1. f -1\n"},
        SortGolden{"-k2b",
                   "\n\t\tz\n \nx -1 b\n b  B -3\nc- B .5\n\tb a -0\n10 a 1\n"
                   "c a 1.50\na   a 2\nA a 3\nA  b 0\nB b 1.\na b 10\n"
                   "a b 10\n -2 b x\na c  10\na\tc .5\nb,c c 01\na c 10\n"
                   "  a c 2\nb  c 3\nb c 3\n2.5\tc 7\n-0.0 d 0\n.5 e 4\n"
                   "1. f -1\n"},
        SortGolden{"-k2,2b",
                   "\n\t\tz\n \n2.5\tc 7\na\tc .5\na   a 2\n b  B -3\n"
                   "A  b 0\nb  c 3\nx -1 b\nc- B .5\n\tb a -0\n10 a 1\n"
                   "A a 3\nc a 1.50\n -2 b x\nB b 1.\na b 10\na b 10\n"
                   "  a c 2\na c  10\na c 10\nb c 3\nb,c c 01\n-0.0 d 0\n"
                   ".5 e 4\n1. f -1\n"},
        SortGolden{"-b -k2",
                   "\n\t\tz\n \nx -1 b\n b  B -3\nc- B .5\n\tb a -0\n10 a 1\n"
                   "c a 1.50\na   a 2\nA a 3\nA  b 0\nB b 1.\na b 10\n"
                   "a b 10\n -2 b x\na c  10\na\tc .5\nb,c c 01\na c 10\n"
                   "  a c 2\nb  c 3\nb c 3\n2.5\tc 7\n-0.0 d 0\n.5 e 4\n"
                   "1. f -1\n"},
        SortGolden{"-k3n",
                   " b  B -3\n1. f -1\n\n\t\tz\n\tb a -0\n \n -2 b x\n"
                   "-0.0 d 0\nA  b 0\nx -1 b\na\tc .5\nc- B .5\n10 a 1\n"
                   "B b 1.\nb,c c 01\nc a 1.50\n  a c 2\na   a 2\nA a 3\n"
                   "b  c 3\nb c 3\n.5 e 4\n2.5\tc 7\na b 10\na b 10\n"
                   "a c  10\na c 10\n"},
        SortGolden{"-k3,3n -k1,1",
                   " b  B -3\n1. f -1\n\n\t\tz\n\tb a -0\n \n -2 b x\n"
                   "-0.0 d 0\nA  b 0\nx -1 b\na\tc .5\nc- B .5\n10 a 1\n"
                   "B b 1.\nb,c c 01\nc a 1.50\n  a c 2\na   a 2\nA a 3\n"
                   "b  c 3\nb c 3\n.5 e 4\n2.5\tc 7\na b 10\na b 10\n"
                   "a c  10\na c 10\n"},
        SortGolden{"-k1n",
                   " -2 b x\n\n\t\tz\n\tb a -0\n \n  a c 2\n b  B -3\n"
                   "-0.0 d 0\nA  b 0\nA a 3\nB b 1.\na\tc .5\na   a 2\n"
                   "a b 10\na b 10\na c  10\na c 10\nb  c 3\nb c 3\n"
                   "b,c c 01\nc a 1.50\nc- B .5\nx -1 b\n.5 e 4\n1. f -1\n"
                   "2.5\tc 7\n10 a 1\n"},
        SortGolden{"-n -k2r",
                   "1. f -1\n.5 e 4\n-0.0 d 0\nb c 3\n  a c 2\na c 10\n"
                   "b,c c 01\na c  10\n -2 b x\na b 10\na b 10\nB b 1.\n"
                   "A a 3\nc a 1.50\n10 a 1\n\tb a -0\nc- B .5\nx -1 b\n"
                   "b  c 3\nA  b 0\n b  B -3\na   a 2\n2.5\tc 7\na\tc .5\n\n"
                   "\t\tz\n \n"},
        SortGolden{"-r -k3n",
                   " b  B -3\n1. f -1\nx -1 b\nA  b 0\n-0.0 d 0\n -2 b x\n \n"
                   "\tb a -0\n\t\tz\n\nc- B .5\na\tc .5\nb,c c 01\nB b 1.\n"
                   "10 a 1\nc a 1.50\na   a 2\n  a c 2\nb c 3\nb  c 3\n"
                   "A a 3\n.5 e 4\n2.5\tc 7\na c 10\na c  10\na b 10\n"
                   "a b 10\n"},
        SortGolden{"-k2,2 -u",
                   "\na\tc .5\na   a 2\n b  B -3\nA  b 0\nb  c 3\nx -1 b\n"
                   "c- B .5\n\tb a -0\na b 10\n  a c 2\n-0.0 d 0\n.5 e 4\n"
                   "1. f -1\n"},
        SortGolden{"-k3nr -s",
                   "a b 10\na c 10\na b 10\na c  10\n2.5\tc 7\n.5 e 4\n"
                   "b  c 3\nA a 3\nb c 3\n  a c 2\na   a 2\nc a 1.50\n"
                   "B b 1.\nb,c c 01\n10 a 1\na\tc .5\nc- B .5\n\tb a -0\n"
                   "A  b 0\n\nx -1 b\n\t\tz\n \n -2 b x\n-0.0 d 0\n1. f -1\n"
                   " b  B -3\n"},
        SortGolden{"-k2d",
                   "\n\t\tz\n \na\tc .5\n2.5\tc 7\na   a 2\n b  B -3\n"
                   "A  b 0\nb  c 3\nx -1 b\nc- B .5\n\tb a -0\n10 a 1\n"
                   "c a 1.50\nA a 3\nB b 1.\na b 10\na b 10\n -2 b x\n"
                   "a c  10\nb,c c 01\na c 10\n  a c 2\nb c 3\n-0.0 d 0\n"
                   ".5 e 4\n1. f -1\n"},
        SortGolden{"-k2b,2 -k3,3nr",
                   "\n\t\tz\n \nx -1 b\nc- B .5\n b  B -3\nA a 3\na   a 2\n"
                   "c a 1.50\n10 a 1\n\tb a -0\na b 10\na b 10\nB b 1.\n"
                   " -2 b x\nA  b 0\na c  10\na c 10\n2.5\tc 7\nb  c 3\n"
                   "b c 3\n  a c 2\nb,c c 01\na\tc .5\n-0.0 d 0\n.5 e 4\n"
                   "1. f -1\n"},
        SortGolden{"-k2,2 -k3,3n -u",
                   "\na\tc .5\n2.5\tc 7\na   a 2\n b  B -3\nA  b 0\nb  c 3\n"
                   "x -1 b\nc- B .5\n\tb a -0\n10 a 1\nc a 1.50\nA a 3\n"
                   " -2 b x\nB b 1.\na b 10\nb,c c 01\n  a c 2\nb c 3\n"
                   "a c 10\n-0.0 d 0\n.5 e 4\n1. f -1\n"}));

// The string-view comparator is compare(keyed(a), keyed(b)); a keyed
// record re-pointed at a copy of its line compares the same, and the
// order is antisymmetric.
TEST(KeyedComparator, AgreesWithStringViewCompareOnRandomLines) {
  const std::vector<const char*> flag_sets = {
      "",       "-r",     "-n",       "-rn",          "-u",     "-nu",
      "-f",     "-d",     "-df",      "-b",           "-k1",    "-k2",
      "-k3",    "-k1,1",  "-k2,2",    "-k2 -k1",      "-k2f",   "-k2b",
      "-k2,2b", "-k3n",   "-k1n",     "-b -k2",       "-s -k2,2",
      "-k2,2n -k1,1r",    "-n -k2r",  "-k3,3n -k1,1", "-k2d -k3nr"};
  const std::string alphabet = "  \taB0159-.,";
  std::mt19937_64 rng(1);
  auto random_line = [&] {
    std::string s(rng() % 14, ' ');
    for (char& ch : s) ch = alphabet[rng() % alphabet.size()];
    return s;
  };
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  for (const char* flags : flag_sets) {
    auto spec = spec_of(flags);
    ASSERT_NE(spec, nullptr);
    for (int i = 0; i < 2000; ++i) {
      std::string a = random_line(), b = random_line();
      int c = spec->compare(spec->keyed(a), spec->keyed(b));
      ASSERT_EQ(c, spec->compare(std::string_view(a), std::string_view(b)))
          << flags << " [" << a << "] [" << b << "]";
      std::string a_copy = a, b_copy = b;
      ASSERT_EQ(c, spec->compare(cmd::rebased(spec->keyed(a), a_copy),
                                 cmd::rebased(spec->keyed(b), b_copy)))
          << flags << " [" << a << "] [" << b << "]";
      ASSERT_EQ(sign(c), -sign(spec->compare(spec->keyed(b), spec->keyed(a))))
          << flags << " [" << a << "] [" << b << "]";
    }
  }
}

}  // namespace
}  // namespace kq
