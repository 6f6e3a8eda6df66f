// Unit tests for the built-in command substrate: every command/flag
// combination that appears in the paper's benchmark suite (Table 10 and
// Table 9), plus edge cases around empty input, missing trailing newlines,
// and error statuses.

#include <gtest/gtest.h>

#include "unixcmd/registry.h"
#include "unixcmd/sort_cmd.h"
#include "vfs/vfs.h"

namespace kq::cmd {
namespace {

std::string run(const std::string& command_line, std::string_view input,
                const vfs::Vfs* fs = nullptr) {
  std::string error;
  CommandPtr c = make_command_line(command_line, &error, fs);
  EXPECT_NE(c, nullptr) << command_line << ": " << error;
  if (!c) return "<make_command failed>";
  return c->run(input);
}

Result exec(const std::string& command_line, std::string_view input,
            const vfs::Vfs* fs = nullptr) {
  std::string error;
  CommandPtr c = make_command_line(command_line, &error, fs);
  EXPECT_NE(c, nullptr) << command_line << ": " << error;
  if (!c) return {"", 255, error};
  return c->execute(input);
}

// ------------------------------------------------------------------ cat --

TEST(Cat, Identity) {
  EXPECT_EQ(run("cat", "a\nb\n"), "a\nb\n");
  EXPECT_EQ(run("cat", ""), "");
}

TEST(Cat, ReadsVfsFiles) {
  vfs::Vfs fs;
  fs.write("f1", "one\n");
  fs.write("f2", "two\n");
  EXPECT_EQ(run("cat f1 f2", "ignored", &fs), "one\ntwo\n");
}

TEST(Cat, MissingFileSetsStatus) {
  vfs::Vfs fs;
  Result r = exec("cat nope", "", &fs);
  EXPECT_NE(r.status, 0);
}

// ------------------------------------------------------------------- tr --

TEST(Tr, SimpleTranslate) {
  EXPECT_EQ(run("tr A-Z a-z", "Hello World\n"), "hello world\n");
}

TEST(Tr, BracketedSets) {
  EXPECT_EQ(run("tr '[A-Z]' '[a-z]'", "ABC[]\n"), "abc[]\n");
  EXPECT_EQ(run("tr '[a-z]' 'P'", "abc XY\n"), "PPP XY\n");
}

TEST(Tr, SpaceToNewline) {
  EXPECT_EQ(run("tr ' ' '\\n'", "a b\n"), "a\nb\n");
}

TEST(Tr, ComplementSqueezeToNewline) {
  // The §2 example command: break into words, squeezing delimiters.
  EXPECT_EQ(run("tr -cs A-Za-z '\\n'", "one, two!!three\n"),
            "one\ntwo\nthree\n");
}

TEST(Tr, ComplementSqueezeLeadingSeparator) {
  // A leading non-letter becomes a single leading newline.
  EXPECT_EQ(run("tr -cs A-Za-z '\\n'", "  lead\n"), "\nlead\n");
}

TEST(Tr, DeleteNewlines) {
  EXPECT_EQ(run("tr -d '\\n'", "a\nb\nc\n"), "abc");
}

TEST(Tr, DeleteComma) {
  EXPECT_EQ(run("tr -d ','", "1,2,3\n"), "123\n");
}

TEST(Tr, DeletePunct) {
  EXPECT_EQ(run("tr -d '[:punct:]'", "a.b,c!d\n"), "abcd\n");
}

TEST(Tr, SqueezeOnly) {
  EXPECT_EQ(run("tr -s ' ' '\\n'", "a  b\n"), "a\nb\n");
}

TEST(Tr, OctalFillSet) {
  // poets: tr -sc '[A-Z][a-z]' '[\012*]' — complement to newlines, squeeze.
  EXPECT_EQ(run("tr -sc '[A-Z][a-z]' '[\\012*]'", "It's 42 words\n"),
            "It\ns\nwords\n");
}

TEST(Tr, VowelSqueeze) {
  EXPECT_EQ(run("tr -sc 'AEIOUaeiou' '[\\012*]'", "banana\n"),
            "\na\na\na\n");
}

TEST(Tr, NamedClasses) {
  EXPECT_EQ(run("tr '[:lower:]' '[:upper:]'", "mixed Case\n"),
            "MIXED CASE\n");
}

TEST(Tr, UnsupportedFlagRejected) {
  std::string error;
  EXPECT_EQ(make_command_line("tr -z a b", &error), nullptr);
}

// ----------------------------------------------------------------- sort --

TEST(Sort, Bytewise) {
  EXPECT_EQ(run("sort", "b\na\nc\n"), "a\nb\nc\n");
}

TEST(Sort, EmptyInput) { EXPECT_EQ(run("sort", ""), ""); }

TEST(Sort, Numeric) {
  EXPECT_EQ(run("sort -n", "10\n9\n-2\n"), "-2\n9\n10\n");
}

TEST(Sort, NumericEqualKeysFallBackToBytewise) {
  // GNU last-resort comparison orders equal numeric keys bytewise.
  EXPECT_EQ(run("sort -n", "0b\n0a\n"), "0a\n0b\n");
}

TEST(Sort, ReverseNumeric) {
  EXPECT_EQ(run("sort -rn", "1 x\n10 y\n2 z\n"), "10 y\n2 z\n1 x\n");
}

TEST(Sort, FoldCase) {
  EXPECT_EQ(run("sort -f", "b\nA\n"), "A\nb\n");
}

TEST(Sort, Unique) {
  EXPECT_EQ(run("sort -u", "b\na\nb\na\n"), "a\nb\n");
}

TEST(Sort, KeyNumeric) {
  EXPECT_EQ(run("sort -k1n", "10 a\n2 b\n"), "2 b\n10 a\n");
}

// GNU-compat -n edge cases: parse_numeric skips leading blanks, reads an
// optional '-' and digits, and treats anything non-numeric as 0. These lock
// in the tie orders the external merge (stream/spill.*) must reproduce.

TEST(Sort, NumericLeadingBlanksIgnored) {
  // "  10" parses as 10 despite the indent, like GNU sort -n (implicit -b).
  EXPECT_EQ(run("sort -n", "  10\n9\n 2\n"), " 2\n9\n  10\n");
}

TEST(Sort, NumericBareMinusCountsAsZero) {
  // A bare "-" has a sign but no digits: value 0, not negative infinity.
  // Ties against other zeros break bytewise ('-' 0x2D < '0' 0x30).
  EXPECT_EQ(run("sort -n", "1\n-\n0\n-1\n"), "-1\n-\n0\n1\n");
}

TEST(Sort, NumericNonNumericPrefixesTieAsZero) {
  // "abc" and "xyz" both parse as 0: they tie with "0" numerically and the
  // last-resort bytewise comparison orders the group.
  EXPECT_EQ(run("sort -n", "xyz\n1\nabc\n0\n"), "0\nabc\nxyz\n1\n");
}

TEST(Sort, NumericStableKeepsTieInputOrder) {
  // -s drops the last-resort comparison: all-zero keys keep input order.
  EXPECT_EQ(run("sort -ns", "xyz\nabc\n0\nmno\n"), "xyz\nabc\n0\nmno\n");
}

TEST(Sort, NumericStableStillSortsDistinctKeys) {
  // Distinct keys sort; the two 2-keyed lines keep their input order.
  EXPECT_EQ(run("sort -ns", "2 b\n1 z\n2 a\n"), "1 z\n2 b\n2 a\n");
}

TEST(Sort, NumericUniqueCollapsesZeroTies) {
  // -u compares keys only: every non-numeric line is "0", so one survivor —
  // the first in sorted order (stable, so the first zero-key line seen).
  EXPECT_EQ(run("sort -nu", "xyz\nabc\n1\n0\n"), "xyz\n1\n");
}

TEST(Sort, ParallelFlagIgnored) {
  EXPECT_EQ(run("sort --parallel=1", "b\na\n"), "a\nb\n");
}

TEST(SortSpec, MergePreSortedStreams) {
  auto spec = SortSpec::parse({});
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->merge_streams({"a\nc\n", "b\nd\n"}), "a\nb\nc\nd\n");
}

TEST(SortSpec, MergeNumeric) {
  auto spec = SortSpec::parse({"-n"});
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->merge_streams({"2\n10\n", "3\n"}), "2\n3\n10\n");
}

TEST(SortSpec, IsSortedStream) {
  auto spec = SortSpec::parse({"-n"});
  EXPECT_TRUE(spec->is_sorted_stream("2\n10\n"));
  EXPECT_FALSE(spec->is_sorted_stream("10\n2\n"));
}

// ----------------------------------------------------------------- uniq --

TEST(Uniq, CollapsesAdjacent) {
  EXPECT_EQ(run("uniq", "a\na\nb\na\n"), "a\nb\na\n");
}

TEST(Uniq, CountFormatsWidth7) {
  EXPECT_EQ(run("uniq -c", "a\na\nb\n"), "      2 a\n      1 b\n");
}

TEST(Uniq, CountEmptyLines) {
  EXPECT_EQ(run("uniq -c", "\n\n\n"), "      3 \n");
}

TEST(Uniq, EmptyInput) { EXPECT_EQ(run("uniq -c", ""), ""); }

// ------------------------------------------------------------------- wc --

TEST(Wc, CountLines) {
  EXPECT_EQ(run("wc -l", "a\nb\nc\n"), "3\n");
  EXPECT_EQ(run("wc -l", ""), "0\n");
}

TEST(Wc, CountWords) {
  EXPECT_EQ(run("wc -w", "one two\nthree\n"), "3\n");
}

TEST(Wc, CountBytes) {
  EXPECT_EQ(run("wc -c", "abc\n"), "4\n");
}

TEST(Wc, DefaultThreeColumns) {
  EXPECT_EQ(run("wc", "a b\n"), "      1       2       4\n");
}

// ----------------------------------------------------------------- grep --

TEST(Grep, SelectsMatchingLines) {
  EXPECT_EQ(run("grep light", "daylight\ndark\nlights\n"),
            "daylight\nlights\n");
}

TEST(Grep, CountFlag) {
  EXPECT_EQ(run("grep -c light", "daylight\ndark\n"), "1\n");
  EXPECT_EQ(run("grep -c light", "dark\n"), "0\n");
}

TEST(Grep, InvertFlag) {
  EXPECT_EQ(run("grep -v '^0$'", "1\n0\n02\n"), "1\n02\n");
}

TEST(Grep, InvertCount) {
  EXPECT_EQ(run("grep -vc x", "x\ny\nz\n"), "2\n");
}

TEST(Grep, CaseInsensitive) {
  EXPECT_EQ(run("grep -i '[aeiou]'", "SKY\nAloud\n"), "Aloud\n");
}

TEST(Grep, ExitStatusReflectsSelection) {
  EXPECT_EQ(exec("grep x", "x\n").status, 0);
  EXPECT_EQ(exec("grep x", "y\n").status, 1);
}

TEST(Grep, FourLetterWords) {
  EXPECT_EQ(run("grep -c '^....$'", "word\nabcde\nfour\n"), "2\n");
}

// ------------------------------------------------------------------ cut --

TEST(Cut, CharacterRanges) {
  EXPECT_EQ(run("cut -c 1-4", "abcdefg\nxy\n"), "abcd\nxy\n");
  EXPECT_EQ(run("cut -c 1-1", "abc\n"), "a\n");
  EXPECT_EQ(run("cut -c 3-3", "abc\n"), "c\n");
}

TEST(Cut, FieldsWithDelimiter) {
  EXPECT_EQ(run("cut -d ',' -f 1", "a,b,c\n"), "a\n");
  EXPECT_EQ(run("cut -d ',' -f 2", "a,b,c\n"), "b\n");
}

TEST(Cut, FieldListOutputsInInputOrder) {
  // GNU cut ignores the order in the -f list.
  EXPECT_EQ(run("cut -d ',' -f 3,1", "a,b,c\n"), "a,c\n");
  EXPECT_EQ(run("cut -d ',' -f 1,3", "a,b,c\n"), "a,c\n");
}

TEST(Cut, LineWithoutDelimiterPassesThrough) {
  EXPECT_EQ(run("cut -d ',' -f 2", "nodelim\n"), "nodelim\n");
}

TEST(Cut, MissingFieldsAreEmpty) {
  EXPECT_EQ(run("cut -d ',' -f 5", "a,b\n"), "\n");
}

TEST(Cut, TabIsDefaultDelimiter) {
  EXPECT_EQ(run("cut -f 2", "a\tb\tc\n"), "b\n");
}

TEST(Cut, QuoteDelimiter) {
  EXPECT_EQ(run("cut -d '\"' -f 2", "say \"hello world\" now\n"),
            "hello world\n");
}

// ------------------------------------------------------------------ sed --

TEST(Sed, SubstituteFirst) {
  EXPECT_EQ(run("sed s/o/0/", "foo\n"), "f0o\n");
}

TEST(Sed, SubstituteGlobal) {
  EXPECT_EQ(run("sed s/o/0/g", "foo\n"), "f00\n");
}

TEST(Sed, StripTimeOfDay) {
  // analytics-mts: sed 's/T..:..:..//'
  EXPECT_EQ(run("sed 's/T..:..:..//'", "2020-01-05T08:31:22,v1\n"),
            "2020-01-05,v1\n");
}

TEST(Sed, CaptureGroupReplacement) {
  EXPECT_EQ(run("sed 's/T\\(..\\):..:../,\\1/'", "2020-01-05T08:31:22,v1\n"),
            "2020-01-05,08,v1\n");
}

TEST(Sed, PrefixWithSemicolonDelimiter) {
  EXPECT_EQ(run("sed 's;^;pg/;'", "book.txt\n"), "pg/book.txt\n");
}

TEST(Sed, AppendAtEndOfLine) {
  EXPECT_EQ(run("sed s/$/0s/", "196\n197\n"), "1960s\n1970s\n");
}

TEST(Sed, QuitAfterN) {
  EXPECT_EQ(run("sed 2q", "a\nb\nc\nd\n"), "a\nb\n");
  EXPECT_EQ(run("sed 100q", "a\nb\n"), "a\nb\n");
}

TEST(Sed, DeleteLineN) {
  EXPECT_EQ(run("sed 1d", "a\nb\nc\n"), "b\nc\n");
  EXPECT_EQ(run("sed 3d", "a\nb\nc\n"), "a\nb\n");
}

TEST(Sed, DeleteLastLine) {
  EXPECT_EQ(run("sed '$d'", "a\nb\nc\n"), "a\nb\n");
}

// ------------------------------------------------------------------ awk --

TEST(Awk, NumericPatternSelectsLines) {
  EXPECT_EQ(run("awk \"\\$1 >= 1000\"", "1500 x\n30 y\n2000 z\n"),
            "1500 x\n2000 z\n");
}

TEST(Awk, PatternWithPrintAction) {
  EXPECT_EQ(run("awk \"\\$1 >= 2 {print \\$2}\"", "3 cats\n1 dog\n"),
            "cats\n");
}

TEST(Awk, LengthPattern) {
  EXPECT_EQ(run("awk \"length >= 16\"", "short\nthis-is-a-very-long-word\n"),
            "this-is-a-very-long-word\n");
}

TEST(Awk, RebuildRecordSqueezesBlanks) {
  // awk "{$1=$1};1" canonicalizes whitespace.
  EXPECT_EQ(run("awk '{$1=$1};1'", "  a   b \n"), "a b\n");
}

TEST(Awk, PrintSecondThenWhole) {
  EXPECT_EQ(run("awk '{print $2, $0}'", "one two\n"), "two one two\n");
}

TEST(Awk, PrintNf) {
  EXPECT_EQ(run("awk '{print NF}'", "a b c\n\nx\n"), "3\n0\n1\n");
}

TEST(Awk, OfsVariable) {
  EXPECT_EQ(run("awk -v OFS=\"\\t\" '{print $2,$1}'", "a b\n"), "b\ta\n");
}

TEST(Awk, EqualityPattern) {
  EXPECT_EQ(run("awk \"\\$1 == 2 {print \\$2, \\$3}\"", "2 x y\n3 a b\n"),
            "x y\n");
}

TEST(Awk, TruthyConstantRule) {
  EXPECT_EQ(run("awk 1", "a\nb\n"), "a\nb\n");
}

// ----------------------------------------------------------- head / tail --

TEST(Head, DefaultTen) {
  std::string in;
  for (int i = 0; i < 15; ++i) in += std::to_string(i) + "\n";
  std::string expect;
  for (int i = 0; i < 10; ++i) expect += std::to_string(i) + "\n";
  EXPECT_EQ(run("head", in), expect);
}

TEST(Head, DashN) {
  EXPECT_EQ(run("head -n 1", "a\nb\n"), "a\n");
  EXPECT_EQ(run("head -15", "a\nb\n"), "a\nb\n");
  EXPECT_EQ(run("head -n 3", "a\nb\nc\nd\n"), "a\nb\nc\n");
}

TEST(Tail, LastN) {
  EXPECT_EQ(run("tail -n 1", "a\nb\nc\n"), "c\n");
  EXPECT_EQ(run("tail -n 2", "a\nb\nc\n"), "b\nc\n");
}

TEST(Tail, FromLineN) {
  EXPECT_EQ(run("tail +2", "a\nb\nc\n"), "b\nc\n");
  EXPECT_EQ(run("tail +3", "a\nb\nc\n"), "c\n");
  EXPECT_EQ(run("tail -n +2", "a\nb\nc\n"), "b\nc\n");
}

// ----------------------------------------------------------------- comm --

TEST(Comm, SuppressColumns23) {
  vfs::Vfs fs;
  fs.write("dict", "apple\nberry\n");
  EXPECT_EQ(run("comm -23 - dict", "apple\nzebra\n", &fs), "zebra\n");
}

TEST(Comm, ErrorsOnUnsortedInput) {
  vfs::Vfs fs;
  fs.write("dict", "a\nb\n");
  Result r = exec("comm -23 - dict", "z\na\n", &fs);
  EXPECT_NE(r.status, 0);
}

TEST(Comm, AllColumns) {
  vfs::Vfs fs;
  fs.write("dict", "b\nc\n");
  EXPECT_EQ(run("comm - dict", "a\nb\n", &fs), "a\n\t\tb\n\tc\n");
}

// ---------------------------------------------------------------- xargs --

TEST(Xargs, CatConcatenatesFiles) {
  vfs::Vfs fs;
  fs.write("f1", "one\n");
  fs.write("f2", "two\n");
  EXPECT_EQ(run("xargs cat", "f1\nf2\n", &fs), "one\ntwo\n");
}

TEST(Xargs, FileReportsTypes) {
  vfs::Vfs fs;
  fs.write("a.txt", "hello\n");
  EXPECT_EQ(run("xargs file", "a.txt\n", &fs), "a.txt: ASCII text\n");
}

TEST(Xargs, WcPerLine) {
  vfs::Vfs fs;
  fs.write("f1", "x\ny\n");
  fs.write("f2", "z\n");
  EXPECT_EQ(run("xargs -L 1 wc -l", "f1\nf2\n", &fs), "2 f1\n1 f2\n");
}

TEST(Xargs, MissingFileErrors) {
  vfs::Vfs fs;
  EXPECT_NE(exec("xargs cat", "ghost\n", &fs).status, 0);
}

// ----------------------------------------------------------------- misc --

TEST(Rev, ReversesEachLine) {
  EXPECT_EQ(run("rev", "abc\nxy\n"), "cba\nyx\n");
}

TEST(Col, RemovesBackspaceOverstrikes) {
  EXPECT_EQ(run("col -bx", "a\bb\n"), "b\n");
}

TEST(Col, ExpandsTabs) {
  EXPECT_EQ(run("col -bx", "a\tb\n"), "a       b\n");
}

TEST(Fmt, OneWordPerLine) {
  EXPECT_EQ(run("fmt -w1", "one two  three\n"), "one\ntwo\nthree\n");
}

TEST(Fmt, WrapsAtWidth) {
  EXPECT_EQ(run("fmt -w7", "aa bb cc\n"), "aa bb\ncc\n");
}

TEST(Iconv, TransliteratesAccents) {
  EXPECT_EQ(run("iconv -f utf-8 -t ascii//translit", "caf\xC3\xA9\n"),
            "cafe\n");
}

TEST(Iconv, PassesAsciiThrough) {
  EXPECT_EQ(run("iconv -f utf-8 -t ascii//translit", "plain\n"), "plain\n");
}

// ------------------------------------------------------------- registry --

// ---------------------------------------------------------------- paste --
// Goldens from GNU paste under LC_ALL=C.

TEST(Paste, ColumnsFromDashes) {
  EXPECT_EQ(run("paste - -", "a\nb\nc\n"), "a\tb\nc\t\n");
  EXPECT_EQ(run("paste -d , - -", "a\nb\nc\nd\n"), "a,b\nc,d\n");
  EXPECT_EQ(run("paste -d ',;' - - -", "a\nb\nc\nd\n"), "a,b;c\nd,;\n");
  EXPECT_EQ(run("paste -d '\\0,' - - -", "a\nb\nc\nd\ne\n"), "ab,c\nde,\n");
}

TEST(Paste, SerialJoinsAllLines) {
  EXPECT_EQ(run("paste -sd+", "1\n2\n3\n"), "1+2+3\n");
  EXPECT_EQ(run("paste -s", "a\nb"), "a\tb\n");
  EXPECT_EQ(run("paste -s -d ,", "a\nb\nc\n"), "a,b,c\n");
  EXPECT_EQ(run("paste --serial --delimiters=:", "a\nb\nc\n"), "a:b:c\n");
  EXPECT_EQ(run("paste -s -d ''", "a\nb\nc\n"), "abc\n");
}

TEST(Paste, SerialCyclesTheDelimiterList) {
  EXPECT_EQ(run("paste -s -d ',;'", "a\nb\nc\n"), "a,b;c\n");
  EXPECT_EQ(run("paste -s -d ',;'", "a\n\nb\n"), "a,;b\n");
  EXPECT_EQ(run("paste -s -d '\\n\\t\\0x'", "a\nb\nc\nd\ne\n"),
            "a\nb\tcdxe\n");
  EXPECT_EQ(run("paste -s -d '\\q'", "a\nb\nc\n"), "aqbqc\n");
}

TEST(Paste, SerialEdgeCases) {
  EXPECT_EQ(run("paste -s", ""), "\n");
  EXPECT_EQ(run("paste -s -", "a\nb\n"), "a\tb\n");
  // A second dash reads the drained stdin: one more, empty line.
  EXPECT_EQ(run("paste -s - -", "a\nb\nc\n"), "a\tb\tc\n\n");
}

TEST(Paste, RejectsWhatItCannotRun) {
  std::string error;
  EXPECT_EQ(make_command_line("paste -s -d 'x\\'", &error), nullptr);
  EXPECT_NE(error.find("backslash"), std::string::npos) << error;
  EXPECT_EQ(make_command_line("paste -", &error), nullptr);
  EXPECT_EQ(make_command_line("paste -s file", &error), nullptr);
  EXPECT_EQ(make_command_line("paste -z -", &error), nullptr);
}

TEST(Registry, UnknownCommandFails) {
  std::string error;
  EXPECT_EQ(make_command_line("frobnicate -x", &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(Registry, StripsLeadingPath) {
  EXPECT_NE(make_command_line("/usr/bin/sort -n"), nullptr);
}

TEST(Registry, IsBuiltin) {
  EXPECT_TRUE(is_builtin("sort"));
  EXPECT_TRUE(is_builtin("/usr/bin/tr"));
  EXPECT_FALSE(is_builtin("python3"));
}

TEST(Registry, DisplayNameRoundTrips) {
  CommandPtr c = make_command_line("tr -cs A-Za-z '\\n'");
  ASSERT_NE(c, nullptr);
  CommandPtr again = make_command_line(c->display_name());
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->run("a  b\n"), c->run("a  b\n"));
}

}  // namespace
}  // namespace kq::cmd
