// Tests for the parallel runtime: newline-aligned splitting, the thread
// pool, chunk mapping, the fused-chain Cascade and its two drivers, and
// the staged pipeline runner (optimized and unoptimized modes,
// combine-failure fallback).

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "dsl/kway.h"
#include "exec/executor.h"
#include "exec/parallel.h"
#include "exec/runner.h"
#include "exec/splitter.h"
#include "exec/thread_pool.h"
#include "text/streams.h"
#include "unixcmd/registry.h"
#include "unixcmd/sort_cmd.h"

namespace kq::exec {
namespace {

// ------------------------------------------------------------- splitter --

TEST(Splitter, ChunksCoverInputExactly) {
  std::string input;
  for (int i = 0; i < 100; ++i) input += "line" + std::to_string(i) + "\n";
  for (int k : {1, 2, 3, 7, 16}) {
    auto chunks = split_stream(input, k);
    std::string joined;
    for (auto c : chunks) joined += std::string(c);
    EXPECT_EQ(joined, input) << "k=" << k;
    EXPECT_LE(chunks.size(), static_cast<std::size_t>(k));
  }
}

TEST(Splitter, ChunksEndAtLineBoundaries) {
  std::string input;
  for (int i = 0; i < 57; ++i) input += "abcdefg\n";
  auto chunks = split_stream(input, 8);
  for (auto c : chunks) {
    ASSERT_FALSE(c.empty());
    EXPECT_EQ(c.back(), '\n');
  }
}

TEST(Splitter, FewerLinesThanChunks) {
  auto chunks = split_stream("a\nb\n", 16);
  EXPECT_LE(chunks.size(), 2u);
  std::string joined;
  for (auto c : chunks) joined += std::string(c);
  EXPECT_EQ(joined, "a\nb\n");
}

TEST(Splitter, SingleLongLine) {
  std::string input(100000, 'x');
  input.push_back('\n');
  auto chunks = split_stream(input, 4);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], input);
}

TEST(Splitter, RoughlyBalanced) {
  std::string input;
  for (int i = 0; i < 10000; ++i) input += "0123456789\n";
  auto chunks = split_stream(input, 4);
  ASSERT_EQ(chunks.size(), 4u);
  for (auto c : chunks) {
    EXPECT_GT(c.size(), input.size() / 8);
    EXPECT_LT(c.size(), input.size() / 2);
  }
}

// ------------------------------------------------------------ threadpool --

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  int expect = 0;
  for (int i = 0; i < 64; ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 10; ++i)
      pool.submit([&ran] { ++ran; }).wait();
  }
  EXPECT_EQ(ran.load(), 10);
}

// ------------------------------------------------------------ map chunks --

TEST(MapChunks, PreservesOrder) {
  ThreadPool pool(4);
  cmd::CommandPtr upper = cmd::make_command_line("tr a-z A-Z");
  std::vector<std::string_view> chunks = {"a\n", "b\n", "c\n", "d\n"};
  auto outputs = map_chunks(*upper, chunks, pool);
  ASSERT_EQ(outputs.size(), 4u);
  EXPECT_EQ(outputs[0], "A\n");
  EXPECT_EQ(outputs[3], "D\n");
}

TEST(MapChunksChain, AppliesStagesInOrder) {
  ThreadPool pool(2);
  cmd::CommandPtr upper = cmd::make_command_line("tr a-z A-Z");
  cmd::CommandPtr rev = cmd::make_command_line("rev");
  std::vector<const cmd::Command*> chain = {upper.get(), rev.get()};
  auto outputs = map_chunks_chain(chain, {"abc\n"}, pool);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0], "CBA\n");
}

// -------------------------------------------------------------- cascade --

// Differential: one fused chain through exec::Cascade's two drivers —
// run_slice_fused (the parallel worker body) and a k=1 stream-chain node —
// at several step sizes, against chained Command::run.
// `grep | head -n 3 | tr` has a prefix member mid-chain (the cascade is
// satisfied early and its tail flush skips the members before head);
// `tr -s ' ' | uniq -c` ends in a window terminal. The `lag` variants put
// finish() tails on both sides of the prefix member and into the window.
std::string cascade_input() {
  std::string input;
  const char* lines[] = {"a  b   c", "b a", "b a", "  spaced  out  ", "xyz",
                         "aaa",      "aaa", "b",   "cab  cab",        ""};
  for (int rep = 0; rep < 40; ++rep)
    for (const char* l : lines) input += std::string(l) + "\n";
  input += "a tail   without newline";
  return input;
}

// An identity command whose processor emits each block one call late, so
// its output tail arrives only through finish() — the path the cascade's
// end-of-input flush exists for (the built-in processors emit everything
// in process()).
class LagCommand final : public cmd::Command {
 public:
  LagCommand() : Command("lag") {}
  cmd::Result execute(std::string_view input) const override {
    return {std::string(input), 0, {}};
  }
  cmd::Streamability streamability() const override {
    return cmd::Streamability::kPerRecord;
  }
  std::unique_ptr<cmd::StreamProcessor> stream_processor() const override {
    struct Lag final : cmd::StreamProcessor {
      std::string held;
      bool process(std::string_view block, std::string* out) override {
        out->append(held);
        held.assign(block);
        return true;
      }
      void finish(std::string* out) override { out->append(held); }
    };
    return std::make_unique<Lag>();
  }
};

cmd::CommandPtr make_stage(const std::string& name) {
  if (name == "lag") return std::make_shared<LagCommand>();
  return cmd::make_command_line(name);
}

// The chain as sequential stages, tagged with the memory classes
// compile::lower_plan gives them, so the stream runtime fuses them into
// one stream-chain node.
std::vector<ExecStage> sequential_stages(
    const std::vector<cmd::CommandPtr>& commands) {
  std::vector<ExecStage> stages;
  for (const cmd::CommandPtr& c : commands) {
    ExecStage s;
    s.command = c;
    s.memory_class = c->streamability() == cmd::Streamability::kWindow
                         ? MemoryClass::kWindowStream
                         : MemoryClass::kStatelessStream;
    stages.push_back(std::move(s));
  }
  return stages;
}

TEST(Cascade, DriversMatchChainedRun) {
  const std::vector<std::vector<std::string>> chains = {
      {"grep a", "head -n 3", "tr a-z A-Z"},
      {"tr -s ' '", "uniq -c"},
      {"lag", "grep a", "head -n 3", "lag", "tr a-z A-Z"},
      {"tr -s ' '", "lag", "uniq -c"},
  };
  const std::string input = cascade_input();
  for (const auto& names : chains) {
    std::vector<cmd::CommandPtr> owned;
    std::vector<const cmd::Command*> chain;
    std::string expect = input;
    for (const std::string& name : names) {
      owned.push_back(make_stage(name));
      ASSERT_NE(owned.back(), nullptr) << name;
      chain.push_back(owned.back().get());
      expect = owned.back()->run(expect);
    }
    std::string label;
    for (const std::string& name : names)
      label += (label.empty() ? "" : " | ") + name;
    ASSERT_FALSE(expect.empty()) << label;
    for (std::size_t step : {std::size_t(1), std::size_t(7),
                             std::size_t(64) << 10}) {
      EXPECT_EQ(run_slice_fused(chain, input, step), expect)
          << label << " step=" << step;
      ExecOptions options;
      options.parallelism = 1;
      options.block_size = step;
      ExecResult r = Executor(options).run_collect(
          sequential_stages(owned), input);
      ASSERT_TRUE(r.ok) << r.error;
      ASSERT_EQ(r.nodes.size(), 1u) << label;
      EXPECT_TRUE(r.nodes[0].per_block) << label;
      EXPECT_EQ(r.output, expect) << label << " step=" << step;
    }
  }
}

TEST(Cascade, SatisfiedPrefixStopsFeeding) {
  cmd::CommandPtr head = cmd::make_command_line("head -n 2");
  cmd::CommandPtr upper = cmd::make_command_line("tr a-z A-Z");
  const std::vector<const cmd::Command*> chain = {head.get(), upper.get()};
  Cascade cascade(chain);
  ASSERT_EQ(cascade.members(), 2u);
  EXPECT_EQ(cascade.window(), nullptr);
  std::string out;
  cascade.feed("a\n", &out);
  EXPECT_FALSE(cascade.satisfied());
  cascade.feed("b\nc\n", &out);
  EXPECT_TRUE(cascade.satisfied());
  cascade.feed("d\n", &out);  // past the bound: appends nothing
  cascade.flush(&out);
  EXPECT_EQ(out, "A\nB\n");
}

TEST(Cascade, TakesTheLongestCascadablePrefix) {
  cmd::CommandPtr grep = cmd::make_command_line("grep a");
  cmd::CommandPtr uniq = cmd::make_command_line("uniq");
  cmd::CommandPtr sort = cmd::make_command_line("sort");
  const std::vector<const cmd::Command*> chain = {grep.get(), uniq.get(),
                                                  sort.get()};
  Cascade cascade(chain);
  EXPECT_EQ(cascade.members(), 2u);  // a window ends the run
  EXPECT_NE(cascade.window(), nullptr);
  const std::vector<const cmd::Command*> black_box = {sort.get()};
  EXPECT_EQ(Cascade(black_box).members(), 0u);
}

// --------------------------------------------------------------- runner --

std::vector<ExecStage> word_count_stages() {
  // tr A-Z a-z | sort | uniq -c  with hand-built combiners.
  std::vector<ExecStage> stages;
  {
    ExecStage s;
    s.command = cmd::make_command_line("tr A-Z a-z");
    s.parallel = true;
    s.eliminate_combiner = true;
    s.combiner_name = "(concat a b)";
    s.combine = [](const std::vector<std::string>& parts)
        -> std::optional<std::string> {
      std::string out;
      for (const auto& p : parts) out += p;
      return out;
    };
    stages.push_back(std::move(s));
  }
  {
    ExecStage s;
    s.command = cmd::make_command_line("sort");
    s.parallel = true;
    s.combiner_name = "(merge a b)";
    s.combine = [](const std::vector<std::string>& parts)
        -> std::optional<std::string> {
      auto spec = cmd::SortSpec::parse({});
      std::vector<std::string_view> views(parts.begin(), parts.end());
      return spec->merge_streams(views);
    };
    stages.push_back(std::move(s));
  }
  {
    ExecStage s;
    s.command = cmd::make_command_line("uniq -c");
    s.parallel = true;
    s.combiner_name = "((stitch2 ' ' add first) a b)";
    dsl::Combiner saf = dsl::combiner_stitch2_add_first(' ');
    s.combine = [saf](const std::vector<std::string>& parts) {
      return dsl::combine_k(saf, parts);
    };
    stages.push_back(std::move(s));
  }
  return stages;
}

std::string sample_words() {
  std::string input;
  const char* words[] = {"apple", "Pear", "fig", "apple", "FIG", "plum"};
  for (int rep = 0; rep < 50; ++rep)
    for (const char* w : words) input += std::string(w) + "\n";
  return input;
}

// The staged batch runtime through the facade, at parallelism k.
ExecResult run_batch(const std::vector<ExecStage>& stages,
                     std::string_view input, int k, bool use_elimination) {
  ExecOptions options;
  options.mode = ExecMode::kBatch;
  options.parallelism = k;
  options.use_elimination = use_elimination;
  return Executor(options).run_collect(stages, input);
}

TEST(Runner, SerialMatchesDirectComposition) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  ExecResult serial = run_serial(stages, input);
  std::string expect = input;
  for (const auto& s : stages) expect = s.command->run(expect);
  EXPECT_EQ(serial.output, expect);
  EXPECT_EQ(serial.nodes.size(), 3u);
}

TEST(Runner, ParallelUnoptimizedMatchesSerial) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  ExecResult serial = run_serial(stages, input);
  for (int k : {2, 3, 8}) {
    ExecResult parallel =
        run_batch(stages, input, k, /*use_elimination=*/false);
    EXPECT_EQ(parallel.output, serial.output) << "k=" << k;
    for (const auto& m : parallel.nodes) {
      EXPECT_FALSE(m.combiner_eliminated);
      EXPECT_FALSE(m.combine_fallback) << m.commands;
    }
  }
}

TEST(Runner, ParallelOptimizedMatchesSerial) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  ExecResult serial = run_serial(stages, input);
  ExecResult parallel = run_batch(stages, input, 4, /*use_elimination=*/true);
  EXPECT_EQ(parallel.output, serial.output);
  EXPECT_TRUE(parallel.nodes[0].combiner_eliminated);
  EXPECT_FALSE(parallel.nodes[1].combiner_eliminated);
}

TEST(Runner, SequentialStageAfterEliminatedConcat) {
  // An eliminated combiner followed by a sequential stage must restore the
  // stream by concatenation.
  auto stages = word_count_stages();
  stages[1].parallel = false;  // force sort sequential
  std::string input = sample_words();
  ExecResult serial = run_serial(stages, input);
  ExecResult parallel = run_batch(stages, input, 4, true);
  EXPECT_EQ(parallel.output, serial.output);
}

TEST(Runner, CombineFailureFallsBackToSerial) {
  std::vector<ExecStage> stages;
  ExecStage s;
  s.command = cmd::make_command_line("tr a-z A-Z");
  s.parallel = true;
  s.combiner_name = "(broken)";
  s.combine = [](const std::vector<std::string>&)
      -> std::optional<std::string> { return std::nullopt; };
  stages.push_back(std::move(s));
  ExecResult r = run_batch(stages, "ab\ncd\nef\ngh\n", 2, true);
  EXPECT_EQ(r.output, "AB\nCD\nEF\nGH\n");
  EXPECT_TRUE(r.nodes[0].combine_fallback);
}

TEST(Runner, ParallelismOneIsSerial) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  ExecResult r = run_batch(stages, input, 1, true);
  EXPECT_EQ(r.output, run_serial(stages, input).output);
  for (const auto& m : r.nodes) EXPECT_FALSE(m.parallel);
}

TEST(Runner, MetricsAccounting) {
  auto stages = word_count_stages();
  std::string input = sample_words();
  ExecResult r = run_batch(stages, input, 2, true);
  ASSERT_EQ(r.nodes.size(), 3u);
  EXPECT_EQ(r.nodes[0].in_bytes, input.size());
  EXPECT_GT(r.nodes[2].out_bytes, 0u);
  EXPECT_EQ(r.nodes[0].chunks, 2);
}

}  // namespace
}  // namespace kq::exec
