// Tests for the kq::Executor facade (exec/executor.h): every mode
// (serial / batch / stream) over both source shapes (string / fd) must
// produce byte-identical output, options must resolve the unified
// parallelism default, and the string-source stream path must rerun an
// undefined combine through the batch runtime.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "unixcmd/registry.h"

namespace kq {
namespace {

std::vector<exec::ExecStage> compile_stages(const std::string& pipeline) {
  auto parsed = compile::parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.has_value()) << pipeline;
  static synth::SynthesisCache cache;
  compile::Plan plan = compile::compile_pipeline(*parsed, cache);
  compile::eliminate_intermediate_combiners(plan);
  return compile::lower_plan(plan);
}

std::string sample_input() {
  std::string input;
  for (int i = 0; i < 1500; ++i)
    input += "alpha Beta gamma-" + std::to_string(i % 97) + " delta\n";
  return input;
}

// A temp file holding `bytes`, rewound to the start; returns its fd.
int fd_with(const std::string& bytes, FILE** keepalive) {
  FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  fwrite(bytes.data(), 1, bytes.size(), f);
  fflush(f);
  rewind(f);
  *keepalive = f;
  return fileno(f);
}

TEST(Executor, DefaultParallelismIsHardwareDerivedAndCapped) {
  int d = default_parallelism();
  EXPECT_GE(d, 1);
  EXPECT_LE(d, 16);
  Executor defaulted;
  EXPECT_EQ(defaulted.options().parallelism, d);
  ExecOptions explicit_k;
  explicit_k.parallelism = 3;
  Executor chosen(explicit_k);
  EXPECT_EQ(chosen.options().parallelism, 3);
}

TEST(Executor, AllModesAllSourcesByteIdentical) {
  auto stages = compile_stages("tr a-z A-Z | grep ALPHA | wc -l");
  const std::string input = sample_input();
  const std::string golden = exec::run_serial(stages, input).output;
  ASSERT_FALSE(golden.empty());

  for (ExecMode mode :
       {ExecMode::kSerial, ExecMode::kBatch, ExecMode::kStream}) {
    ExecOptions options;
    options.mode = mode;
    options.parallelism = 4;
    options.block_size = 2048;
    Executor executor(options);

    // String source, collected.
    kq::ExecResult from_string = executor.run_collect(stages, input);
    ASSERT_TRUE(from_string.ok) << exec_mode_name(mode) << ": "
                                << from_string.error;
    EXPECT_EQ(from_string.output, golden) << exec_mode_name(mode);

    // String source through the sink overload.
    std::string sunk;
    kq::ExecResult to_sink = executor.run(
        stages, input, [&sunk](std::string_view bytes) {
          sunk.append(bytes);
          return true;
        });
    ASSERT_TRUE(to_sink.ok) << exec_mode_name(mode) << ": "
                            << to_sink.error;
    EXPECT_EQ(sunk, golden) << exec_mode_name(mode);

    // fd source through the ostream overload.
    FILE* keepalive = nullptr;
    int fd = fd_with(input, &keepalive);
    std::ostringstream out;
    kq::ExecResult from_fd =
        executor.run(stages, Source::from_fd(fd), out);
    ASSERT_TRUE(from_fd.ok) << exec_mode_name(mode) << ": " << from_fd.error;
    EXPECT_EQ(out.str(), golden) << exec_mode_name(mode);
    fclose(keepalive);
  }
}

TEST(Executor, StreamModeReportsStreamTelemetry) {
  auto stages = compile_stages("grep alpha");
  const std::string input = sample_input();
  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 1024;
  Executor executor(options);
  kq::ExecResult r = executor.run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.bytes_read, input.size());
  EXPECT_GT(r.peak_inflight_bytes, 0u);
  EXPECT_FALSE(r.nodes.empty());
}

TEST(Executor, BatchModeReportsOneNodePerStage) {
  auto stages = compile_stages("tr a-z A-Z | wc -l");
  ExecOptions options;
  options.mode = ExecMode::kBatch;
  options.parallelism = 2;
  Executor executor(options);
  kq::ExecResult r = executor.run_collect(stages, sample_input());
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.nodes.size(), 2u);
  EXPECT_EQ(r.nodes[0].commands, "tr a-z A-Z");
  EXPECT_TRUE(r.nodes[0].parallel);
  EXPECT_FALSE(r.nodes[0].combiner.empty());
  EXPECT_GT(r.nodes[0].in_bytes, 0u);
}

TEST(Executor, SinkFalseStopsEarly) {
  auto stages = compile_stages("grep alpha");
  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 512;
  Executor executor(options);
  // The fd source delivers block by block (a string source hands its
  // buffered output over once).
  FILE* keepalive = nullptr;
  int fd = fd_with(sample_input(), &keepalive);
  int deliveries = 0;
  kq::ExecResult r =
      executor.run(stages, Source::from_fd(fd), [&](std::string_view) {
        return ++deliveries < 2;  // close after the second delivery
      });
  fclose(keepalive);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.stopped_early);
}

TEST(Executor, StringSourceStreamFallsBackToBatchOnUndefinedCombine) {
  // A deliberately broken combiner: streaming must bail mid-fold, and the
  // string source (the only shape whose input is still at hand) must rerun
  // through the batch path exactly once — no duplicated prefix.
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  s.command = cmd::make_command_line("tr a-z A-Z");
  s.parallel = true;
  s.combiner_name = "(broken)";
  s.combine = [](const std::vector<std::string>&)
      -> std::optional<std::string> { return std::nullopt; };
  stages.push_back(std::move(s));

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 4;
  Executor executor(options);
  kq::ExecResult r = executor.run_collect(stages, "ab\ncd\nef\ngh\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.batch_fallback);
  EXPECT_EQ(r.output, "AB\nCD\nEF\nGH\n");
}

TEST(Executor, StringSourceFallbackFailureFailsTheRun) {
  // The batch rerun of an undefined combine can fail as well (here the
  // rerun's whole-input run is the one input the command rejects): the run
  // must then fail with the stage's diagnostic and no output, not throw.
  std::vector<exec::ExecStage> stages;
  exec::ExecStage s;
  s.command = cmd::make_lambda_command("upper", [](std::string_view in) {
    if (in.size() > 12) throw cmd::CommandFailure("[KQ-TEST] input too long");
    std::string out(in);
    for (char& c : out) c = static_cast<char>(std::toupper(c));
    return out;
  });
  s.parallel = true;
  s.combiner_name = "(broken)";
  s.combine = [](const std::vector<std::string>&)
      -> std::optional<std::string> { return std::nullopt; };
  stages.push_back(std::move(s));

  ExecOptions options;
  options.parallelism = 2;
  options.block_size = 4;
  // Stream slices and the two batch chunks stay within 12 bytes; only the
  // rerun's whole 24-byte input is rejected.
  ExecResult r = Executor(options).run_collect(
      stages, "ab\ncd\nef\ngh\nij\nkl\nmn\nop\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("[KQ-TEST]"), std::string::npos) << r.error;
  EXPECT_EQ(r.output, "");
}

TEST(Executor, FinalGrepSelectingNothingExitsOne) {
  // `kumquat run` exits with the final stage's status, decided from the
  // start of its output: GNU grep exits 1 when it selects no line, also
  // under -c, where it still prints the count 0.
  const std::string input = sample_input();
  struct Leg {
    const char* pipeline;
    const char* output;  // nullptr: any non-empty output
    int status;
  };
  const Leg legs[] = {{"grep -c y", "0\n", 1},
                      {"grep -c alpha", "1500\n", 0},
                      {"grep y", "", 1},
                      {"grep alpha", nullptr, 0},
                      {"wc -l", "1500\n", 0}};
  for (int k : {1, 4}) {
    for (const Leg& leg : legs) {
      auto stages = compile_stages(leg.pipeline);
      ExecOptions options;
      options.parallelism = k;
      options.block_size = 1024;  // many chunks at k = 4
      ExecResult r = Executor(options).run_collect(stages, input);
      std::string where = leg.pipeline;
      where += " k=";
      where += std::to_string(k);
      ASSERT_TRUE(r.ok) << where << ": " << r.error;
      if (leg.output) {
        EXPECT_EQ(r.output, leg.output) << where;
      } else {
        EXPECT_FALSE(r.output.empty()) << where;
      }
      const std::string prefix =
          r.output.substr(0, cmd::Command::kStatusPrefixBytes);
      EXPECT_EQ(stages.back().command->exit_status(prefix), leg.status)
          << where;
    }
  }
}

TEST(Executor, CommandFailureFailsTheRunInEveryMode) {
  // A backreference pattern that runs out of its step budget: every mode
  // must fail the run with the coded diagnostic instead of passing on the
  // lines matched so far.
  auto stages = compile_stages("grep '\\(a*\\)*\\1b' | tr a-z A-Z");
  const std::string input =
      "ab line\n" + std::string(28, 'a') + "xb\nmore ab\n";
  for (ExecMode mode :
       {ExecMode::kSerial, ExecMode::kBatch, ExecMode::kStream}) {
    ExecOptions options;
    options.mode = mode;
    options.parallelism = 2;
    Executor executor(options);
    ExecResult r = executor.run_collect(stages, input);
    EXPECT_FALSE(r.ok) << exec_mode_name(mode);
    EXPECT_NE(r.error.find("[KQ-REGEX]"), std::string::npos)
        << exec_mode_name(mode) << ": " << r.error;
  }
}

TEST(Executor, UnknownStageFailsTheRunInEveryMode) {
  // An unknown command has no right output: running it fails the run with
  // [KQ-EXEC] and delivers nothing, alone and ahead of a parallel stage.
  const std::string input = sample_input();
  struct Leg {
    ExecMode mode;
    int parallelism;
  };
  for (const char* pipeline : {"frobnicate", "frobnicate | wc -l"}) {
    auto stages = compile_stages(pipeline);
    for (Leg leg : {Leg{ExecMode::kSerial, 1}, Leg{ExecMode::kBatch, 4},
                    Leg{ExecMode::kStream, 1}, Leg{ExecMode::kStream, 4}}) {
      ExecOptions options;
      options.mode = leg.mode;
      options.parallelism = leg.parallelism;
      ExecResult r = Executor(options).run_collect(stages, input);
      std::string where = pipeline;
      where += ' ';
      where += exec_mode_name(leg.mode);
      where += " k=";
      where += std::to_string(leg.parallelism);
      EXPECT_FALSE(r.ok) << where;
      EXPECT_NE(r.error.find("[KQ-EXEC]"), std::string::npos)
          << where << ": " << r.error;
      EXPECT_EQ(r.output, "") << where;
    }
  }
}

TEST(Executor, BatchFailureWaitsForEveryChunk) {
  // The failing line opens the first chunk, and every other chunk is a
  // long run of lines that each need the backtracker (they hold the 'b'):
  // the run must fail only after those chunks' tasks, which read the input
  // and the stage chain, have finished (a sanitizer build catches a task
  // that outlives them).
  auto stages = compile_stages("grep '\\(a*\\)*\\1b' | tr a-z A-Z");
  std::string input = std::string(28, 'a') + "xb\n";
  while (input.size() < (8u << 20)) input += "tail line b\n";
  for (int parallelism : {4, 16}) {
    ExecOptions options;
    options.mode = ExecMode::kBatch;
    options.parallelism = parallelism;
    Executor executor(options);
    for (int round = 0; round < 3; ++round) {
      ExecResult r = executor.run_collect(stages, input);
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find("[KQ-REGEX]"), std::string::npos) << r.error;
    }
  }
}

}  // namespace
}  // namespace kq
