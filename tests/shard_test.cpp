// Tests for the streaming runtime's parallel segments: every one runs its
// fused chain over record-aligned slices (exec::run_slice_fused) feeding
// the incremental combining tree. Cross-validates the whole 70-script
// catalog at k in {2, 4, 8} against the serial oracle, plus a forced-spill
// run, a downstream-close (`| head`) early exit that cancels in-flight
// slices, and the slice telemetry contract.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "bench_support/catalog.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "unixcmd/registry.h"

namespace kq {
namespace {

synth::SynthesisCache& shared_cache() {
  static synth::SynthesisCache c;
  return c;
}

vfs::Vfs& shared_fs() {
  static vfs::Vfs v;
  return v;
}

std::vector<exec::ExecStage> compile_stages(const std::string& pipeline,
                                            vfs::Vfs* fs = nullptr) {
  auto parsed = compile::parse_pipeline(pipeline);
  EXPECT_TRUE(parsed.has_value()) << pipeline;
  compile::Plan plan =
      compile::compile_pipeline(*parsed, shared_cache(), {}, fs);
  compile::rewrite_bounded_windows(plan);
  compile::eliminate_intermediate_combiners(plan);
  return compile::lower_plan(plan);
}

kq::ExecOptions stream_options(int k, std::size_t block_size) {
  kq::ExecOptions o;
  o.mode = kq::ExecMode::kStream;
  o.parallelism = k;
  o.block_size = block_size;
  return o;
}

// ------------------------------------------------------ slice telemetry --

// Every parallel segment runs exec::run_slice_fused over slices, whatever
// its members' streamability: a per-record chain cascades through stream
// processors, while plain sort (merge combiner, kNone) and awk (concat
// combiner, kNone) run whole on each slice.
TEST(ShardDataflow, EligibleSegmentRunsShardedWithSliceTelemetry) {
  std::string input;
  for (int i = 0; i < 4000; ++i)
    input += "alpha beta gamma line " + std::to_string((i * 7919) % 4000) +
             "\n";

  for (const char* pipeline :
       {"tr a-z A-Z | grep A", "sort", "awk '{print $5}'"}) {
    auto stages = compile_stages(pipeline);
    kq::ExecOptions options = stream_options(4, 2048);
    options.stats = true;
    kq::Executor executor(options);
    kq::ExecResult r = executor.run_collect(stages, input);
    ASSERT_TRUE(r.ok) << pipeline << ": " << r.error;
    EXPECT_FALSE(r.batch_fallback) << pipeline;
    EXPECT_EQ(r.output, exec::run_serial(stages, input).output) << pipeline;
    ASSERT_EQ(r.nodes.size(), 1u) << pipeline;  // one parallel segment
    EXPECT_TRUE(r.nodes[0].parallel) << pipeline;
    EXPECT_GT(r.nodes[0].shard_slices, 0u) << pipeline;
    EXPECT_GT(r.nodes[0].worker_busy_ns, 0u) << pipeline;
  }
}

// ---------------------------------------------------- forced-spill slices --

TEST(ShardDataflow, ForcedSpillShardedSortMatchesSerial) {
  // sort -u's distinct set is its window; when the merge node's
  // accumulation outgrows the spill threshold it drains sorted runs for
  // the external merge.
  auto stages = compile_stages("tr A-Z a-z | sort -u");
  std::string input;
  for (int i = 0; i < 3000; ++i)
    input += "Word-" + std::to_string((i * 7919) % 997) + " Tail-" +
             std::to_string(i) + "\n";

  kq::ExecOptions options = stream_options(4, 1024);
  options.spill_threshold = 2048;  // force the merge node onto disk
  options.stats = true;
  kq::Executor executor(options);
  kq::ExecResult r = executor.run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.batch_fallback);
  EXPECT_EQ(r.output, exec::run_serial(stages, input).output);
  EXPECT_GT(r.spilled_bytes, 0u);
  bool any_spill = false;
  for (const NodeMetrics& n : r.nodes)
    if (n.spill_runs > 0) any_spill = true;
  EXPECT_TRUE(any_spill) << "expected a node with sorted spill runs";
}

// ------------------------------------------------- downstream-close early --

TEST(ShardDataflow, DownstreamHeadCancelsInflightShards) {
  auto stages = compile_stages("grep line | head -n 10");
  ASSERT_EQ(stages.size(), 2u);
  std::string input;
  for (int i = 0; i < 200000; ++i)
    input += "line " + std::to_string(i) + " padding padding padding\n";

  kq::ExecOptions options = stream_options(4, 4096);
  kq::Executor executor(options);
  kq::ExecResult r = executor.run_collect(stages, input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, exec::run_serial(stages, input).output);
  // grep runs parallel; head stays its own (prefix-bounded) node.
  ASSERT_EQ(r.nodes.size(), 2u);
  EXPECT_EQ(r.nodes[0].commands, "grep line");
  EXPECT_TRUE(r.nodes[0].parallel);
  EXPECT_EQ(r.nodes[1].commands, "head -n 10");
  EXPECT_FALSE(r.nodes[1].parallel);
  // head satisfied after 10 records: upstream cancellation must stop the
  // reader long before the ~6 MiB input drains.
  EXPECT_LT(r.bytes_read, input.size() / 4)
      << "early exit did not cancel in-flight slices";
}

// ------------------------------------------------ catalog cross-validation --

// Every catalog pipeline, streamed through the parallel runtime at k in
// {2, 4, 8} with small blocks (so parallel segments see many slices), must
// stay byte-identical to the serial oracle.
class ShardCatalogCrossval
    : public ::testing::TestWithParam<const bench::Script*> {};

TEST_P(ShardCatalogCrossval, ShardedStreamingMatchesSerial) {
  const bench::Script& script = *GetParam();
  std::string input = bench::prepare_input(script, 24 * 1024, 7, shared_fs());

  for (const std::string& pipeline : script.pipelines) {
    auto parsed = compile::parse_pipeline(pipeline);
    ASSERT_TRUE(parsed.has_value()) << pipeline;
    compile::Plan plan =
        compile::compile_pipeline(*parsed, shared_cache(), {}, &shared_fs());
    compile::eliminate_intermediate_combiners(plan);
    auto stages = compile::lower_plan(plan);

    std::string serial = exec::run_serial(stages, input).output;
    for (int k : {2, 4, 8}) {
      kq::Executor executor(stream_options(k, 2048));
      kq::ExecResult r = executor.run_collect(stages, input);
      EXPECT_TRUE(r.ok) << pipeline << " k=" << k << ": " << r.error;
      EXPECT_FALSE(r.batch_fallback)
          << pipeline << " k=" << k << ": incremental combine bailed";
      EXPECT_EQ(r.output, serial)
          << script.suite << "/" << script.name << ": " << pipeline
          << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScripts, ShardCatalogCrossval,
    ::testing::ValuesIn([] {
      std::vector<const bench::Script*> ptrs;
      for (const bench::Script& s : bench::all_scripts()) ptrs.push_back(&s);
      return ptrs;
    }()),
    [](const ::testing::TestParamInfo<const bench::Script*>& info) {
      std::string name = info.param->suite + "_" + info.param->name;
      std::string out;
      for (char c : name)
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      return out;
    });

}  // namespace
}  // namespace kq
