// The execution facade and the only way to run a pipeline: one options
// struct (ExecOptions), one input shape (Source: a string or a file
// descriptor), one result shape (ExecResult; both in exec/exec_types.h).
// Behind it sit the streaming dataflow (stream::run_dataflow), the staged
// batch runner (exec::run_pipeline) and the serial reference
// (exec::run_serial, also the tests' cross-validation oracle).
//
// Mode semantics:
//   kStream (default) — the dataflow runtime: record-aligned blocks,
//     bounded channels, fused stream chains, parallel segments,
//     spill. Memory O(k · window + in-flight budget) regardless of input.
//   kBatch  — the paper's staged runner: input slurped whole, stage
//     barriers, k-way split + combine. Memory O(input).
//   kSerial — the reference: every stage whole-stream, no parallelism.
//
// Parallelism default: ExecOptions::parallelism == 0 derives
// default_parallelism() = min(max(1, std::thread::hardware_concurrency()),
// 16) — one worker per hardware thread, capped because the in-flight
// memory budget and combine fan-in grow with k while the paper's scaling
// (Table 5/6) flattens past 16. Both the CLI's --jobs/-k and every mode of
// the facade resolve the same default.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/exec_types.h"
#include "exec/runner.h"
#include "exec/thread_pool.h"

namespace kq {

// The hardware-derived parallelism used when ExecOptions::parallelism is 0.
int default_parallelism();

// Where the input bytes come from: an in-memory string or a file
// descriptor. Small value type: the referenced bytes must outlive the
// run() call, and the fd stays the caller's to close (the Executor never
// owns either).
class Source {
 public:
  Source(std::string_view bytes) : bytes_(bytes) {}
  Source(const std::string& bytes) : bytes_(bytes) {}
  Source(const char* bytes) : bytes_(bytes) {}
  static Source from_fd(int fd) {
    Source s;
    s.is_fd_ = true;
    s.fd_ = fd;
    return s;
  }

 private:
  friend class Executor;
  Source() = default;
  bool is_fd_ = false;
  std::string_view bytes_;
  int fd_ = -1;
};

// The facade. Owns its worker pool (sized to the resolved parallelism,
// created lazily on first parallel use), so constructing one per
// configuration is cheap and running many pipelines through it amortizes
// thread startup.
class Executor {
 public:
  explicit Executor(ExecOptions options = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // The options with the parallelism default resolved.
  const ExecOptions& options() const { return options_; }

  // Drains `input` through the pipeline into `sink` (streaming delivery;
  // batch/serial modes, and stream mode over a string source, invoke the
  // sink once with the whole output).
  ExecResult run(const std::vector<exec::ExecStage>& stages, Source input,
                 const Sink& sink);

  // Same, writing to an ostream.
  ExecResult run(const std::vector<exec::ExecStage>& stages, Source input,
                 std::ostream& output);

  // Collects the output into ExecResult::output. For a string source in
  // stream mode (whose input is still at hand) a mid-stream undefined
  // combine reruns through the batch path (batch_fallback set) instead of
  // failing; an fd source fails the run with combine_undefined set.
  ExecResult run_collect(const std::vector<exec::ExecStage>& stages,
                         Source input);

 private:
  exec::ThreadPool& pool();
  ExecResult run_stream(const std::vector<exec::ExecStage>& stages,
                        Source input, const Sink& sink,
                        std::string* collect);
  ExecResult run_whole(const std::vector<exec::ExecStage>& stages,
                       Source input);

  ExecOptions options_;
  std::unique_ptr<exec::ThreadPool> pool_;
};

}  // namespace kq
