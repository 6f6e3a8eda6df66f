// The value types of kq::Executor (exec/executor.h): ExecOptions in,
// ExecResult out. They live apart from the facade so both runtimes behind
// it — the staged batch runner (exec/runner.h) and the streaming dataflow
// (stream/dataflow.h) — read the same options and fill the same result
// without including each other or the facade.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace kq::io {
class FaultPlan;
}

namespace kq::obs {
class Tracer;
}

namespace kq {

enum class ExecMode {
  kSerial,
  kBatch,
  kStream,
};

inline const char* exec_mode_name(ExecMode m) {
  switch (m) {
    case ExecMode::kSerial: return "serial";
    case ExecMode::kBatch: return "batch";
    case ExecMode::kStream: return "stream";
  }
  return "?";
}

// One knob set for every mode. Streaming-only fields (block_size,
// max_inflight, spill_threshold, delimiter, fault_plan) are ignored by
// kBatch/kSerial; parallelism and use_elimination apply to both executors.
struct ExecOptions {
  ExecMode mode = ExecMode::kStream;
  // 0 = default_parallelism() (resolved by the Executor). kSerial ignores
  // it; kBatch and kStream receive the identical resolved value.
  int parallelism = 0;
  // Fuse/skip eliminated combiners (Theorem 5); false = the paper's
  // "unoptimized" mode.
  bool use_elimination = true;
  std::size_t block_size = 1 << 20;
  // Max chunks a stream segment may have in flight (its memory budget is
  // max_inflight · block_size). 0 derives 2 · parallelism + 2.
  std::size_t max_inflight = 0;
  char delimiter = '\n';
  // In-memory accumulation budget per stream node before spilling to disk
  // (sorted-run external merge for sortable stages, raw spool for
  // materialize/rerun stages). Also caps a single delimiter-free record:
  // one that outgrows a block and this threshold fails loudly (EMSGSIZE)
  // instead of ballooning RSS, so the reader buffers at most
  // max(block_size, spill_threshold) per record. 0 disables spilling (and
  // the record cap) entirely.
  std::size_t spill_threshold = 64 << 20;
  // Deterministic fault-injection seam (src/io/fault.h; tests only): the
  // fd source's and every spill file's kq::io::Engine consult it before
  // each I/O attempt. Must outlive the run.
  io::FaultPlan* fault_plan = nullptr;
  // Telemetry (src/obs/). `stats` allocates per-node obs::StageCounters and
  // wires blocked-time/record/pool accounting through a stream run — the
  // extended NodeMetrics fields below are zero without it. A non-null
  // `tracer` records spans (node lifetimes, block processing, spill runs,
  // merges) for --trace-json. Both default off; the disabled hot path pays
  // one branch per block and never touches the clock.
  bool stats = false;
  obs::Tracer* tracer = nullptr;
};

// Receives output in order; return false to stop the run early (the graph
// tears down, the result stays ok with stopped_early set).
using Sink = std::function<bool(std::string_view)>;

// One row per stream node, or per stage of a batch/serial run.
struct NodeMetrics {
  std::string commands;           // fused chain display, " | " separated
  bool parallel = false;
  bool streamed_combine = false;  // concat or seam-fold emission: the
                                  // combined output is never accumulated
  bool per_block = false;         // stream-chain node (kStatelessStream)
  bool window = false;            // chain ends in a window stage (kWindow)
  int chunks = 0;                 // blocks (stream) or substreams (batch)
  std::size_t in_bytes = 0;
  std::size_t out_bytes = 0;
  std::size_t spilled_bytes = 0;  // bytes written to disk by this node
  int spill_runs = 0;             // sorted runs spilled (external merge)
  // Bytes a parallel node's fold combiner read (0 for concat, merge and
  // rerun nodes): a seam fold reads each part once plus the record carried
  // across each seam; an accumulator fold re-reads the accumulator for
  // every part it folds in.
  std::uint64_t combine_bytes = 0;
  double seconds = 0;             // active span (first input to close)

  // Populated only when ExecOptions::stats is on (see obs/metrics.h for
  // the counter semantics; docs/OBSERVABILITY.md for the full contract).
  std::string memory;                  // exec::memory_class_name of the node
  std::uint64_t records_in = 0;        // records pulled from upstream
  std::uint64_t records_out = 0;       // records downstream accepted
  std::uint64_t send_blocked_ns = 0;   // waiting on a full output channel
  std::uint64_t recv_blocked_ns = 0;   // waiting on an empty input channel
                                       // (node 0: the reader's poll waits)
  std::uint64_t pool_hits = 0;         // BufferPool acquires recycled
  std::uint64_t pool_misses = 0;       // BufferPool acquires fresh
  std::uint64_t shard_slices = 0;      // slices this node's workers ran
  std::uint64_t worker_busy_ns = 0;    // summed worker execution time
  std::uint64_t sqe_batches = 0;       // always 0; kept as perfbench reads it
  std::uint64_t cqe_waits = 0;         // always 0; kept as perfbench reads it
  std::string early_exit;              // why input stopped early ("" = ran
                                       // to end of stream)

  // Batch/serial only (zero/false on stream runs, where combining is
  // incremental and per-node).
  std::string combiner;                // synthesized combiner display name
  bool combiner_eliminated = false;    // Theorem 5 applied to this stage
  bool combine_fallback = false;       // combiner failed; reran serially
};

// The one result shape. Stream runs fill the full telemetry; batch/serial
// runs fill `output` and one `nodes` row per stage (command, combiner,
// chunks, bytes, elimination/fallback flags) and leave the stream-only
// gauges zero.
struct ExecResult {
  bool ok = true;
  std::string error;           // set when !ok
  std::string output;          // batch/serial runs and Executor::run_collect
  double seconds = 0;
  // Stream: high-water mark of the MemoryGauge — bytes queued in channels,
  // held by parallel workers and spill buffers, and node 0's current
  // reader block.
  std::size_t peak_inflight_bytes = 0;
  std::size_t spilled_bytes = 0;        // stream: total spilled to disk
  // Stream: input bytes the BlockReader delivered — far below the input
  // size when a prefix-bounded stage (head) cancelled the upstream early.
  std::size_t bytes_read = 0;
  std::string io_backend = "poll";  // kept only because perfbench reads it
  bool stopped_early = false;      // the sink returned false (ok stays true)
  bool combine_undefined = false;  // !ok: a combiner bailed mid-fold
  bool batch_fallback = false;     // stream-over-string reran via batch
  std::vector<NodeMetrics> nodes;
};

}  // namespace kq
