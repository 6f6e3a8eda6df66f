// The streaming dataflow execution runtime. Lowers the staged plan
// (compile::lower_plan's ExecStages) into a graph of concurrently running
// nodes — block reader → worker×k → incremental combiner per parallel
// segment, drain nodes for sequential stages — connected by bounded
// channels, in the spirit of PaSh-style dataflow shell runtimes.
//
// Contrasts with the staged batch runner (exec::run_pipeline, `--batch`):
//   - input is consumed in record-aligned blocks (stream::BlockReader)
//     rather than slurped whole, so memory stays O(capacity · block_size)
//     for concat-combined pipelines instead of O(input);
//   - declared-streamable stages (exec::MemoryClass::kStatelessStream:
//     per-record filters/maps like grep/tr/cut/sed, prefix-bounded head)
//     run per block through cmd::StreamProcessors, with adjacent streamable
//     stages fused into one chain node — a `grep | tr | cut` chain costs
//     one channel hop — and a satisfied prefix (head) closes its input,
//     the close propagating upstream channel by channel until the
//     BlockReader stops reading: `head -n 10` costs O(blocks), not
//     O(input);
//   - window-bounded stages (exec::MemoryClass::kWindowStream: tail -n N,
//     uniq, wc, sort -u, and the fused top-n/top-k rewrite stages from
//     compile::rewrite_bounded_windows) absorb blocks into a
//     cmd::WindowProcessor and flush the residue at end of input, holding
//     O(window) instead of materializing; a window stage fuses as the
//     *terminal* member of a stream chain (its finish() reorders emission,
//     so nothing fuses after it), and a window past the spill threshold
//     (sort -u's distinct set, a pathological-N top-n) exports sorted runs
//     through the external merge — sealed first so cross-record residue
//     survives, and re-streamed capped at the window's output limit;
//   - all pipeline segments run concurrently instead of in stage barriers;
//   - combining is incremental: each segment's combiner folds chunk
//     outputs as they arrive in input order (doubling group sizes keep the
//     total fold work near one k-way combine) instead of waiting for all
//     chunks. Segments whose combiner is plain concat over
//     newline-terminated outputs skip accumulation entirely and emit chunk
//     outputs downstream the moment they are next in order;
//   - accumulation past `spill_threshold` moves to disk (stream/spill.*,
//     per the stage's exec::MemoryClass): merge-mode combiners spill chunk
//     outputs as sorted runs and k-way-merge them back to the stream,
//     sequential built-in sort stages run as an external merge sort, and
//     rerun combiners and materialize stages spool their drain through a
//     temp file — so with '\n' records every node's resident footprint is
//     bounded, not just the parallel ones. (The sort/merge spill paths are
//     line-based and stay in memory under a custom delimiter.)
//
// Output is byte-identical to the batch runner whenever the synthesized
// combiners satisfy their defining property g(f(x), f(y)) = f(x · y) —
// both runtimes compute f over the whole stream, they just chunk
// differently.
#pragma once

#include <vector>

#include "exec/exec_types.h"
#include "exec/runner.h"
#include "exec/thread_pool.h"

namespace kq::stream {

class BlockReader;

// The stream runtime behind kq::Executor's kStream mode: drains `reader`
// through the dataflow graph into `sink`. The facade builds the reader
// over its Source (string or fd) and resolves `options.parallelism`; the
// block size, delimiter and record cap the reader was built with must
// match `options`. Every ExecOptions field but `mode` is read here.
ExecResult run_dataflow(const std::vector<exec::ExecStage>& stages,
                        BlockReader& reader, const Sink& sink,
                        exec::ThreadPool& pool, const ExecOptions& options);

}  // namespace kq::stream
