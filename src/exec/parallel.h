// Data-parallel primitives: map a command (or a fused chain of commands)
// over input chunks on the thread pool, and the fused-chain executor
// (Cascade) that both the parallel workers and the stream runtime's
// sequential chain nodes drive.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exec/thread_pool.h"
#include "unixcmd/command.h"

namespace kq::exec {

// The runtime's one record-cut rule: cuts `data` into blocks of about
// `step` bytes, each ending just after the last delimiter within its first
// `step` bytes (a record longer than `step` travels whole, and an
// unterminated final record ends the last block), and hands them to `fn`
// in order. Stops and returns false as soon as `fn` does. `step` >= 1.
template <typename Fn>
bool for_each_record_block(std::string_view data, std::size_t step,
                           char delimiter, Fn&& fn) {
  while (data.size() > step) {
    std::size_t cut = data.rfind(delimiter, step - 1);
    if (cut == std::string_view::npos) {
      cut = data.find(delimiter, step);
      if (cut == std::string_view::npos) break;
    }
    if (!fn(data.substr(0, cut + 1))) return false;
    data.remove_prefix(cut + 1);
  }
  return data.empty() || fn(data);
}

// A fused run of streaming commands: kPerRecord/kPrefix members behind
// their cmd::StreamProcessors, optionally ended by one kWindow member
// behind its cmd::WindowProcessor. The one cascade rule, shared by the
// stream runtime's chain nodes (one Cascade per node, fed the pulled
// blocks) and the parallel workers (one per slice, via run_slice_fused):
//   - each record-aligned block goes through the open processors in
//     order; the last one (or the window) appends to the caller's buffer;
//   - a prefix member (head) whose process() returns false is complete,
//     and the run is satisfied(): later input cannot change its output,
//     so the driver stops feeding;
//   - at end of input, flush() runs each still-open processor's finish()
//     tail through the members after it. Members before a complete one are
//     skipped: their output could only feed a member that needs nothing.
// The window's own end-of-input emission (finish(), or the stream node's
// spill path) belongs to the driver, through window(). Processors are
// fresh per Cascade, so their state never crosses streams or threads.
class Cascade {
 public:
  // Opens processors for the longest prefix of `commands` that can
  // cascade: kPerRecord/kPrefix members with a stream processor, then at
  // most one kWindow member with a window processor. members() counts
  // them; 0 means the first command cannot cascade.
  explicit Cascade(std::span<const cmd::Command* const> commands);

  std::size_t members() const { return procs_.size() + (window_ ? 1 : 0); }

  // Cascades one record-aligned block, appending the run's output to *out.
  void feed(std::string_view block, std::string* out) {
    feed_from(block, 0, out);
  }

  // True once a prefix member has all the input it needs.
  bool satisfied() const { return satisfied_; }

  // End of input: cascades the still-open processors' tails, appending
  // the run's output to *out. Call once, after the last feed().
  void flush(std::string* out);

  // The window terminal, or null.
  cmd::WindowProcessor* window() const { return window_.get(); }

 private:
  // Cascades `data` through processors [from, end); from == end delivers
  // `data` itself to the window or to *out.
  void feed_from(std::string_view data, std::size_t from, std::string* out);

  std::vector<std::unique_ptr<cmd::StreamProcessor>> procs_;
  std::unique_ptr<cmd::WindowProcessor> window_;
  std::vector<std::string> bufs_;  // intermediates, reused per block
  std::vector<bool> done_;         // member's output is complete
  bool satisfied_ = false;
};

// Runs `command` on every chunk concurrently; returns outputs in order.
std::vector<std::string> map_chunks(const cmd::Command& command,
                                    const std::vector<std::string_view>& chunks,
                                    ThreadPool& pool);

// Runs a chain of commands (stage fusion after combiner elimination) on
// every chunk: chunk -> cmd[0] -> cmd[1] -> ... -> output.
std::vector<std::string> map_chunks_chain(
    const std::vector<const cmd::Command*>& chain,
    const std::vector<std::string_view>& chunks, ThreadPool& pool);

// Runs a fused chain over one contiguous record-aligned slice: each maximal
// run of streamable members is one Cascade fed the slice in `step`-sized
// record blocks, so per-member intermediates stay O(step) instead of
// O(slice); a kNone member (or a streamable one with no processor) runs
// whole on the materialized intermediate, as does every member under a
// custom delimiter. Byte-identical to chaining Command::run by the
// streamability contract. The slice executor behind both the batch mapper
// and the streaming parallel workers.
std::string run_slice_fused(const std::vector<const cmd::Command*>& chain,
                            std::string_view slice, std::size_t step,
                            char delimiter = '\n');

}  // namespace kq::exec
