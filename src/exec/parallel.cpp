#include "exec/parallel.h"

// Thread safety: no locks here by design. Each worker owns its chunk's
// string exclusively; `chain` and `chunks` are read-only for the duration
// of the call; and all cross-thread publication happens through
// ThreadPool::submit / future::get, whose synchronization orders the
// worker's writes before the caller's reads. Commands run through this
// path must be const-callable from multiple threads (cmd::Command::run is
// const and stateless; commands that dereference file names go through
// vfs::Vfs, which locks). run_slice_fused builds a fresh Cascade per run of
// streamable members, so processor state never crosses slices or threads.

namespace kq::exec {

Cascade::Cascade(std::span<const cmd::Command* const> commands) {
  std::size_t j = 0;
  for (; j < commands.size(); ++j) {
    const cmd::Streamability s = commands[j]->streamability();
    if (s != cmd::Streamability::kPerRecord &&
        s != cmd::Streamability::kPrefix)
      break;
    auto p = commands[j]->stream_processor();
    if (!p) break;
    procs_.push_back(std::move(p));
  }
  if (j < commands.size() &&
      commands[j]->streamability() == cmd::Streamability::kWindow)
    window_ = commands[j]->window_processor();
  bufs_.resize(procs_.size());
  done_.assign(procs_.size(), false);
}

void Cascade::feed_from(std::string_view data, std::size_t from,
                        std::string* out) {
  const std::size_t m = procs_.size();
  for (std::size_t p = from; p < m; ++p) {
    if (done_[p]) return;  // complete: the rest of the run saw all it needs
    const bool last = !window_ && p + 1 == m;
    std::string* target = last ? out : &bufs_[p];
    if (!last) target->clear();
    if (!procs_[p]->process(data, target)) done_[p] = satisfied_ = true;
    if (last) return;
    data = *target;
  }
  if (window_) {
    if (!data.empty()) window_->push(data, out);
  } else {
    out->append(data);
  }
}

void Cascade::flush(std::string* out) {
  const std::size_t m = procs_.size();
  std::size_t first = 0;  // the first complete member, or m
  while (first < m && !done_[first]) ++first;
  std::string tail;
  for (std::size_t p = (first < m ? first + 1 : 0); p < m; ++p) {
    if (done_[p]) continue;
    tail.clear();
    procs_[p]->finish(&tail);
    if (!tail.empty()) feed_from(tail, p + 1, out);
  }
}

std::vector<std::string> map_chunks(const cmd::Command& command,
                                    const std::vector<std::string_view>& chunks,
                                    ThreadPool& pool) {
  std::vector<const cmd::Command*> chain = {&command};
  return map_chunks_chain(chain, chunks, pool);
}

std::vector<std::string> map_chunks_chain(
    const std::vector<const cmd::Command*>& chain,
    const std::vector<std::string_view>& chunks, ThreadPool& pool) {
  // Thin client of the fused slice executor: one pool task per chunk, each
  // running the whole chain over its contiguous slice. The 64 KiB step
  // keeps per-stage intermediates cache-resident without changing output.
  constexpr std::size_t kBatchStep = 64 << 10;
  std::vector<std::future<std::string>> futures;
  futures.reserve(chunks.size());
  for (std::string_view chunk : chunks) {
    futures.push_back(pool.submit(
        [&chain, chunk] { return run_slice_fused(chain, chunk, kBatchStep); }));
  }
  // Every task reads `chain` and its chunk, which the caller owns, so none
  // may outlive this call: wait for all of them before get() can rethrow a
  // failed chunk's exception (the first one, in chunk order).
  for (auto& f : futures) f.wait();
  std::vector<std::string> outputs;
  outputs.reserve(futures.size());
  for (auto& f : futures) outputs.push_back(f.get());
  return outputs;
}

std::string run_slice_fused(const std::vector<const cmd::Command*>& chain,
                            std::string_view slice, std::size_t step,
                            char delimiter) {
  if (step == 0) step = 1;
  std::string owned;
  std::string_view cur = slice;
  for (std::size_t i = 0; i < chain.size();) {
    std::string out;
    std::size_t taken = 0;
    // Streamability speaks about '\n'-delimited records; under a custom
    // delimiter every member runs whole (same rule as the runtime).
    if (delimiter == '\n') {
      Cascade cascade(
          std::span<const cmd::Command* const>(chain).subspan(i));
      taken = cascade.members();
      if (taken != 0) {
        for_each_record_block(cur, step, delimiter, [&](std::string_view b) {
          cascade.feed(b, &out);
          return !cascade.satisfied();
        });
        cascade.flush(&out);
        if (cmd::WindowProcessor* window = cascade.window())
          window->finish([&](std::string_view piece) {
            out.append(piece);
            return true;
          });
      }
    }
    if (taken == 0) {  // a black box, or streamable without a processor
      out = chain[i]->run(cur);
      taken = 1;
    }
    owned = std::move(out);
    cur = owned;
    i += taken;
  }
  if (cur.data() == slice.data() && cur.size() == slice.size())
    return std::string(slice);
  return owned;
}

}  // namespace kq::exec
