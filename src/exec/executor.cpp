#include "exec/executor.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <ostream>
#include <thread>

#include "stream/block_reader.h"
#include "stream/dataflow.h"

namespace kq {
namespace {

// Drains a file descriptor for the batch modes (which need the whole
// input). Returns false on a read error (errno preserved in `err`).
bool slurp_fd(int fd, std::string* out, int* err) {
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      out->append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return true;
    if (errno == EINTR) continue;
    *err = errno;
    return false;
  }
}

}  // namespace

int default_parallelism() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return static_cast<int>(std::min(hw, 16u));
}

Executor::Executor(ExecOptions options) : options_(options) {
  if (options_.parallelism <= 0) options_.parallelism = default_parallelism();
}

Executor::~Executor() = default;

exec::ThreadPool& Executor::pool() {
  if (!pool_) pool_ = std::make_unique<exec::ThreadPool>(options_.parallelism);
  return *pool_;
}

ExecResult Executor::run_whole(const std::vector<exec::ExecStage>& stages,
                               Source input) {
  // Batch and serial need the whole input resident (that is their memory
  // class); an fd source is slurped here.
  std::string owned;
  std::string_view bytes = input.bytes_;
  if (input.is_fd_) {
    int err = 0;
    if (!slurp_fd(input.fd_, &owned, &err)) {
      ExecResult failed;
      failed.ok = false;
      failed.error = "input read error (errno " + std::to_string(err) + ")";
      return failed;
    }
    bytes = owned;
  }
  // A stage that cannot answer (cmd::CommandFailure, a coded diagnostic)
  // fails the run, as it does in the streaming runtime.
  try {
    if (options_.mode == ExecMode::kSerial)
      return exec::run_serial(stages, bytes);
    return exec::run_pipeline(stages, bytes, pool(), options_);
  } catch (const std::exception& e) {
    ExecResult failed;
    failed.ok = false;
    failed.error = e.what();
    return failed;
  }
}

ExecResult Executor::run_stream(const std::vector<exec::ExecStage>& stages,
                                Source input, const Sink& sink,
                                std::string* collect) {
  // A record that cannot even be buffered within the spill budget fails
  // loudly (EMSGSIZE) rather than growing the reader without bound.
  const stream::BlockReaderOptions reader_options{
      options_.block_size, options_.delimiter, options_.spill_threshold};

  // The string source keeps the original input at hand, so a mid-stream
  // undefined combine (the batch runner's combine-fallback guard) can
  // rerun through the batch path instead of failing. Its output is
  // therefore buffered and handed to the sink once at the end: a fallback
  // after incremental delivery would otherwise duplicate the
  // already-delivered prefix.
  std::string buffered;
  std::string* target = collect ? collect : input.is_fd_ ? nullptr : &buffered;
  Sink deliver = sink;
  if (target) {
    deliver = [target](std::string_view bytes) {
      target->append(bytes);
      return true;
    };
  }

  if (input.is_fd_) {
    // The fault seam reaches the source path, not just spills.
    stream::BlockReader reader(input.fd_, reader_options,
                               options_.fault_plan);
    return stream::run_dataflow(stages, reader, deliver, pool(), options_);
  }

  // The string source reads straight from the caller's bytes.
  std::string_view rest = input.bytes_;
  stream::BlockReader reader(
      [&rest](char* buf, std::size_t n) {
        const std::size_t got = std::min(n, rest.size());
        std::memcpy(buf, rest.data(), got);
        rest.remove_prefix(got);
        return got;
      },
      reader_options);
  ExecResult out =
      stream::run_dataflow(stages, reader, deliver, pool(), options_);
  if (!out.ok && out.combine_undefined) {
    // run_whole is the batch runtime for every mode but kSerial, and turns
    // a stage failure during the rerun into a failed result.
    ExecResult rerun = run_whole(stages, input);
    if (!rerun.ok) {
      target->clear();  // no partial stream output beside a failed run
      return rerun;
    }
    *target = std::move(rerun.output);
    out.ok = true;
    out.error.clear();
    out.batch_fallback = true;
  }
  if (out.ok && !collect && sink && !sink(buffered)) out.stopped_early = true;
  return out;
}

ExecResult Executor::run(const std::vector<exec::ExecStage>& stages,
                         Source input, const Sink& sink) {
  if (options_.mode == ExecMode::kStream)
    return run_stream(stages, input, sink, nullptr);
  ExecResult result = run_whole(stages, input);
  if (result.ok && sink && !sink(result.output)) result.stopped_early = true;
  result.output.clear();
  return result;
}

ExecResult Executor::run(const std::vector<exec::ExecStage>& stages,
                         Source input, std::ostream& output) {
  return run(stages, input, [&output](std::string_view bytes) {
    output.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(output);
  });
}

ExecResult Executor::run_collect(const std::vector<exec::ExecStage>& stages,
                                 Source input) {
  if (options_.mode != ExecMode::kStream) return run_whole(stages, input);
  std::string collected;
  ExecResult result = run_stream(stages, input, nullptr, &collected);
  result.output = std::move(collected);
  return result;
}

}  // namespace kq
