#include "stream/spill.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "obs/trace.h"
#include "stream/channel.h"
#include "unixcmd/sort_cmd.h"

namespace kq::stream {
namespace {

// Cursor buffer target: small enough that merging hundreds of runs stays
// cheap, large enough to amortize pread syscalls.
constexpr std::size_t kCursorRead = 64 * 1024;

// Streams the lines of one sorted run — disk-backed (bounded buffer) or
// resident (the final never-spilled run). line() stays valid until the
// next advance() on the same cursor, which is all the merge heap needs.
class RunCursor {
 public:
  RunCursor(const SpillFile* file, std::size_t offset, std::size_t size)
      : file_(file), next_offset_(offset), remaining_(size) {}

  explicit RunCursor(std::string resident) : buf_(std::move(resident)) {}

  bool failed() const { return failed_; }
  std::string_view line() const { return line_; }

  bool advance() {
    if (failed_) return false;
    std::size_t nl = buf_.find('\n', pos_);
    while (nl == std::string::npos && remaining_ > 0) {
      if (pos_ > 0) {
        buf_.erase(0, pos_);
        pos_ = 0;
      }
      std::size_t want = std::min(remaining_, kCursorRead);
      std::size_t old = buf_.size();
      buf_.resize(old + want);
      if (!file_->read_exact(next_offset_, buf_.data() + old, want)) {
        failed_ = true;
        return false;
      }
      next_offset_ += want;
      remaining_ -= want;
      nl = buf_.find('\n', old);
    }
    if (nl == std::string::npos) {
      // Runs are newline-normalized by sort_stream/merge_streams, so this
      // only fires on a defensively-handled unterminated tail.
      if (pos_ >= buf_.size()) return false;
      line_ = std::string_view(buf_).substr(pos_);
      pos_ = buf_.size();
      return true;
    }
    line_ = std::string_view(buf_).substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }

 private:
  const SpillFile* file_ = nullptr;
  std::size_t next_offset_ = 0;
  std::size_t remaining_ = 0;
  std::string buf_;
  std::size_t pos_ = 0;
  std::string_view line_;
  bool failed_ = false;
};

}  // namespace

// -------------------------------------------------------------- SpillFile --

SpillFile::SpillFile(io::FaultPlan* faults) : engine_(faults) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  std::string path = std::string(dir) + "/kumquat-spill-XXXXXX";
  fd_ = ::mkstemp(path.data());
  if (fd_ < 0) {
    error_ = io::coded_error("spill mkstemp", errno);
    return;
  }
  ::unlink(path.c_str());  // reclaimed even on abnormal exit
}

SpillFile::~SpillFile() {
  if (fd_ >= 0) ::close(fd_);
}

bool SpillFile::append(std::string_view bytes) {
  if (fd_ < 0) return false;
  if (!error_.empty()) return false;
  // Appends are offset writes at the logical size. A failed write —
  // including the partial-write-then-ENOSPC shape that used to truncate a
  // run silently — surfaces as a coded [KQ-IO] error.
  if (!engine_.write_at(fd_, bytes, size_, &error_)) return false;
  size_ += bytes.size();
  return true;
}

bool SpillFile::read_exact(std::size_t offset, char* buf,
                           std::size_t n) const {
  if (!error_.empty()) return false;
  return engine_.read_at(fd_, buf, n, offset, &error_);
}

// --------------------------------------------------------------- RawSpool --

RawSpool::RawSpool(std::size_t threshold, MemoryGauge* gauge,
                   io::FaultPlan* faults)
    : threshold_(threshold), gauge_(gauge), faults_(faults) {}

RawSpool::~RawSpool() {
  if (gauge_) gauge_->sub(buffer_.size());
}

bool RawSpool::add(std::string_view bytes) {
  if (!error_.empty()) return false;
  buffer_.append(bytes);
  total_ += bytes.size();
  if (gauge_) gauge_->add(bytes.size());
  if (threshold_ == 0 || buffer_.size() < threshold_) return true;
  auto span = obs::span(tracer_, label_ + ": spool-spill", "spill");
  span.arg("bytes", buffer_.size());
  if (!file_) file_ = std::make_unique<SpillFile>(faults_);
  if (!file_->append(buffer_)) {
    error_ = file_->error();
    return false;
  }
  spilled_bytes_ += buffer_.size();
  if (gauge_) gauge_->sub(buffer_.size());
  buffer_.clear();
  buffer_.shrink_to_fit();
  return true;
}

bool RawSpool::take(std::string* out) {
  if (!error_.empty()) return false;
  auto span = obs::span(tracer_, label_ + ": spool-take", "spill");
  span.arg("bytes", total_);
  if (gauge_) gauge_->sub(buffer_.size());
  total_ = 0;
  if (!file_) {  // nothing spilled: hand over the buffer without a copy
    *out = std::move(buffer_);
    buffer_ = std::string();
    return true;
  }
  out->clear();
  out->resize(file_->size());
  if (!file_->read_exact(0, out->data(), file_->size())) {
    error_ = file_->error();
    out->clear();
    buffer_.clear();  // gauge already subtracted above; keep ~RawSpool at 0
    buffer_.shrink_to_fit();
    return false;
  }
  file_.reset();
  out->append(buffer_);
  buffer_.clear();
  buffer_.shrink_to_fit();
  return true;
}

// ------------------------------------------------------------ SpillMerger --

SpillMerger::SpillMerger(std::shared_ptr<const cmd::SortSpec> spec,
                         Input mode, std::size_t threshold,
                         MemoryGauge* gauge, io::FaultPlan* faults)
    : spec_(std::move(spec)), mode_(mode), threshold_(threshold),
      gauge_(gauge), faults_(faults) {}

SpillMerger::~SpillMerger() { drop_mem(mem_bytes_); }

void SpillMerger::drop_mem(std::size_t n) {
  if (gauge_) gauge_->sub(n);
  mem_bytes_ -= n;
}

bool SpillMerger::add(std::string&& piece) {
  if (!error_.empty()) return false;
  mem_bytes_ += piece.size();
  if (gauge_) gauge_->add(piece.size());
  if (mode_ == Input::kUnsortedBlocks) {
    buffer_ += piece;
  } else {
    if (!piece.empty()) parts_.push_back(std::move(piece));
  }
  if (threshold_ == 0 || mem_bytes_ < threshold_) return true;
  return flush_run();
}

std::string SpillMerger::take_resident_run() {
  std::string run;
  if (mode_ == Input::kUnsortedBlocks) {
    if (!buffer_.empty()) run = spec_->sort_stream(buffer_);
    buffer_.clear();
    buffer_.shrink_to_fit();
  } else if (parts_.size() == 1) {
    run = std::move(parts_.front());  // already sorted; nothing to merge
    parts_.clear();
  } else if (!parts_.empty()) {
    std::vector<std::string_view> views(parts_.begin(), parts_.end());
    run = spec_->merge_streams(views);
    parts_.clear();
  }
  drop_mem(mem_bytes_);
  return run;
}

bool SpillMerger::flush_run() {
  std::string run = take_resident_run();
  if (run.empty()) return true;
  auto span = obs::span(tracer_, label_ + ": spill-run", "spill");
  span.arg("bytes", run.size());
  if (!file_) file_ = std::make_unique<SpillFile>(faults_);
  if (!file_->valid()) {
    error_ = file_->error();
    return false;
  }
  RunExtent extent{file_->size(), run.size()};
  if (!file_->append(run)) {
    error_ = file_->error();
    return false;
  }
  runs_.push_back(extent);
  spilled_bytes_ += run.size();
  return true;
}

bool SpillMerger::finish(const std::function<bool(std::string&&)>& push,
                         std::size_t block_size) {
  if (!error_.empty()) return false;
  auto merge_span = obs::span(tracer_, label_ + ": spill-merge", "spill");
  merge_span.arg("runs", runs_.size() + 1);  // disk runs + the resident run
  merge_span.arg("spilled_bytes", spilled_bytes_);
  std::string resident = take_resident_run();

  std::vector<RunCursor> cursors;
  cursors.reserve(runs_.size() + 1);
  for (const RunExtent& run : runs_)
    cursors.emplace_back(file_.get(), run.offset, run.size);
  if (!resident.empty()) cursors.emplace_back(std::move(resident));

  // The keyed k-way merge of SortSpec::merge_streams over run cursors:
  // ties go to the lower run index (runs are input-ordered, so this
  // reproduces the in-memory paths' stability). A cursor's line() stays
  // valid until it advances, so its keyed head does too.
  const cmd::SortSpec& spec = *spec_;
  cmd::KeyedMerge merge(spec);
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    if (cursors[i].advance()) {
      merge.add(i, spec.keyed(cursors[i].line()));
    } else if (cursors[i].failed()) {
      error_ = file_->error();
      return false;
    }
  }

  std::string out;
  // -u: the last emitted record, keyed over its own copy of the bytes
  // (its cursor's buffer moves on when the cursor advances).
  std::string last_line;
  cmd::KeyedLine last;
  bool have_last = false;
  bool stopped = false;

  while (!merge.empty()) {
    const cmd::KeyedLine& head = merge.top();
    bool keep = !spec.unique() || !have_last || spec.compare(last, head) != 0;
    if (keep) {
      if (spec.unique()) {
        last_line.assign(head.line);
        last = cmd::rebased(head, last_line);
        have_last = true;
      }
      out += head.line;
      out += '\n';
      // `out` ends at a record boundary, so the whole buffer moves out.
      if (out.size() >= block_size) {
        if (!push(std::move(out))) {
          stopped = true;
          break;
        }
        out = std::string();
      }
    }
    std::size_t q = merge.top_source();
    if (cursors[q].advance()) {
      merge.replace_top(spec.keyed(cursors[q].line()));
    } else if (cursors[q].failed()) {
      error_ = file_->error();
      return false;
    } else {
      merge.pop_top();
    }
  }
  if (!stopped && !out.empty()) push(std::move(out));
  file_.reset();  // release the disk now; runs_ stays for the stats
  return true;
}

}  // namespace kq::stream
