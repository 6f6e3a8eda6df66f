#include "unixcmd/topn.h"

#include <cstdint>
#include <set>
#include <utility>

#include "text/streams.h"

namespace kq::cmd {
namespace {

// The bounded top-N window: an ordered multiset of at most `limit` records
// under (spec order, input sequence). The sequence tie-break reproduces
// stable_sort — among compare()-equal lines the earlier input line comes
// first — so iterating the set IS the first N lines of `sort <spec>`.
class TopNWindowProcessor final : public WindowProcessor {
 public:
  TopNWindowProcessor(const SortSpec* spec, long n)
      : spec_(spec),
        unique_(spec->unique()),
        limit_(n > 0 ? static_cast<std::size_t>(n) : 0),
        set_(Cmp{spec}) {}

  void push(std::string_view block, std::string* out) override {
    (void)out;  // nothing is final until end of input
    if (limit_ == 0) return;
    for (std::string_view line : text::lines(block)) {
      ++seq_;
      KeyedLine key = spec_->keyed(line);
      if (set_.size() == limit_ &&
          spec_->compare(key, std::prev(set_.end())->keyed()) >= 0) {
        // Full window and the line sorts at-or-after the current maximum:
        // a later-sequence tie or greater line can never enter the top N
        // (and under -u an equal key is a duplicate of the maximum).
        continue;
      }
      auto it = set_.lower_bound(key);
      if (unique_ && it != set_.end() &&
          spec_->compare(key, it->keyed()) == 0) {
        // -u keeps the first occurrence of each key class, and sequence
        // numbers only grow, so the resident representative wins.
        continue;
      }
      bytes_ += line.size() + kPerEntryOverhead;
      set_.emplace_hint(it, Entry{std::string(line), key, seq_});
      if (set_.size() > limit_) {
        auto last = std::prev(set_.end());
        bytes_ -= last->line.size() + kPerEntryOverhead;
        set_.erase(last);
      }
    }
  }

  void finish(const Sink& sink) override {
    std::string buf;
    for (const Entry& e : set_) {
      buf += e.line;
      buf.push_back('\n');
      if (buf.size() >= kFlushBytes) {
        if (!sink(buf)) return;
        buf.clear();
      }
    }
    if (!buf.empty()) sink(buf);
  }

  std::size_t state_bytes() const override { return bytes_; }

  bool drain_sorted_run(std::string* out) override {
    out->clear();
    out->reserve(bytes_);
    for (const Entry& e : set_) {
      *out += e.line;
      out->push_back('\n');
    }
    set_.clear();
    bytes_ = 0;
    // seq_ keeps running: within the merged union, run order equals
    // sequence order, so cross-epoch stability falls to the merge's
    // run-index tie-break.
    return true;
  }

  std::optional<std::size_t> output_limit() const override { return limit_; }

 private:
  struct Entry {
    std::string line;
    KeyedLine key;  // its view is stale: compare keyed()
    std::uint64_t seq;
    KeyedLine keyed() const { return rebased(key, line); }
  };
  // Strict weak order (spec order, then sequence). A keyed probe compares
  // as sequence -inf: lower_bound(key) is the first entry with compare >=
  // 0, which doubles as the -u duplicate check and the insertion hint.
  struct Cmp {
    using is_transparent = void;
    const SortSpec* spec;
    bool operator()(const Entry& a, const Entry& b) const {
      int c = spec->compare(a.keyed(), b.keyed());
      if (c != 0) return c < 0;
      return a.seq < b.seq;
    }
    bool operator()(const KeyedLine& probe, const Entry& b) const {
      return spec->compare(probe, b.keyed()) <= 0;
    }
    bool operator()(const Entry& a, const KeyedLine& probe) const {
      return spec->compare(a.keyed(), probe) < 0;
    }
  };
  // Rough allocator cost of a multiset node beyond the line's own bytes.
  static constexpr std::size_t kPerEntryOverhead =
      sizeof(Entry) + 4 * sizeof(void*);
  static constexpr std::size_t kFlushBytes = 64 << 10;

  const SortSpec* spec_;
  const bool unique_;
  const std::size_t limit_;
  std::multiset<Entry, Cmp> set_;
  std::uint64_t seq_ = 0;
  std::size_t bytes_ = 0;
};

// Two window processors composed into one node: `first` (uniq's run
// window) feeds `second` (the top-n window). push() routes first's
// already-final emission into second; the residue first holds at end of
// input reaches second through seal(), which finish() runs itself when the
// runtime has not (the spill path seals explicitly before the final
// drain).
class WindowPipeProcessor final : public WindowProcessor {
 public:
  WindowPipeProcessor(std::unique_ptr<WindowProcessor> first,
                      std::unique_ptr<WindowProcessor> second)
      : first_(std::move(first)), second_(std::move(second)) {}

  void push(std::string_view block, std::string* out) override {
    buf_.clear();
    first_->push(block, &buf_);
    if (!buf_.empty()) second_->push(buf_, out);
  }

  void seal(std::string* out) override {
    if (sealed_) return;
    sealed_ = true;
    first_->finish([this, out](std::string_view piece) {
      if (!piece.empty()) second_->push(piece, out);
      return true;
    });
    second_->seal(out);
  }

  void finish(const Sink& sink) override {
    std::string sealed_out;
    seal(&sealed_out);
    if (!sealed_out.empty() && !sink(sealed_out)) return;
    second_->finish(sink);
  }

  std::size_t state_bytes() const override {
    return first_->state_bytes() + second_->state_bytes();
  }

  bool drain_sorted_run(std::string* out) override {
    // Only the sorted second window exports; first's bounded residue (a
    // pending uniq run) stays resident until seal().
    return second_->drain_sorted_run(out);
  }

  std::optional<std::size_t> output_limit() const override {
    return second_->output_limit();
  }

 private:
  std::unique_ptr<WindowProcessor> first_;
  std::unique_ptr<WindowProcessor> second_;
  std::string buf_;  // first's per-block emission, reused across blocks
  bool sealed_ = false;
};

// Runs a command's window processor over the whole input — execute() for
// the fused commands, byte-identical to the streamed path by construction.
Result run_window(const Command& command, std::string_view input) {
  auto window = command.window_processor();
  std::string out;
  window->push(input, &out);
  window->finish([&out](std::string_view tail) {
    out.append(tail);
    return true;
  });
  return {std::move(out), 0, {}};
}

class TopNCommand final : public Command {
 public:
  TopNCommand(std::string display, std::shared_ptr<const SortSpec> spec,
              long n)
      : Command(std::move(display)), spec_(std::move(spec)), n_(n) {}

  Result execute(std::string_view input) const override {
    // The window processor is the semantics: run it over the whole input,
    // which also keeps execute() at O(N) extra memory.
    return run_window(*this, input);
  }

  Streamability streamability() const override {
    return Streamability::kWindow;
  }
  std::unique_ptr<WindowProcessor> window_processor() const override {
    return std::make_unique<TopNWindowProcessor>(spec_.get(), n_);
  }

  const std::shared_ptr<const SortSpec>& spec() const { return spec_; }

 private:
  std::shared_ptr<const SortSpec> spec_;
  long n_;
};

class WindowTopNCommand final : public Command {
 public:
  WindowTopNCommand(std::string display, CommandPtr first,
                    std::shared_ptr<const SortSpec> spec, long n)
      : Command(std::move(display)),
        first_(std::move(first)),
        spec_(std::move(spec)),
        n_(n) {}

  Result execute(std::string_view input) const override {
    return run_window(*this, input);
  }

  Streamability streamability() const override {
    return Streamability::kWindow;
  }
  std::unique_ptr<WindowProcessor> window_processor() const override {
    return std::make_unique<WindowPipeProcessor>(
        first_->window_processor(),
        std::make_unique<TopNWindowProcessor>(spec_.get(), n_));
  }

  const std::shared_ptr<const SortSpec>& spec() const { return spec_; }

 private:
  CommandPtr first_;
  std::shared_ptr<const SortSpec> spec_;
  long n_;
};

}  // namespace

CommandPtr make_top_n_command(std::shared_ptr<const SortSpec> spec, long n,
                              std::string display) {
  return std::make_shared<TopNCommand>(std::move(display), std::move(spec),
                                       n);
}

CommandPtr make_window_top_n_command(CommandPtr first,
                                     std::shared_ptr<const SortSpec> spec,
                                     long n, std::string display) {
  return std::make_shared<WindowTopNCommand>(
      std::move(display), std::move(first), std::move(spec), n);
}

std::shared_ptr<const SortSpec> fused_sort_spec_of(const Command& command) {
  if (const auto* top = dynamic_cast<const TopNCommand*>(&command))
    return top->spec();
  if (const auto* top = dynamic_cast<const WindowTopNCommand*>(&command))
    return top->spec();
  return nullptr;
}

}  // namespace kq::cmd
