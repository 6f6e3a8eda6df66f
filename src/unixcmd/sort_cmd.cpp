#include "unixcmd/sort_cmd.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace kq::cmd {

static_assert(std::is_trivially_copyable_v<KeyedLine>);
static_assert(sizeof(KeyedLine) == 32);

namespace {

bool is_blank(char c) { return c == ' ' || c == '\t'; }

// Pops the next line (without its '\n') off the front of `rest`: the lines
// of text::lines, an unterminated tail included, without the vector.
bool next_line(std::string_view& rest, std::string_view* line) {
  if (rest.empty()) return false;
  const void* nl = std::memchr(rest.data(), '\n', rest.size());
  std::size_t len = nl != nullptr
                        ? static_cast<std::size_t>(
                              static_cast<const char*>(nl) - rest.data())
                        : rest.size();
  *line = rest.substr(0, len);
  rest.remove_prefix(nl != nullptr ? len + 1 : len);
  return true;
}

// GNU-style number at the front of a key: optional blanks, optional minus
// sign, digits, optional fraction. A key with no digits is 0.
struct NumView {
  bool negative = false;
  std::string_view integer;   // leading zeros stripped
  std::string_view fraction;  // trailing zeros stripped
  bool zero() const { return integer.empty() && fraction.empty(); }
};

// `integer` always views `s` (possibly empty) and `fraction`, when not
// empty, starts just past the '.' that ends `integer` — the layout
// KeyedLine's offsets rely on.
NumView parse_numeric(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size() && is_blank(s[i])) ++i;
  NumView v;
  if (i < s.size() && s[i] == '-') {
    v.negative = true;
    ++i;
  }
  std::size_t int_start = i;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  std::string_view integer = s.substr(int_start, i - int_start);
  while (!integer.empty() && integer.front() == '0') integer.remove_prefix(1);
  v.integer = integer;
  if (i < s.size() && s[i] == '.') {
    ++i;
    std::size_t frac_start = i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    std::string_view fraction = s.substr(frac_start, i - frac_start);
    while (!fraction.empty() && fraction.back() == '0')
      fraction.remove_suffix(1);
    v.fraction = fraction;
  }
  if (v.zero()) v.negative = false;  // -0 == 0
  return v;
}

int compare_numbers(const NumView& x, const NumView& y) {
  if (x.negative != y.negative) return x.negative ? -1 : 1;
  int sign = x.negative ? -1 : 1;
  if (x.integer.size() != y.integer.size())
    return sign * (x.integer.size() < y.integer.size() ? -1 : 1);
  if (int c = x.integer.compare(y.integer); c != 0)
    return sign * (c < 0 ? -1 : 1);
  if (int c = x.fraction.compare(y.fraction); c != 0)
    return sign * (c < 0 ? -1 : 1);
  return 0;
}

int raw_compare(std::string_view a, std::string_view b) {
  // Bytewise (LC_ALL=C): memcmp compares bytes as unsigned char.
  std::size_t n = std::min(a.size(), b.size());
  if (n != 0) {
    if (int c = std::memcmp(a.data(), b.data(), n); c != 0)
      return c < 0 ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

int text_compare(std::string_view a, std::string_view b, bool fold,
                 bool dictionary) {
  std::size_t i = 0, j = 0;
  while (true) {
    if (dictionary) {
      auto skippable = [](char c) {
        unsigned char uc = static_cast<unsigned char>(c);
        return !(std::isalnum(uc) || is_blank(c));
      };
      while (i < a.size() && skippable(a[i])) ++i;
      while (j < b.size() && skippable(b[j])) ++j;
    }
    if (i >= a.size() || j >= b.size()) break;
    unsigned char ca = static_cast<unsigned char>(a[i]);
    unsigned char cb = static_cast<unsigned char>(b[j]);
    if (fold) {
      ca = static_cast<unsigned char>(std::toupper(ca));
      cb = static_cast<unsigned char>(std::toupper(cb));
    }
    if (ca != cb) return ca < cb ? -1 : 1;
    ++i;
    ++j;
  }
  bool a_done = i >= a.size(), b_done = j >= b.size();
  if (a_done && b_done) return 0;
  return a_done ? -1 : 1;
}

// The unreversed comparison of two non-numeric keys.
int compare_text_keys(const SortKey& key, std::string_view a,
                      std::string_view b) {
  return key.fold || key.dictionary
             ? text_compare(a, b, key.fold, key.dictionary)
             : raw_compare(a, b);
}

// Skips `fields` fields from `pos`, each a blank run and the non-blank run
// after it; stops at the end of the line.
std::size_t skip_fields(std::string_view line, std::size_t pos,
                        long fields) {
  for (; fields > 0 && pos < line.size(); --fields) {
    while (pos < line.size() && is_blank(line[pos])) ++pos;
    while (pos < line.size() && !is_blank(line[pos])) ++pos;
  }
  return pos;
}

// The key's bytes in `line`: GNU's begfield/limfield without -t or
// character offsets. Field N>1 starts at the blanks before it (skipped
// only under `b`); an end before the start is an empty key. An
// open-ended key stops scanning at its start.
std::string_view key_of(std::string_view line, const SortKey& key) {
  std::size_t field_start = skip_fields(line, 0, key.start_field - 1L);
  std::size_t begin = field_start;
  if (key.blank_start)
    while (begin < line.size() && is_blank(line[begin])) ++begin;
  if (key.end_field == 0) return line.substr(begin);
  long more = static_cast<long>(key.end_field) - (key.start_field - 1L);
  std::size_t end = more > 0 ? skip_fields(line, field_start, more) : 0;
  return line.substr(begin, end > begin ? end - begin : 0);
}

NumView num_of(const KeyedLine& k) {
  NumView v;
  v.negative = k.number.negative;
  v.integer = std::string_view(k.line.data() + k.key_off, k.key_len);
  if (k.number.frac_len != 0)
    v.fraction = std::string_view(k.line.data() + k.key_off + k.key_len + 1,
                                  k.number.frac_len);
  return v;
}

// The first 8 bytes of `bytes`, big-endian and zero-padded: ordering two
// of these as integers orders the zero-padded prefixes bytewise, and a
// difference there is the bytewise order of the whole strings.
std::uint64_t prefix_of(std::string_view bytes) {
  unsigned char buf[8] = {};
  if (!bytes.empty())
    std::memcpy(buf, bytes.data(), std::min<std::size_t>(8, bytes.size()));
  std::uint64_t prefix = 0;
  for (unsigned char c : buf) prefix = prefix << 8 | c;
  return prefix;
}

// Bytewise order of `a` and `b`, whose prefix_of() values are `pa`, `pb`.
int compare_prefixed(std::uint64_t pa, std::uint64_t pb, std::string_view a,
                     std::string_view b) {
  if (pa != pb) return pa < pb ? -1 : 1;
  return raw_compare(a, b);
}

std::uint32_t offset_in(std::string_view line, std::string_view part) {
  return static_cast<std::uint32_t>(part.data() - line.data());
}

}  // namespace

std::optional<SortSpec> SortSpec::parse(const std::vector<std::string>& flags,
                                        std::string* error) {
  SortSpec spec;
  SortKey global;  // the global ordering options, as a whole-line key
  std::vector<SortKey> keys;
  for (const std::string& f : flags) {
    if (f.rfind("--parallel", 0) == 0) continue;  // accepted, ignored
    if (f == "--stable") {
      spec.stable_only_ = true;
      continue;
    }
    if (f.size() < 2 || f[0] != '-') {
      if (error) *error = "sort: unsupported operand " + f;
      return std::nullopt;
    }
    if (f[1] == 'k') {
      // -kF[opts][,G[opts]]
      SortKey key;
      std::size_t i = 2;
      auto read_field = [&](int& out) {
        // Saturating: a field number past INT_MAX selects a field no line
        // has (like GNU) instead of overflowing into a garbage index.
        // Fields are 1-based; GNU rejects field 0.
        std::size_t start = i;
        while (i < f.size() && std::isdigit(static_cast<unsigned char>(f[i])))
          ++i;
        if (i == start) return false;
        auto v = parse_count(std::string_view(f).substr(start, i - start));
        out = static_cast<int>(
            std::min<long>(*v, std::numeric_limits<int>::max()));
        return out > 0;
      };
      auto read_opts = [&](bool at_start) {
        while (i < f.size() && f[i] != ',') {
          switch (f[i]) {
            case 'n': key.numeric = true; break;
            case 'r': key.reverse = true; break;
            case 'f': key.fold = true; break;
            case 'd': key.dictionary = true; break;
            case 'b':
              (at_start ? key.blank_start : key.blank_end) = true;
              break;
            default: return false;
          }
          ++i;
        }
        return true;
      };
      bool ok = read_field(key.start_field) && read_opts(true);
      if (ok && i < f.size()) {  // at the ','
        ++i;
        ok = read_field(key.end_field) && read_opts(false);
      }
      if (!ok) {
        if (error) *error = "sort: bad key spec " + f;
        return std::nullopt;
      }
      keys.push_back(key);
      continue;
    }
    for (std::size_t i = 1; i < f.size(); ++i) {
      switch (f[i]) {
        case 'n': global.numeric = true; break;
        case 'r': global.reverse = true; break;
        case 'f': global.fold = true; break;
        case 'd': global.dictionary = true; break;
        case 'b': global.blank_start = global.blank_end = true; break;
        case 'u': spec.unique_ = true; break;
        case 'm': spec.merge_mode_ = true; break;
        case 's': spec.stable_only_ = true; break;
        default:
          if (error) *error = std::string("sort: unsupported flag -") + f[i];
          return std::nullopt;
      }
    }
  }
  spec.reverse_ = global.reverse;

  std::string opts;
  if (global.numeric) opts += "n";
  if (global.reverse) opts += "r";
  if (global.fold) opts += "f";
  if (global.dictionary) opts += "d";
  if (global.blank_start) opts += "b";
  if (spec.unique_) opts += "u";
  if (spec.stable_only_) opts += "s";
  // Appended, not `"-" + opts`: the rvalue operator+ form trips GCC 12's
  // -Wrestrict false positive inside libstdc++ (GCC PR 105329).
  std::string canon;
  if (!opts.empty()) {
    canon = "-";
    canon += opts;
  }
  for (const SortKey& k : keys) {
    if (!canon.empty()) canon += " ";
    canon += "-k";
    canon += std::to_string(k.start_field);
    if (k.blank_start) canon += "b";
    if (k.end_field) {
      canon += ",";
      canon += std::to_string(k.end_field);
    }
    if (k.numeric) canon += "n";
    if (k.reverse) canon += "r";
    if (k.fold) canon += "f";
    if (k.dictionary) canon += "d";
    if (k.blank_end) canon += "b";
  }
  spec.canonical_flags_ = canon;

  // GNU's inheritance: a key with no options of its own takes every
  // global one; with no -k, global n/f/d/b make the whole line a key.
  auto has_options = [](const SortKey& k) {
    return k.numeric || k.reverse || k.fold || k.dictionary ||
           k.blank_start || k.blank_end;
  };
  for (SortKey& k : keys) {
    if (has_options(k)) continue;
    int start = k.start_field, end = k.end_field;
    k = global;
    k.start_field = start;
    k.end_field = end;
  }
  if (keys.empty() && (global.numeric || global.fold || global.dictionary ||
                       global.blank_start))
    keys.push_back(global);
  spec.keys_ = std::move(keys);
  return spec;
}

KeyedLine SortSpec::keyed(std::string_view line) const {
  if (line.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("sort: line of 4 GiB or more");
  KeyedLine k;
  k.line = line;
  if (keys_.empty()) {
    k.key_len = static_cast<std::uint32_t>(line.size());
    k.prefix = prefix_of(line);
    return k;
  }
  const SortKey& key = keys_.front();
  std::string_view bytes = key_of(line, key);
  if (key.numeric) {
    NumView v = parse_numeric(bytes);
    k.key_off = offset_in(line, v.integer);
    k.key_len = static_cast<std::uint32_t>(v.integer.size());
    k.number.frac_len = static_cast<std::uint32_t>(v.fraction.size());
    k.number.negative = v.negative;
  } else {
    k.key_off = offset_in(line, bytes);
    k.key_len = static_cast<std::uint32_t>(bytes.size());
    if (!key.fold && !key.dictionary) k.prefix = prefix_of(bytes);
  }
  return k;
}

int SortSpec::compare_later_keys(std::string_view a,
                                 std::string_view b) const {
  for (std::size_t i = 1; i < keys_.size(); ++i) {
    const SortKey& key = keys_[i];
    std::string_view ka = key_of(a, key), kb = key_of(b, key);
    int c = key.numeric
                ? compare_numbers(parse_numeric(ka), parse_numeric(kb))
                : compare_text_keys(key, ka, kb);
    if (c != 0) return key.reverse ? -c : c;
  }
  return 0;
}

int SortSpec::compare(const KeyedLine& a, const KeyedLine& b) const {
  if (keys_.empty()) {
    int c = compare_prefixed(a.prefix, b.prefix, a.line, b.line);
    return reverse_ ? -c : c;
  }
  const SortKey& key = keys_.front();
  std::string_view ka(a.line.data() + a.key_off, a.key_len);
  std::string_view kb(b.line.data() + b.key_off, b.key_len);
  int c;
  if (key.numeric) {
    c = compare_numbers(num_of(a), num_of(b));
  } else if (key.fold || key.dictionary) {
    c = compare_text_keys(key, ka, kb);
  } else {
    c = compare_prefixed(a.prefix, b.prefix, ka, kb);
  }
  if (key.reverse) c = -c;
  if (c == 0 && keys_.size() > 1) c = compare_later_keys(a.line, b.line);
  if (c != 0 || unique_ || stable_only_) return c;
  c = raw_compare(a.line, b.line);
  return reverse_ ? -c : c;
}

std::string SortSpec::sort_stream(std::string_view input) const {
  std::vector<KeyedLine> records;
  records.reserve(static_cast<std::size_t>(
                      std::count(input.begin(), input.end(), '\n')) +
                  1);
  std::string_view rest = input, line;
  while (next_line(rest, &line)) records.push_back(keyed(line));
  std::stable_sort(records.begin(), records.end(),
                   [this](const KeyedLine& a, const KeyedLine& b) {
                     return compare(a, b) < 0;
                   });
  std::string out;
  out.reserve(input.size() + 1);
  const KeyedLine* last = nullptr;
  for (const KeyedLine& r : records) {
    if (unique_ && last != nullptr && compare(*last, r) == 0) continue;
    last = &r;
    out += r.line;
    out += '\n';
  }
  return out;
}

std::string SortSpec::merge_streams(
    const std::vector<std::string_view>& streams) const {
  std::vector<std::string_view> rest(streams.begin(), streams.end());
  std::size_t total = 0;
  KeyedMerge merge(*this);
  std::string_view line;
  for (std::size_t q = 0; q < rest.size(); ++q) {
    total += rest[q].size() + 1;
    if (next_line(rest[q], &line)) merge.add(q, keyed(line));
  }
  std::string out;
  out.reserve(total);
  KeyedLine last;  // views the input streams, so it outlives the heads
  bool have_last = false;
  while (!merge.empty()) {
    const KeyedLine& head = merge.top();
    if (!unique_ || !have_last || compare(last, head) != 0) {
      out += head.line;
      out += '\n';
      last = head;
      have_last = true;
    }
    std::size_t q = merge.top_source();
    if (next_line(rest[q], &line)) {
      merge.replace_top(keyed(line));
    } else {
      merge.pop_top();
    }
  }
  return out;
}

bool SortSpec::is_sorted_stream(std::string_view input) const {
  std::string_view rest = input, line;
  if (!next_line(rest, &line)) return true;
  KeyedLine prev = keyed(line);
  while (next_line(rest, &line)) {
    KeyedLine cur = keyed(line);
    if (compare(prev, cur) > 0) return false;
    prev = cur;
  }
  return true;
}

// ------------------------------------------------------------- KeyedMerge --

bool KeyedMerge::before(const Entry& a, const Entry& b) const {
  int c = spec_->compare(a.head, b.head);
  return c != 0 ? c < 0 : a.source < b.source;
}

void KeyedMerge::add(std::size_t source, const KeyedLine& head) {
  heap_.push_back({head, source});
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (!before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void KeyedMerge::replace_top(const KeyedLine& head) {
  heap_.front().head = head;
  sift_down(0);
}

void KeyedMerge::pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void KeyedMerge::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Entry moving = heap_[i];
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], moving)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = moving;
}

namespace {

// `sort -u` as a window: the only state the output depends on is the set of
// *distinct* lines, ordered by the spec's comparator. An ordered set keyed
// by compare() reproduces execute() exactly — stable_sort puts the
// earliest-input line first within each equal-key class and -u keeps it,
// and std::set::insert likewise keeps the first-inserted element — so the
// window is O(distinct output), not O(input). When the distinct set itself
// outgrows the runtime's budget, drain_sorted_run() exports it as one
// sorted run (the state *is* a sorted -u stream) and the dataflow node
// spills it through the external merge, whose cross-run -u dedup and
// run-index tie-break preserve the same first-occurrence choice.
class SortUniqueWindowProcessor final : public WindowProcessor {
 public:
  explicit SortUniqueWindowProcessor(const SortSpec* spec)
      : spec_(spec), set_(Cmp{spec}) {}

  void push(std::string_view block, std::string* out) override {
    (void)out;  // any line can still be preceded; nothing is final
    std::string_view rest = block, line;
    while (next_line(rest, &line)) {
      // One tree walk per line: lower_bound doubles as the duplicate
      // check and the insertion hint.
      KeyedLine key = spec_->keyed(line);
      auto it = set_.lower_bound(key);
      if (it != set_.end() && !set_.key_comp()(key, *it)) continue;
      set_.emplace_hint(it, Entry{std::string(line), key});
      bytes_ += line.size() + kPerLineOverhead;
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
    return true;
  }

 private:
  struct Entry {
    std::string line;
    KeyedLine key;  // its view is stale: compare keyed()
    KeyedLine keyed() const { return rebased(key, line); }
  };
  struct Cmp {
    using is_transparent = void;  // keyed probe: no alloc on dups
    const SortSpec* spec;
    bool operator()(const Entry& a, const Entry& b) const {
      return spec->compare(a.keyed(), b.keyed()) < 0;
    }
    bool operator()(const KeyedLine& probe, const Entry& b) const {
      return spec->compare(probe, b.keyed()) < 0;
    }
    bool operator()(const Entry& a, const KeyedLine& probe) const {
      return spec->compare(a.keyed(), probe) < 0;
    }
  };
  // Rough allocator cost of a set node beyond the line's own bytes.
  static constexpr std::size_t kPerLineOverhead =
      sizeof(Entry) + 4 * sizeof(void*);
  static constexpr std::size_t kFlushBytes = 64 << 10;

  const SortSpec* spec_;
  std::set<Entry, Cmp> set_;
  std::size_t bytes_ = 0;
};

class SortCommand final : public Command {
 public:
  SortCommand(std::string name, SortSpec spec)
      : Command(std::move(name)), spec_(std::move(spec)) {}

  Result execute(std::string_view input) const override {
    return {spec_.sort_stream(input), 0, {}};
  }

  // Without -u, sort's state is the whole input (the external merge sort
  // bounds it instead); with -u the distinct set is the window, and every
  // supported comparator yields the same first-occurrence representative
  // as stable_sort + dedup, so the window declaration is safe whenever -u
  // parses.
  Streamability streamability() const override {
    return spec_.unique() ? Streamability::kWindow : Streamability::kNone;
  }
  std::unique_ptr<WindowProcessor> window_processor() const override {
    if (!spec_.unique()) return nullptr;
    return std::make_unique<SortUniqueWindowProcessor>(&spec_);
  }

  const SortSpec& spec() const { return spec_; }

 private:
  SortSpec spec_;
};

}  // namespace

std::shared_ptr<const SortSpec> sort_spec_of(const Command& command) {
  const auto* sort = dynamic_cast<const SortCommand*>(&command);
  if (sort == nullptr) return nullptr;
  return std::make_shared<const SortSpec>(sort->spec());
}

CommandPtr make_sort_command(const Argv& argv, std::string* error) {
  std::vector<std::string> flags(argv.begin() + 1, argv.end());
  auto spec = SortSpec::parse(flags, error);
  if (!spec) return nullptr;
  if (spec->merge_mode()) {
    if (error) *error = "sort: -m as a pipeline stage is not supported";
    return nullptr;
  }
  return std::make_shared<SortCommand>(argv_to_display(argv),
                                       std::move(*spec));
}

CommandPtr make_sort(const Argv& argv, std::string* error) {
  return make_sort_command(argv, error);
}

}  // namespace kq::cmd
