// Lazy DFA for boolean search. A state is the set of consuming
// instructions live after an epsilon closure, plus two flags: a match is
// reachable now, or only at end of text. States are built on first use and
// kept in a per-thread cache capped by bytes; a search that needs a state
// past the cap finishes on the Pike VM instead, so memory stays bounded
// and the answer stays exact.
//
// Search is unanchored: every transition re-seeds the program's start, so
// a state covers every match start at once. `^` holds only in the initial
// state (position 0); `$` is resolved by the end-of-text flag.

#include <algorithm>
#include <unordered_map>

#include "regex/program.h"

namespace kq::regex::detail {
namespace {

constexpr std::size_t kCacheBytes = 512 << 10;
constexpr std::int32_t kUnknown = -1;
constexpr std::int32_t kFull = -2;

enum : std::uint8_t {
  kMatchNow = 1,  // a match ends here
  kMatchEol = 2,  // a match ends here if this is the end of the text
  kDead = 4,      // no match can start, continue or end from here
};

struct DfaCache {
  explicit DfaCache(const Program& p)
      : ncls(p.nbyte_classes), list(p.insts.size(), 0) {
    for (int c = 255; c >= 0; --c)
      class_rep[p.byte_class[static_cast<std::size_t>(c)]] =
          static_cast<unsigned char>(c);
  }

  std::size_t ncls;
  std::array<unsigned char, 256> class_rep{};
  std::vector<std::int32_t> trans;  // state · ncls + class -> state
  std::vector<std::uint8_t> flags;
  std::vector<std::vector<std::uint32_t>> live;  // consuming pcs per state
  std::unordered_map<std::string, std::int32_t> index;
  std::int32_t initial = kUnknown;
  std::size_t bytes = 0;

  // Closure scratch (no captures).
  ThreadList list;
  ClosureStack stack;
  std::vector<std::uint32_t> kernel, out;
};

// Epsilon closure of c.kernel under the given assertions: leaves the
// reachable consuming pcs, sorted, in c.out; returns whether Match is
// reachable.
bool closure(const Program& p, DfaCache& c, bool bol, bool eol) {
  c.list.clear();
  for (std::uint32_t pc : c.kernel)
    add_thread(p, c.stack, c.list, pc, 0, bol, eol, /*want_caps=*/false);
  c.out.clear();
  bool match = false;
  for (std::size_t i = 0; i < c.list.size; ++i) {
    const std::uint32_t pc = c.list.dense[i];
    if (p.insts[pc].consumes())
      c.out.push_back(pc);
    else if (p.insts[pc].op == Op::kMatch)
      match = true;
  }
  std::sort(c.out.begin(), c.out.end());
  return match;
}

// The state reached from `kernel` (the pcs after a consumed byte, plus the
// start), built and cached on first sight; kFull past the byte cap.
std::int32_t state_for(const Program& p, DfaCache& c, bool bol) {
  bool match_eol = closure(p, c, bol, /*eol=*/true);
  bool match_now = closure(p, c, bol, /*eol=*/false);
  std::uint8_t f = (match_now ? kMatchNow : 0) | (match_eol ? kMatchEol : 0);
  if (c.out.empty() && !match_now && !match_eol) f |= kDead;
  std::string key(reinterpret_cast<const char*>(c.out.data()),
                  c.out.size() * sizeof(std::uint32_t));
  key.push_back(static_cast<char>(f));
  if (auto it = c.index.find(key); it != c.index.end()) return it->second;
  std::size_t cost = c.ncls * sizeof(std::int32_t) + 2 * key.size() + 64;
  if (c.bytes + cost > kCacheBytes) return kFull;
  c.bytes += cost;
  auto id = static_cast<std::int32_t>(c.flags.size());
  c.flags.push_back(f);
  c.live.push_back(c.out);
  c.trans.resize(c.trans.size() + c.ncls, kUnknown);
  c.index.emplace(std::move(key), id);
  return id;
}

std::int32_t step(const Program& p, DfaCache& c, std::int32_t from,
                  std::size_t cls) {
  unsigned char rep = c.class_rep[cls];
  c.kernel.clear();
  for (std::uint32_t pc : c.live[static_cast<std::size_t>(from)])
    if (p.accepts(p.insts[pc], rep)) c.kernel.push_back(pc + 1);
  c.kernel.push_back(p.start);
  std::int32_t to = state_for(p, c, /*bol=*/false);
  if (to != kFull)
    c.trans[static_cast<std::size_t>(from) * c.ncls + cls] = to;
  return to;
}

DfaCache& cache_for(const Program& p) {
  thread_local ThreadCache<DfaCache> cache;
  return cache.get(p);
}

}  // namespace

bool dfa_search(const Program& p, std::string_view text) {
  DfaCache& c = cache_for(p);
  if (c.initial == kUnknown) {
    c.kernel.assign(1, p.start);
    c.initial = state_for(p, c, /*bol=*/true);
    if (c.initial == kFull) return pike_search(p, text);
  }
  std::int32_t s = c.initial;
  const std::size_t ncls = c.ncls;
  for (unsigned char ch : text) {
    std::uint8_t f = c.flags[static_cast<std::size_t>(s)];
    if (f & (kMatchNow | kDead)) return f & kMatchNow;
    std::size_t cls = p.byte_class[ch];
    std::int32_t next = c.trans[static_cast<std::size_t>(s) * ncls + cls];
    if (next < 0) {
      next = step(p, c, s, cls);
      if (next == kFull) return pike_search(p, text);
    }
    s = next;
  }
  return c.flags[static_cast<std::size_t>(s)] & (kMatchNow | kMatchEol);
}

}  // namespace kq::regex::detail
