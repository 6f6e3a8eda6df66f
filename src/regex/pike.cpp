// Pike VM: simulates every NFA thread in lockstep, one pass over the text,
// so time is O(text · program) whatever the pattern. Threads are kept in
// priority order — the order the backtracker would try their paths — and a
// state reached twice in one step keeps only its first (highest-priority)
// arrival; an accepting thread cuts every thread behind it. That makes the
// reported match and captures exactly the backtracker's: leftmost start,
// then the first successful path in greedy order.

#include <algorithm>

#include "regex/program.h"

namespace kq::regex::detail {

void add_thread(const Program& p, ClosureStack& s, ThreadList& list,
                std::uint32_t pc0, std::size_t pos, bool bol, bool eol,
                bool want_caps) {
  using Frame = ClosureStack::Frame;
  s.frames.push_back(Frame{pc0, 0, ClosureStack::kExplore, 0});
  while (!s.frames.empty()) {
    Frame fr = s.frames.back();
    s.frames.pop_back();
    if (fr.slot != ClosureStack::kExplore) {
      s.caps[fr.slot] = fr.value;
      continue;
    }
    std::uint32_t pc = fr.pc;
    LoopMask mask = fr.mask;
    while (true) {
      const Inst& in = p.insts[pc];
      const bool leaf = in.consumes() || in.op == Op::kMatch;
      if (mask == 0 || leaf) {
        if (list.contains(pc)) break;
        list.insert(pc);
      } else {
        auto key = std::make_pair(pc, mask);
        if (std::find(list.masked.begin(), list.masked.end(), key) !=
            list.masked.end())
          break;
        list.masked.push_back(key);
      }
      if (leaf) {
        if (want_caps)
          std::copy(s.caps.begin(), s.caps.end(),
                    list.slots.begin() +
                        static_cast<std::ptrdiff_t>(pc * s.caps.size()));
        break;
      }
      bool next = true;
      switch (in.op) {
        case Op::kJmp: pc = in.x; continue;
        case Op::kSplit:
          s.frames.push_back(Frame{in.y, mask, ClosureStack::kExplore, 0});
          pc = in.x;
          continue;
        case Op::kSave:
          if (want_caps) {
            s.frames.push_back(Frame{0, 0, in.arg, s.caps[in.arg]});
            s.caps[in.arg] = pos;
          }
          break;
        case Op::kBol: next = bol; break;
        case Op::kEol: next = eol; break;
        case Op::kLoopBegin: mask |= LoopMask{1} << in.arg; break;
        case Op::kLoopCheck: next = !(mask & (LoopMask{1} << in.arg)); break;
        default: break;
      }
      if (!next) break;
      ++pc;
    }
  }
}

namespace {

constexpr std::size_t kUnset = Match::kNpos;

struct PikeCache {
  explicit PikeCache(const Program& p)
      : nslots(p.nslots),
        a(p.insts.size(), p.nslots),
        b(p.insts.size(), p.nslots),
        best(p.nslots, kUnset) {
    closure.caps.assign(p.nslots, kUnset);
  }

  std::size_t nslots;
  ThreadList a, b;
  ClosureStack closure;
  std::vector<std::size_t> best;  // the match found so far
};

// Runs the VM from `from`; true when some thread accepted. With
// `want_caps`, c.best holds the winning thread's slots.
bool run(const Program& p, PikeCache& c, std::string_view text,
         std::size_t from, bool want_caps) {
  ThreadList* cur = &c.a;
  ThreadList* nxt = &c.b;
  cur->clear();
  const std::size_t n = text.size();
  bool matched = false;
  for (std::size_t pos = from;; ++pos) {
    if (!matched) {
      std::fill(c.closure.caps.begin(), c.closure.caps.end(), kUnset);
      add_thread(p, c.closure, *cur, p.start, pos, pos == 0, pos == n,
                 want_caps);
    }
    if (cur->size == 0 && (matched || pos >= n)) break;
    nxt->clear();
    for (std::size_t i = 0; i < cur->size; ++i) {
      std::uint32_t pc = cur->dense[i];
      const Inst& in = p.insts[pc];
      const std::size_t* row = cur->slots.data() + pc * c.nslots;
      if (in.op == Op::kMatch) {
        if (!want_caps) return true;
        matched = true;
        std::copy(row, row + c.nslots, c.best.begin());
        break;  // every thread behind this one has lower priority
      }
      if (!in.consumes() || pos >= n ||
          !p.accepts(in, static_cast<unsigned char>(text[pos])))
        continue;
      if (want_caps) std::copy(row, row + c.nslots, c.closure.caps.begin());
      add_thread(p, c.closure, *nxt, pc + 1, pos + 1, /*bol=*/false,
                 pos + 1 == n, want_caps);
    }
    std::swap(cur, nxt);
    if (pos >= n) break;
  }
  return matched;
}

PikeCache& cache_for(const Program& p) {
  thread_local ThreadCache<PikeCache> cache;
  return cache.get(p);
}

}  // namespace

std::optional<Match> pike_find(const Program& p, std::string_view text,
                               std::size_t from, int group_count) {
  PikeCache& c = cache_for(p);
  if (!run(p, c, text, from, /*want_caps=*/true)) return std::nullopt;
  Match m;
  m.begin = c.best[0];
  m.end = c.best[1];
  m.groups.fill({Match::kNpos, Match::kNpos});
  for (std::size_t g = 1; g < c.nslots / 2; ++g)
    m.groups[g] = {c.best[2 * g], c.best[2 * g + 1]};
  m.group_count = group_count;
  return m;
}

bool pike_search(const Program& p, std::string_view text) {
  return run(p, cache_for(p), text, 0, /*want_caps=*/false);
}

}  // namespace kq::regex::detail
