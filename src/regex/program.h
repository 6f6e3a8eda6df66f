// Internal compiled form of a backreference-free pattern: a Thompson NFA
// program with leftmost-first thread priority, plus the facts the matchers
// and grep's block scan read off the AST (required literal, byte classes).
// Shared by program.cpp, dfa.cpp, pike.cpp and matcher.cpp; not part of the
// public API.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "regex/node.h"
#include "regex/regex.h"

namespace kq::regex::detail {

enum class Op : std::uint8_t {
  kByte,       // consume `byte`
  kAny,        // consume any byte but '\n'
  kClass,      // consume a byte of classes[arg]
  kMatch,      // accept
  kJmp,        // goto x
  kSplit,      // goto x, then (lower priority) y
  kSave,       // slots[arg] = position
  kBol,        // assert position == 0
  kEol,        // assert position == text size
  kLoopBegin,  // an iteration of tracked loop `arg` starts here
  kLoopCheck,  // the iteration of tracked loop `arg` must have consumed
};

struct Inst {
  Op op;
  unsigned char byte = 0;
  std::uint32_t arg = 0;  // class index, slot, or tracked-loop index
  std::uint32_t x = 0;    // kJmp / kSplit targets
  std::uint32_t y = 0;

  bool consumes() const {
    return op == Op::kByte || op == Op::kAny || op == Op::kClass;
  }
};

// The backtracker refuses an iteration of a repetition that consumed
// nothing (`\(a*\)*` stops instead of spinning). A loop whose body can
// match empty is "tracked": the program brackets each iteration with
// kLoopBegin/kLoopCheck, and a thread's epsilon-closure state carries one
// bit per tracked loop, set while the current iteration has consumed
// nothing. Loops whose body always consumes need no bracket at all.
using LoopMask = std::uint64_t;
constexpr std::size_t kMaxTrackedLoops = 64;

struct Program {
  std::vector<Inst> insts;
  std::vector<std::bitset<256>> classes;
  std::uint32_t start = 0;
  // Capture slots: 2·i and 2·i+1 bracket group i; group 0 is the match.
  std::size_t nslots = 2;
  std::size_t ntracked = 0;
  // Bytes every consuming instruction treats alike share a class, so the
  // lazy DFA's transition rows have `nbyte_classes` entries, not 256.
  std::array<std::uint8_t, 256> byte_class{};
  std::size_t nbyte_classes = 1;
  // Unique per compiled program for the life of the process; keys the
  // per-thread matcher caches (an address could be reused).
  std::uint64_t id = 0;

  bool accepts(const Inst& in, unsigned char c) const {
    switch (in.op) {
      case Op::kByte: return c == in.byte;
      case Op::kAny: return c != '\n';
      case Op::kClass: return classes[in.arg][c];
      default: return false;
    }
  }
};

// Lowers a backreference-free AST to a program. Returns nullptr (with
// *error set) when the pattern nests more tracked loops than a LoopMask
// holds.
std::shared_ptr<const Program> compile_program(const Node& root,
                                               int group_count,
                                               std::string* error);

bool has_backref(const Node& n);

// A backreference-free AST whose matches include every match of `root`:
// each \N becomes a copy of group N's body, which matches whatever the
// group captured, or `.*` when that body holds an anchor (it would assert
// at the wrong place) or a backreference of its own. The DFA over it
// rejects most lines a backreference pattern cannot match, before the
// backtracker runs (GNU grep prefilters the same way).
NodePtr relax_backrefs(const NodePtr& root);

// What the AST says about literals: `required` is the longest byte string
// every match contains ("" when none is known); `exact` is set when every
// match is exactly that one string, with no anchor or alternative.
struct LiteralFacts {
  std::string required;
  bool exact = false;
};
LiteralFacts literal_facts(const Node& root);

// Mutable matcher state (DFA states, Pike VM thread lists) lives in
// per-thread caches keyed by Program::id, so a Regex stays immutable and
// shareable across worker threads: dfa.cpp and pike.cpp each keep one
// thread_local ThreadCache. A few programs per thread stay warm (a fused
// chain alternates between its greps); the oldest is evicted.
template <typename T>
class ThreadCache {
 public:
  T& get(const Program& prog) {
    for (Entry& e : entries_)
      if (e.id == prog.id) return *e.value;
    Entry& e = entries_[victim_++ % entries_.size()];
    e.value = std::make_unique<T>(prog);
    e.id = prog.id;
    return *e.value;
  }

 private:
  struct Entry {
    std::uint64_t id = 0;
    std::unique_ptr<T> value;
  };
  std::array<Entry, 4> entries_;
  std::size_t victim_ = 0;
};

// The thread list of one text position: a sparse set of pcs in insertion
// (= priority) order, with one capture row per member pc. Inside a tracked
// loop's iteration that has not consumed yet, the open-iteration mask
// changes a thread's future (kLoopCheck kills it), so there the visited key
// is (pc, mask); everywhere else it is the pc.
struct ThreadList {
  ThreadList(std::size_t ninst, std::size_t nslots)
      : sparse(ninst), dense(ninst), slots(ninst * nslots) {}

  bool contains(std::uint32_t pc) const {
    std::uint32_t i = sparse[pc];
    return i < size && dense[i] == pc;
  }
  void insert(std::uint32_t pc) {
    sparse[pc] = static_cast<std::uint32_t>(size);
    dense[size++] = pc;
  }
  void clear() {
    size = 0;
    masked.clear();
  }

  std::vector<std::uint32_t> sparse, dense;
  std::size_t size = 0;
  std::vector<std::size_t> slots;  // pc · nslots + slot
  std::vector<std::pair<std::uint32_t, LoopMask>> masked;
};

// Scratch of an epsilon closure: the explicit DFS stack (explore frames
// and capture-restore frames) and the captures of the path being walked.
struct ClosureStack {
  struct Frame {
    std::uint32_t pc;
    LoopMask mask;
    std::uint32_t slot;  // restore frames: the slot to reset; else kExplore
    std::size_t value;
  };
  static constexpr std::uint32_t kExplore = static_cast<std::uint32_t>(-1);

  std::vector<Frame> frames;
  std::vector<std::size_t> caps;
};

// Follows every epsilon path from `pc0` in priority order, adding the
// consuming and accepting pcs it reaches to `list` — with `want_caps`, each
// with the captures of the path that reached it first (kSave records
// `pos`). `bol`/`eol` say whether ^ and $ hold here. Shared by the Pike VM
// (pike.cpp) and the lazy DFA's state construction.
void add_thread(const Program& p, ClosureStack& s, ThreadList& list,
                std::uint32_t pc0, std::size_t pos, bool bol, bool eol,
                bool want_caps);

// Lazy-DFA boolean search (dfa.cpp): true iff the program matches anywhere
// in `text`. Falls back to the Pike VM when the state cache is full.
bool dfa_search(const Program& prog, std::string_view text);

// Pike VM (pike.cpp): the leftmost match at or after `from` with the
// captures the backtracker would report (leftmost-first thread priority).
std::optional<Match> pike_find(const Program& prog, std::string_view text,
                               std::size_t from, int group_count);
// Boolean form: stops at the first accepting thread.
bool pike_search(const Program& prog, std::string_view text);

// The retained greedy backtracker over the AST (backtrack.cpp), under a
// step budget; throws BudgetExceeded when it runs out.
std::optional<Match> backtrack_find(const Node& root, std::string_view text,
                                    std::size_t from, int group_count,
                                    std::string_view pattern);

}  // namespace kq::regex::detail
