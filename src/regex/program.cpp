// AST -> Thompson NFA lowering and the literal facts behind the prefilter.

#include <atomic>

#include "regex/program.h"

namespace kq::regex::detail {
namespace {

// Can `n` match without consuming a byte? Anchors are zero-width.
bool nullable(const Node& n) {
  switch (n.kind) {
    case Kind::kLiteral:
    case Kind::kAny:
    case Kind::kClass:
      return false;
    case Kind::kBolAnchor:
    case Kind::kEolAnchor:
    case Kind::kBackref:
      return true;
    case Kind::kSeq:
      for (const NodePtr& c : n.children)
        if (!nullable(*c)) return false;
      return true;
    case Kind::kAlt:
      for (const NodePtr& c : n.children)
        if (nullable(*c)) return true;
      return false;
    case Kind::kGroup:
      return nullable(*n.children[0]);
    case Kind::kStar:
      return n.min_repeat == 0 || nullable(*n.children[0]);
  }
  return true;
}

class Compiler {
 public:
  explicit Compiler(Program& prog) : p_(prog) {}

  bool ok() const { return ok_; }
  bool too_many_loops() const { return too_many_loops_; }

  void emit(const Node& n) {
    switch (n.kind) {
      case Kind::kLiteral: {
        Inst in{Op::kByte};
        in.byte = static_cast<unsigned char>(n.ch);
        push(in);
        break;
      }
      case Kind::kAny:
        push(Inst{Op::kAny});
        break;
      case Kind::kClass: {
        Inst in{Op::kClass};
        in.arg = static_cast<std::uint32_t>(p_.classes.size());
        p_.classes.push_back(n.cls);
        push(in);
        break;
      }
      case Kind::kBolAnchor:
        push(Inst{Op::kBol});
        break;
      case Kind::kEolAnchor:
        push(Inst{Op::kEol});
        break;
      case Kind::kBackref:
        ok_ = false;  // callers route backreference patterns elsewhere
        break;
      case Kind::kSeq:
        for (const NodePtr& c : n.children) emit(*c);
        break;
      case Kind::kGroup: {
        Inst open{Op::kSave};
        open.arg = static_cast<std::uint32_t>(2 * n.index);
        push(open);
        emit(*n.children[0]);
        Inst close{Op::kSave};
        close.arg = open.arg + 1;
        push(close);
        break;
      }
      case Kind::kAlt:
        emit_alt(n);
        break;
      case Kind::kStar:
        emit_star(n);
        break;
    }
  }

 private:
  std::uint32_t pc() const {
    return static_cast<std::uint32_t>(p_.insts.size());
  }
  std::uint32_t push(Inst in) {
    p_.insts.push_back(in);
    return pc() - 1;
  }

  // Branches in order: each but the last is `split(branch, next)`; every
  // branch jumps past the last when it completes.
  void emit_alt(const Node& n) {
    std::vector<std::uint32_t> exits;
    exits.reserve(n.children.size());
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (i + 1 == n.children.size()) {
        emit(*n.children[i]);
        break;
      }
      std::uint32_t split = push(Inst{Op::kSplit});
      p_.insts[split].x = pc();
      emit(*n.children[i]);
      exits.push_back(push(Inst{Op::kJmp}));
      p_.insts[split].y = pc();
    }
    for (std::uint32_t j : exits) p_.insts[j].x = pc();
  }

  // Greedy repetition, one more iteration preferred over leaving:
  //   x\?  split(body, out)  body: [begin] x [check]
  //   x*   L: split(body, out)  body: [begin] x [check] jmp L
  //   x\+  L: [begin] x [check] split(L, out)
  // [begin]/[check] bracket a tracked loop (nullable body) only.
  void emit_star(const Node& n) {
    const Node& child = *n.children[0];
    std::optional<std::uint32_t> loop;
    if (nullable(child)) {
      if (p_.ntracked == kMaxTrackedLoops) {
        ok_ = false;
        too_many_loops_ = true;
        return;
      }
      loop = static_cast<std::uint32_t>(p_.ntracked++);
    }
    auto body = [&] {
      if (loop) {
        Inst begin{Op::kLoopBegin};
        begin.arg = *loop;
        push(begin);
      }
      emit(child);
      if (loop) {
        Inst check{Op::kLoopCheck};
        check.arg = *loop;
        push(check);
      }
    };
    if (n.min_repeat == 1) {
      std::uint32_t top = pc();
      body();
      std::uint32_t split = push(Inst{Op::kSplit});
      p_.insts[split].x = top;
      p_.insts[split].y = pc();
      return;
    }
    std::uint32_t split = push(Inst{Op::kSplit});
    p_.insts[split].x = pc();
    body();
    if (n.max_repeat < 0) {
      Inst back{Op::kJmp};
      back.x = split;
      push(back);
    }
    p_.insts[split].y = pc();
  }

  Program& p_;
  bool ok_ = true;
  bool too_many_loops_ = false;
};

// Byte classes are the runs between boundaries: a boundary sits before
// byte b when some consuming instruction accepts one of b-1, b but not the
// other. Bytes of one run are alike to every instruction.
void compute_byte_classes(Program& p) {
  std::bitset<256> boundary;
  for (const Inst& in : p.insts) {
    if (!in.consumes()) continue;
    for (int c = 1; c < 256; ++c)
      if (p.accepts(in, static_cast<unsigned char>(c - 1)) !=
          p.accepts(in, static_cast<unsigned char>(c)))
        boundary.set(static_cast<std::size_t>(c));
  }
  std::size_t cls = 0;
  for (int c = 0; c < 256; ++c) {
    if (boundary[static_cast<std::size_t>(c)]) ++cls;
    p.byte_class[static_cast<std::size_t>(c)] = static_cast<std::uint8_t>(cls);
  }
  p.nbyte_classes = cls + 1;
}

// Literal facts of one node: `exact` when the node always matches exactly
// `text`; otherwise `prefix`/`suffix` are strings every match starts/ends
// with and `best` the longest string every match contains.
struct Facts {
  bool exact = false;
  std::string text;  // the exact string when `exact`
  std::string prefix, suffix, best;
};

void keep_longer(std::string& best, const std::string& s) {
  if (s.size() > best.size()) best = s;
}

Facts facts_of(const Node& n);

Facts facts_of_seq(const std::vector<NodePtr>& children) {
  Facts f;
  f.exact = true;
  std::string run;       // exact text accumulated since the last gap
  bool at_start = true;  // no gap seen yet: `run` is also the prefix
  for (const NodePtr& c : children) {
    Facts cf = facts_of(*c);
    if (cf.exact) {
      run += cf.text;
      continue;
    }
    f.exact = false;
    // The child's prefix extends the current run; its suffix starts a new
    // one (anything between is unknown).
    std::string joined = run + cf.prefix;
    keep_longer(f.best, joined);
    keep_longer(f.best, cf.best);
    if (at_start) f.prefix = joined;
    at_start = false;
    run = cf.suffix;
  }
  if (f.exact) {
    f.text = run;
    f.prefix = f.suffix = f.best = run;
    return f;
  }
  keep_longer(f.best, run);
  f.suffix = run;
  return f;
}

Facts facts_of(const Node& n) {
  Facts f;
  switch (n.kind) {
    case Kind::kLiteral:
      // A '\n' can never occur inside a line, so keep it out of the
      // prefilter literal: a gap is always safe.
      if (n.ch == '\n') return f;
      f.exact = true;
      f.text = f.prefix = f.suffix = f.best = std::string(1, n.ch);
      return f;
    case Kind::kSeq:
      return facts_of_seq(n.children);
    case Kind::kGroup:
      return facts_of(*n.children[0]);
    case Kind::kAlt:
      if (n.children.size() == 1) return facts_of(*n.children[0]);
      return f;  // no single literal is known to be in every branch
    case Kind::kStar:
      if (n.min_repeat == 1) {
        Facts cf = facts_of(*n.children[0]);
        f.prefix = cf.exact ? cf.text : cf.prefix;
        f.suffix = cf.exact ? cf.text : cf.suffix;
        f.best = cf.best;
      }
      return f;
    default:
      return f;  // anchors, '.', classes, backreferences: a gap
  }
}

bool has_anchor_or_backref(const Node& n) {
  if (n.kind == Kind::kBolAnchor || n.kind == Kind::kEolAnchor ||
      n.kind == Kind::kBackref)
    return true;
  for (const NodePtr& c : n.children)
    if (has_anchor_or_backref(*c)) return true;
  return false;
}

void collect_groups(const NodePtr& n, std::vector<NodePtr>& groups) {
  if (n->kind == Kind::kGroup) {
    const auto i = static_cast<std::size_t>(n->index);
    if (groups.size() <= i) groups.resize(i + 1);
    groups[i] = n;
  }
  for (const NodePtr& c : n->children) collect_groups(c, groups);
}

// `n` with each backreference replaced as relax_backrefs describes;
// subtrees without one are shared, not copied.
NodePtr relaxed(const NodePtr& n, const std::vector<NodePtr>& groups) {
  if (n->kind == Kind::kBackref) {
    const auto i = static_cast<std::size_t>(n->index);
    if (i < groups.size() && groups[i] &&
        !has_anchor_or_backref(*groups[i]->children[0]))
      return groups[i]->children[0];
    auto any = std::make_shared<Node>();
    any->kind = Kind::kAny;
    auto star = std::make_shared<Node>();
    star->kind = Kind::kStar;
    star->children.push_back(std::move(any));
    return star;
  }
  if (!has_backref(*n)) return n;
  auto copy = std::make_shared<Node>(*n);
  for (NodePtr& c : copy->children) c = relaxed(c, groups);
  return copy;
}

}  // namespace

NodePtr relax_backrefs(const NodePtr& root) {
  std::vector<NodePtr> groups;
  collect_groups(root, groups);
  return relaxed(root, groups);
}

bool has_backref(const Node& n) {
  if (n.kind == Kind::kBackref) return true;
  for (const NodePtr& c : n.children)
    if (has_backref(*c)) return true;
  return false;
}

LiteralFacts literal_facts(const Node& root) {
  Facts f = facts_of(root);
  LiteralFacts out;
  out.required = f.best;
  out.exact = f.exact && !f.text.empty();
  return out;
}

std::shared_ptr<const Program> compile_program(const Node& root,
                                               int group_count,
                                               std::string* error) {
  static std::atomic<std::uint64_t> next_id{1};
  auto prog = std::make_shared<Program>();
  prog->nslots = 2 * static_cast<std::size_t>(group_count + 1);
  Compiler c(*prog);
  Inst open{Op::kSave};
  open.arg = 0;
  prog->insts.push_back(open);
  c.emit(root);
  Inst close{Op::kSave};
  close.arg = 1;
  prog->insts.push_back(close);
  prog->insts.push_back(Inst{Op::kMatch});
  if (!c.ok()) {
    if (error)
      *error = c.too_many_loops()
                   ? "too many repetitions of empty-matchable groups"
                   : "backreferences need the backtracking engine";
    return nullptr;
  }
  compute_byte_classes(*prog);
  prog->id = next_id.fetch_add(1, std::memory_order_relaxed);
  return prog;
}

}  // namespace kq::regex::detail
