// The greedy backtracking matcher over the AST: the engine for patterns
// with backreferences, and the reference the compiled engines are tested
// against. Continuation-passing: each node matches, then calls `k` with the
// position after it; the first path whose continuation succeeds wins.
//
// A backreference makes matching NP-hard in general, so the search runs
// under a budget of steps (node entries and repetition counts tried): at
// most kBacktrackStepBudget from any one start position, so a blow-up
// fails fast, and at most kBacktrackStepBudget + kBacktrackStepsPerByte·n
// over a line of n bytes, so polynomial work on a long line ends too.
// Nesting is capped at kBacktrackDepthLimit continuation frames. A
// repetition of a one-byte node (`.*`, `[a-z]*`, `a\+`) scans its run in a
// loop and tries the counts longest first, so it costs one frame however
// long the run; only iterations of a repeated group nest frames. Running
// out of either throws BudgetExceeded instead of hanging or overflowing
// the stack.

#include <algorithm>
#include <type_traits>

#include "regex/program.h"

namespace kq::regex::detail {
namespace {

using Caps = std::array<std::pair<std::size_t, std::size_t>, 10>;

// A non-owning reference to a continuation. Each continuation is a lambda
// that lives on the stack for exactly the call it is passed to, so nothing
// is copied or heap-allocated per step (a std::function here allocated on
// every node visited).
class Cont {
 public:
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, Cont>)
  Cont(const F& f)  // implicit: every lambda continuation converts
      : obj_(&f), call_([](const void* obj, std::size_t pos) {
          return (*static_cast<const F*>(obj))(pos);
        }) {}
  bool operator()(std::size_t pos) const { return call_(obj_, pos); }

 private:
  const void* obj_;
  bool (*call_)(const void*, std::size_t);
};

struct MatchContext {
  std::string_view text;
  Caps caps;
  std::uint64_t steps = 0;       // from the current start position
  std::uint64_t line_steps = 0;  // before the current start position
  std::uint64_t line_budget = 0;
  std::size_t depth = 0;
  std::string_view pattern;
};

[[noreturn]] void out_of_budget(const MatchContext& ctx, const char* what) {
  std::string msg = "[KQ-REGEX] backtracking ";
  msg += what;
  msg += " exhausted on pattern '";
  msg.append(ctx.pattern);
  msg += "' (line of ";
  msg += std::to_string(ctx.text.size());
  msg += " bytes)";
  throw BudgetExceeded(msg);
}

void charge(MatchContext& ctx, std::uint64_t steps) {
  ctx.steps += steps;
  if (ctx.steps > kBacktrackStepBudget ||
      ctx.line_steps + ctx.steps > ctx.line_budget)
    out_of_budget(ctx, "step budget");
}

struct DepthGuard {
  explicit DepthGuard(MatchContext& ctx) : ctx_(ctx) {
    charge(ctx_, 1);
    if (++ctx_.depth > kBacktrackDepthLimit) {
      --ctx_.depth;
      out_of_budget(ctx_, "depth limit");
    }
  }
  ~DepthGuard() { --ctx_.depth; }
  MatchContext& ctx_;
};

bool one_byte(const Node& n) {
  return n.kind == Kind::kLiteral || n.kind == Kind::kAny ||
         n.kind == Kind::kClass;
}

bool byte_matches(const Node& n, char c) {
  switch (n.kind) {
    case Kind::kLiteral: return c == n.ch;
    case Kind::kAny: return c != '\n';
    case Kind::kClass: return n.cls[static_cast<unsigned char>(c)];
    default: return false;
  }
}

bool match_node(const Node& n, MatchContext& ctx, std::size_t pos,
                const Cont& k);
bool match_byte_star(const Node& n, MatchContext& ctx, std::size_t p,
                     const Cont& k);
bool match_star(const Node& n, MatchContext& ctx, int count, std::size_t p,
                const Cont& k);

bool match_seq(const std::vector<NodePtr>& children, std::size_t idx,
               MatchContext& ctx, std::size_t pos, const Cont& k) {
  if (idx == children.size()) return k(pos);
  return match_node(*children[idx], ctx, pos, [&](std::size_t p2) {
    return match_seq(children, idx + 1, ctx, p2, k);
  });
}

bool match_node(const Node& n, MatchContext& ctx, std::size_t pos,
                const Cont& k) {
  DepthGuard guard(ctx);
  switch (n.kind) {
    case Kind::kLiteral:
    case Kind::kAny:
    case Kind::kClass:
      return pos < ctx.text.size() && byte_matches(n, ctx.text[pos]) &&
             k(pos + 1);
    case Kind::kBolAnchor:
      return pos == 0 && k(pos);
    case Kind::kEolAnchor:
      return pos == ctx.text.size() && k(pos);
    case Kind::kSeq:
      return match_seq(n.children, 0, ctx, pos, k);
    case Kind::kAlt:
      for (const auto& branch : n.children)
        if (match_node(*branch, ctx, pos, k)) return true;
      return false;
    case Kind::kGroup:
      return match_node(*n.children[0], ctx, pos, [&](std::size_t p2) {
        auto idx = static_cast<std::size_t>(n.index);
        auto saved = ctx.caps[idx];
        ctx.caps[idx] = {pos, p2};
        if (k(p2)) return true;
        ctx.caps[idx] = saved;
        return false;
      });
    case Kind::kBackref: {
      auto [b, e] = ctx.caps[static_cast<std::size_t>(n.index)];
      if (b == Match::kNpos) return false;  // unparticipating group
      std::string_view captured = ctx.text.substr(b, e - b);
      if (ctx.text.substr(pos, captured.size()) != captured) return false;
      return k(pos + captured.size());
    }
    case Kind::kStar:
      if (one_byte(*n.children[0])) return match_byte_star(n, ctx, pos, k);
      return match_star(n, ctx, 0, pos, k);
  }
  return false;
}

// A repetition of a one-byte node, in the order match_star would try it:
// the longest run the node matches from `p`, then one byte shorter, down
// to min_repeat. One frame whatever the run's length.
bool match_byte_star(const Node& n, MatchContext& ctx, std::size_t p,
                     const Cont& k) {
  const Node& atom = *n.children[0];
  std::size_t limit = ctx.text.size() - p;
  if (n.max_repeat >= 0)
    limit = std::min(limit, static_cast<std::size_t>(n.max_repeat));
  std::size_t run = 0;
  while (run < limit && byte_matches(atom, ctx.text[p + run])) ++run;
  charge(ctx, run);
  const auto least = static_cast<std::size_t>(n.min_repeat);
  for (std::size_t count = run + 1; count-- > least;) {
    charge(ctx, 1);
    if (k(p + count)) return true;
  }
  return false;
}

// Greedy: try one more repetition first, fall back to continuing.
bool match_star(const Node& n, MatchContext& ctx, int count, std::size_t p,
                const Cont& k) {
  if (n.max_repeat < 0 || count < n.max_repeat) {
    bool extended = match_node(*n.children[0], ctx, p, [&](std::size_t p2) {
      if (p2 == p) return false;  // refuse empty-width repetitions
      return match_star(n, ctx, count + 1, p2, k);
    });
    if (extended) return true;
  }
  return count >= n.min_repeat && k(p);
}

}  // namespace

std::optional<Match> backtrack_find(const Node& root, std::string_view text,
                                    std::size_t from, int group_count,
                                    std::string_view pattern) {
  MatchContext ctx{text, {}, 0, 0, 0, 0, pattern};
  ctx.line_budget = kBacktrackStepBudget + kBacktrackStepsPerByte * text.size();
  for (std::size_t start = from; start <= text.size(); ++start) {
    ctx.caps.fill({Match::kNpos, Match::kNpos});
    ctx.line_steps += ctx.steps;
    ctx.steps = 0;
    std::size_t match_end = 0;
    bool ok = match_node(root, ctx, start, [&](std::size_t p) {
      match_end = p;
      return true;
    });
    if (ok) {
      Match m;
      m.begin = start;
      m.end = match_end;
      m.groups = ctx.caps;
      m.group_count = group_count;
      return m;
    }
  }
  return std::nullopt;
}

}  // namespace kq::regex::detail
