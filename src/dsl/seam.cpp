#include "dsl/seam.h"

#include <cstring>
#include <optional>

#include "dsl/domain.h"
#include "dsl/eval.h"
#include "text/padding.h"
#include "text/streams.h"

namespace kq::dsl {
namespace {

bool struct_op(Op op) {
  return op == Op::kStitch || op == Op::kStitch2 || op == Op::kOffset;
}

bool same_tree(const NodeRef& a, const NodeRef& b) {
  return node_to_string(*a) == node_to_string(*b);
}

// `first` and `second` agree on equal operands and accept every value, so
// members differing only in such a leaf at an equal-operands position are
// the same function with the same domain.
bool equal_values_leaf(const NodeRef& a, const NodeRef& b) {
  auto leaf = [](const Node& n) {
    return n.op == Op::kFirst || n.op == Op::kSecond;
  };
  return same_tree(a, b) || (leaf(*a) && leaf(*b));
}

// The start of the last line of a stream (its final byte is '\n').
std::size_t last_line_start(std::string_view stream) {
  if (stream.size() < 2) return 0;
  std::size_t pos = stream.rfind('\n', stream.size() - 2);
  return pos == std::string_view::npos ? 0 : pos + 1;
}

}  // namespace

bool seam_foldable(const std::vector<Combiner>& members) {
  if (members.empty()) return false;
  const Node& lead = *members.front().node;
  for (const Combiner& g : members) {
    const Node& n = *g.node;
    if (g.swapped || !struct_op(n.op) || n.op != lead.op ||
        n.delim != lead.delim)
      return false;
    switch (n.op) {
      case Op::kStitch:
        if (!equal_values_leaf(n.child1, lead.child1)) return false;
        break;
      case Op::kStitch2:
        if (!same_tree(n.child1, lead.child1) ||
            !equal_values_leaf(n.child2, lead.child2))
          return false;
        break;
      default:  // offset: b meets two different values, so no freedom
        if (!same_tree(n.child1, lead.child1)) return false;
        break;
    }
  }
  return true;
}

SeamFold::SeamFold(Combiner g) : g_(std::move(g)) {
  const Node& n = *g_.node;
  b1_.node = n.child1;
  b2_.node = n.child2;
  const Op b = n.child1->op;
  lines_trivial_ = n.op == Op::kStitch &&
                   (b == Op::kFirst || b == Op::kSecond || b == Op::kConcat);
}

// One line of acc or of a part against the operator's legal domain
// (dsl/domain.cpp's legal_struct, line by line).
bool SeamFold::line_ok(std::string_view line) const {
  const Node& n = *g_.node;
  switch (n.op) {
    case Op::kStitch:
      return legal_rec(*b1_.node, line);
    case Op::kStitch2: {
      TableLine t = parse_table_line(line, n.delim, /*require_padding=*/true);
      return t.ok && legal_rec(*b1_.node, t.head) &&
             legal_rec(*b2_.node, t.tail);
    }
    default: {
      if (line.empty()) return true;
      TableLine t = parse_table_line(line, n.delim, /*require_padding=*/false);
      return t.ok && legal_rec(*b1_.node, t.head);
    }
  }
}

// Every '\n'-separated segment of `text`, the last one included even when
// empty: lines_ok(body) for a stream body ++ "\n" checks exactly
// text::lines(body ++ "\n").
bool SeamFold::lines_ok(std::string_view text) const {
  if (lines_trivial_) return true;
  const char* p = text.data();
  const char* end = p + text.size();
  for (;;) {
    const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
    const char* stop = nl ? static_cast<const char*>(nl) : end;
    if (!line_ok(std::string_view(p, static_cast<std::size_t>(stop - p))))
      return false;
    if (!nl) return true;
    p = stop + 1;
  }
}

// The operand check of eval_stitch/eval_stitch2/eval_offset: a stream of
// legal lines, where stitch2 and offset also admit exactly "\n".
bool SeamFold::legal_part(std::string_view part) {
  bytes_read_ += part.size();
  if (g_.node->op != Op::kStitch && part == "\n") return true;
  if (!text::is_stream(part)) return false;
  return lines_ok(part.substr(0, part.size() - 1));
}

bool SeamFold::add(std::string part, std::string* settled) {
  settled->clear();
  if (g_.node->op == Op::kOffset) return add_offset(std::move(part), settled);
  return add_stitch(std::move(part), settled);
}

bool SeamFold::add_stitch(std::string part, std::string* settled) {
  const Node& n = *g_.node;
  if (parts_++ == 0) {
    // Held whole: a lone part is the result unchecked; only a second part
    // puts it through the operand check.
    acc_legal_ = legal_part(part);
    pending_ = std::move(part);
    return true;
  }
  if (!acc_legal_ || !legal_part(part)) return false;

  // The seam: acc's last line (pending_'s) against the part's first line.
  const std::size_t start = last_line_start(pending_);
  const std::string_view last =
      std::string_view(pending_).substr(start, pending_.size() - 1 - start);
  const std::size_t first_end = part.find('\n');
  const std::string_view first = std::string_view(part).substr(0, first_end);
  bytes_read_ += last.size() + first.size();

  std::optional<std::string> joined;  // the combined seam line, if equal
  bool concat_newline = false;
  if (n.op == Op::kStitch) {
    if (last == first) {
      joined = eval(b1_, last, first);
      if (!joined) return false;
    }
  } else if (pending_ == "\n" || part == "\n") {
    // stitch2 concatenates a "\n" operand (a legal stitch2 acc is "\n"
    // only as a lone first part); the empty line it leaves in acc lies
    // outside the domain, so no later fold is defined.
    concat_newline = true;
  } else {
    TableLine t1 = parse_table_line(last, n.delim, true);
    TableLine t2 = parse_table_line(first, n.delim, true);
    if (!t1.ok || !t2.ok) return false;
    if (t1.tail == t2.tail) {
      auto head = eval(b1_, t1.head, t2.head);
      if (!head) return false;
      auto tail = eval(b2_, t1.tail, t2.tail);
      if (!tail) return false;
      joined = text::pad_to_width(*head, *tail, n.delim,
                                  t1.pad + t1.head.size());
    }
  }

  if (joined) {
    // acc' = head(acc) ++ joined ++ "\n" ++ tail(part): the carried line
    // is replaced (in place when the widths agree, as they do for uniq -c
    // counts within their column) and leaves with the part's buffer.
    acc_legal_ = lines_ok(*joined);
    pending_.resize(start);
    part.replace(0, first_end, *joined);
  } else {
    acc_legal_ = !concat_newline;
  }
  *settled = std::move(pending_);
  pending_ = std::move(part);
  return true;
}

void SeamFold::set_base(std::string_view text) {
  text::NonemptyLineSplit last = text::split_last_nonempty_line(text);
  if (last.ok) base_.assign(last.line);
}

bool SeamFold::add_offset(std::string part, std::string* settled) {
  const Node& n = *g_.node;
  if (parts_++ == 0) {
    acc_legal_ = legal_part(part);
    if (!acc_legal_) {
      pending_ = std::move(part);  // a lone illegal part passes as is
      return true;
    }
    set_base(part);
    *settled = std::move(part);  // offset never rewrites its first operand
    return true;
  }
  if (!acc_legal_ || !legal_part(part)) return false;
  // An acc without a non-empty line leaves base_ empty, which fails the
  // parse as split_last_nonempty_line fails in eval_offset.
  TableLine t1 = parse_table_line(base_, n.delim, false);
  if (!t1.ok) return false;
  bytes_read_ += base_.size();

  std::string out;
  out.reserve(part.size() + part.size() / 8);
  bool legal = true;
  std::size_t pos = 0;
  while (pos < part.size()) {
    const std::size_t nl = part.find('\n', pos);
    const std::string_view line =
        std::string_view(part).substr(pos, nl - pos);
    pos = nl + 1;
    if (!line.empty()) {
      TableLine t2 = parse_table_line(line, n.delim, false);
      if (!t2.ok) return false;
      auto head = eval(b1_, t1.head, t2.head);
      if (!head) return false;
      const std::size_t line_start = out.size();
      out += text::pad_to_width(*head, t2.tail, n.delim,
                                t2.pad + t2.head.size());
      legal = legal && line_ok(std::string_view(out).substr(line_start));
    }
    out.push_back('\n');
  }
  bytes_read_ += out.size();
  acc_legal_ = legal;
  set_base(out);
  *settled = std::move(out);
  return true;
}

std::string SeamFold::finish() { return std::move(pending_); }

}  // namespace kq::dsl
