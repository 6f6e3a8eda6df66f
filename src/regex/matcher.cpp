// Engine selection and the sed substitution loop. The choice is a property
// of the pattern alone: a backreference-free pattern compiles to a program
// and runs on the lazy DFA (search) or the Pike VM (find/replace); a
// pattern with a backreference keeps the AST and runs on the budgeted
// backtracker, behind a DFA over the pattern with its backreferences
// relaxed (detail::relax_backrefs). Every entry point first checks the
// required literal, which rejects most non-matching lines with one memmem;
// next_matching_line runs that check over a whole block and confirms only
// the lines it hits.

#include <cstring>

#include "regex/program.h"

namespace kq::regex {

bool Regex::contains_literal(std::string_view text) const {
  if (literal_.empty()) return true;
  return ::memmem(text.data(), text.size(), literal_.data(),
                  literal_.size()) != nullptr;
}

bool Regex::confirm(std::string_view line) const {
  if (literal_exact_) return true;
  if (program_) return detail::dfa_search(*program_, line);
  if (relaxed_ && !detail::dfa_search(*relaxed_, line)) return false;
  return backtrack_find(line).has_value();
}

bool Regex::search(std::string_view line) const {
  return contains_literal(line) && confirm(line);
}

std::optional<Regex::LineSpan> Regex::next_matching_line(
    std::string_view block, std::size_t from) const {
  const char* const data = block.data();
  const std::size_t n = block.size();
  auto line_end = [&](std::size_t pos) {
    const void* nl = std::memchr(data + pos, '\n', n - pos);
    return nl ? static_cast<std::size_t>(static_cast<const char*>(nl) - data)
              : n;
  };
  std::size_t pos = from;
  while (pos < n) {
    std::size_t begin = pos, end;
    if (literal_.empty()) {
      end = line_end(pos);
    } else {
      // Widen the literal's next occurrence to its line: that line holds
      // the literal, so only the engine is left to ask.
      const void* hit =
          ::memmem(data + pos, n - pos, literal_.data(), literal_.size());
      if (!hit) return std::nullopt;
      const auto h =
          static_cast<std::size_t>(static_cast<const char*>(hit) - data);
      if (const void* nl = ::memrchr(data + pos, '\n', h - pos))
        begin =
            static_cast<std::size_t>(static_cast<const char*>(nl) - data) + 1;
      end = line_end(h);
    }
    if (confirm(block.substr(begin, end - begin))) return LineSpan{begin, end};
    pos = end + 1;
  }
  return std::nullopt;
}

std::optional<Match> Regex::find(std::string_view line,
                                 std::size_t from) const {
  if (from > line.size() || !contains_literal(line.substr(from)))
    return std::nullopt;
  if (program_) return detail::pike_find(*program_, line, from, group_count_);
  // A match at or after `from` is a match in the line: one DFA pass rules
  // out the line (sed's `g` loop pays it only on its first find).
  if (from == 0 && relaxed_ && !detail::dfa_search(*relaxed_, line))
    return std::nullopt;
  return backtrack_find(line, from);
}

std::optional<Match> Regex::backtrack_find(std::string_view line,
                                           std::size_t from) const {
  return detail::backtrack_find(*root_, line, from, group_count_, pattern_);
}

namespace {

// Expands a sed-style replacement: & is the whole match, \1..\9 captures,
// \\ a literal backslash, \n a newline, \& a literal ampersand.
void expand_replacement(std::string& out, std::string_view replacement,
                        std::string_view text, const Match& m) {
  for (std::size_t i = 0; i < replacement.size(); ++i) {
    char c = replacement[i];
    if (c == '&') {
      out.append(text.substr(m.begin, m.end - m.begin));
    } else if (c == '\\' && i + 1 < replacement.size()) {
      char e = replacement[++i];
      if (e >= '1' && e <= '9') {
        out.append(m.group(text, e - '0'));
      } else if (e == 'n') {
        out.push_back('\n');
      } else if (e == 't') {
        out.push_back('\t');
      } else {
        out.push_back(e);
      }
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

std::string substitute(std::string_view line, std::string_view replacement,
                       bool global, bool* replaced, const FindFn& find) {
  std::string out;
  std::size_t pos = 0;
  std::size_t last_end = std::string_view::npos;  // previous match's end
  bool any = false;
  while (pos <= line.size()) {
    auto m = find(line, pos);
    if (!m) break;
    if (m->end == m->begin && m->begin == last_end) {
      // GNU sed refuses an empty match right where the previous match
      // ended (`s/t*/-/g` on "atttb" is "-a-b-"): copy one byte, retry.
      if (m->begin == line.size()) break;
      out.append(line.substr(pos, m->begin + 1 - pos));
      pos = m->begin + 1;
      continue;
    }
    out.append(line.substr(pos, m->begin - pos));
    expand_replacement(out, replacement, line, *m);
    any = true;
    last_end = m->end;
    if (m->end == m->begin) {
      // Empty-width match: emit the next character to guarantee progress.
      if (m->end < line.size()) out.push_back(line[m->end]);
      pos = m->end + 1;
    } else {
      pos = m->end;
    }
    if (!global) break;
  }
  if (pos <= line.size()) out.append(line.substr(pos));
  if (replaced) *replaced = any;
  return out;
}

std::string Regex::replace(std::string_view line, std::string_view replacement,
                           bool global, bool* replaced) const {
  if (!contains_literal(line)) {
    if (replaced) *replaced = false;
    return std::string(line);
  }
  return substitute(line, replacement, global, replaced,
                    [this](std::string_view l, std::size_t from) {
                      return find(l, from);
                    });
}

}  // namespace kq::regex
