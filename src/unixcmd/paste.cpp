// Built-in `paste` over standard input, in GNU's two modes:
//
//  * `paste - -` (N dashes): groups consecutive input lines into rows of N
//    columns. This is the bigram idiom from Unix-for-Poets (`paste book
//    shifted_book` approximated in stream form). Its output depends on line
//    positions modulo N, so no combiner in the DSL exists and the stage
//    correctly stays sequential.
//  * `paste -s` (serial): joins every input line into one output line. A
//    dash after the first reads an already drained stdin and adds an empty
//    line, as GNU's does.
//
// `-d LIST` supplies the separators, used cyclically (per row, or along
// the serial line) with GNU's escapes: \n \t \\ \b \f \r \v, and \0 for no
// separator; any other escaped character stands for itself. The default is
// a tab.

#include <algorithm>

#include "text/streams.h"
#include "unixcmd/builtins.h"

namespace kq::cmd {
namespace {

class PasteCommand final : public Command {
 public:
  PasteCommand(std::string name, int columns, bool serial,
               std::vector<std::string> delims)
      : Command(std::move(name)),
        columns_(columns),
        serial_(serial),
        delims_(std::move(delims)) {}

  Result execute(std::string_view input) const override {
    auto ls = text::lines(input);
    std::string out;
    out.reserve(input.size() + 1);
    if (serial_) {
      for (std::size_t i = 0; i < ls.size(); ++i) {
        if (i != 0) out += delims_[(i - 1) % delims_.size()];
        out += ls[i];
      }
      out.push_back('\n');
      out.append(static_cast<std::size_t>(columns_ - 1), '\n');
      return {std::move(out), 0, {}};
    }
    for (std::size_t i = 0; i < ls.size(); i += static_cast<std::size_t>(
                                                    columns_)) {
      for (int c = 0; c < columns_; ++c) {
        if (c != 0)
          out += delims_[static_cast<std::size_t>(c - 1) % delims_.size()];
        std::size_t idx = i + static_cast<std::size_t>(c);
        if (idx < ls.size()) out += ls[idx];
      }
      out.push_back('\n');
    }
    return {std::move(out), 0, {}};
  }

 private:
  int columns_;  // dash operands
  bool serial_;
  std::vector<std::string> delims_;  // each one character, or empty (\0)
};

// GNU paste's -d list: one separator per character after escapes.
bool parse_delims(const std::string& list, std::vector<std::string>* out,
                  std::string* error) {
  out->clear();
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i] != '\\') {
      out->push_back(std::string(1, list[i]));
      continue;
    }
    if (++i == list.size()) {
      if (error)
        *error = "paste: delimiter list ends with an unescaped backslash";
      return false;
    }
    switch (list[i]) {
      case '0': out->push_back(""); break;
      case 'n': out->push_back("\n"); break;
      case 't': out->push_back("\t"); break;
      case 'b': out->push_back("\b"); break;
      case 'f': out->push_back("\f"); break;
      case 'r': out->push_back("\r"); break;
      case 'v': out->push_back("\v"); break;
      default: out->push_back(std::string(1, list[i])); break;
    }
  }
  // An empty list joins with nothing, as GNU's -d '' does.
  if (out->empty()) out->push_back("");
  return true;
}

}  // namespace

CommandPtr make_paste(const Argv& argv, std::string* error) {
  int columns = 0;
  bool serial = false;
  std::vector<std::string> delims = {"\t"};
  auto usage = [error] {
    if (error)
      *error = "paste: only `paste [-s] [-d LIST] - ...` over stdin is "
               "supported";
    return nullptr;
  };
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a == "-") {
      ++columns;
    } else if (a == "--serial") {
      serial = true;
    } else if (a.rfind("--delimiters=", 0) == 0) {
      if (!parse_delims(a.substr(13), &delims, error)) return nullptr;
    } else if (a.size() > 1 && a[0] == '-' && a[1] != '-') {
      // Bundled short options: -s, -d LIST, -dLIST, -sd+, -s -d ,
      for (std::size_t j = 1; j < a.size(); ++j) {
        if (a[j] == 's') {
          serial = true;
        } else if (a[j] == 'd') {
          std::string list;
          if (j + 1 < a.size()) {
            list = a.substr(j + 1);
          } else if (i + 1 < argv.size()) {
            list = argv[++i];
          } else {
            if (error) *error = "paste: option requires an argument -- 'd'";
            return nullptr;
          }
          if (!parse_delims(list, &delims, error)) return nullptr;
          break;
        } else {
          return usage();
        }
      }
    } else {
      return usage();
    }
  }
  if (serial) {
    columns = std::max(columns, 1);
  } else if (columns < 2) {
    if (error) *error = "paste: need at least two '-' operands";
    return nullptr;
  }
  return std::make_shared<PasteCommand>(argv_to_display(argv), columns,
                                        serial, std::move(delims));
}

}  // namespace kq::cmd
