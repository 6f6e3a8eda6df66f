#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <unordered_set>

#include "bench_support/catalog.h"
#include "compile/pipeline.h"
#include "procexec/external_command.h"

namespace perfbench {
namespace {

namespace fsys = std::filesystem;

// Word-line generator. A vocabulary of kVocabulary distinct lowercase words
// (3-9 letters) drawn from the seed, sampled with Zipf skew s = 1 (rank r
// has weight 1/r), 3-12 words per line, a quarter of the words
// capitalized. The vocabulary is large enough that sort keys rarely
// collide, unlike a handful of fixed words.
constexpr std::size_t kVocabulary = 4096;
constexpr double kZipfSkew = 1.0;
constexpr int kMinWords = 3;
constexpr int kMaxWords = 12;
constexpr int kCapitalizeOneIn = 4;

// Input sizes: large enough that execution dominates process start-up,
// small enough that a run holds several repetitions.
constexpr std::size_t kWordLineBytes = 16u << 20;
constexpr std::size_t kSortSpillThreshold = 2u << 20;
constexpr std::size_t kCatalogBytesPerScript = 256u << 10;

// Word lengths depend on rank alone (3 + rank % 7 letters), so the
// pipeline's pattern words and the byte mix are the same shape on every
// seed; only the letters change.
std::vector<std::string> vocabulary(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> words;
  std::unordered_set<std::string> seen;
  while (words.size() < kVocabulary) {
    std::string w(3 + words.size() % 7, 'a');
    for (char& c : w) c = static_cast<char>('a' + rng() % 26);
    if (seen.insert(w).second) words.push_back(std::move(w));
  }
  return words;
}

// Writes ~bytes of word lines to `path`, a buffer at a time so the
// generator never holds the whole input. Returns context members.
std::vector<std::string> write_word_lines(std::uint64_t seed,
                                          std::size_t bytes,
                                          const std::string& path) {
  const std::vector<std::string> words = vocabulary(seed);
  std::vector<double> cdf(words.size());
  double total = 0;
  for (std::size_t r = 0; r < words.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfSkew);
    cdf[r] = total;
  }
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  std::unordered_set<std::uint64_t> distinct;
  std::size_t written = 0, lines = 0;
  std::string buf, line;
  while (written < bytes) {
    line.clear();
    int n = kMinWords + static_cast<int>(rng() % (kMaxWords - kMinWords + 1));
    for (int i = 0; i < n; ++i) {
      auto it = std::upper_bound(cdf.begin(), cdf.end(), unit(rng) * total);
      std::size_t r = std::min<std::size_t>(it - cdf.begin(), words.size() - 1);
      if (i) line.push_back(' ');
      std::size_t at = line.size();
      line += words[r];
      if (rng() % kCapitalizeOneIn == 0) line[at] = static_cast<char>(line[at] - 32);
    }
    distinct.insert(std::hash<std::string>{}(line));
    line.push_back('\n');
    buf += line;
    written += line.size();
    ++lines;
    if (buf.size() >= (1u << 20)) {
      out << buf;
      buf.clear();
    }
  }
  out << buf;
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.4f",
                static_cast<double>(distinct.size()) / lines);
  return {"\"vocabulary\": " + std::to_string(kVocabulary),
          "\"zipf_skew\": " + std::to_string(kZipfSkew),
          "\"words_per_line\": \"" + std::to_string(kMinWords) + "-" +
              std::to_string(kMaxWords) + "\"",
          "\"input_lines\": " + std::to_string(lines),
          "\"distinct_line_ratio\": " + std::string(ratio)};
}

std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (char c : s) {
    if (c == '\'') q += "'\\''";
    else q.push_back(c);
  }
  return q + "'";
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "text-filter" || name == "sort-spill" || name == "catalog";
}

WorkloadSpec workload_spec(const std::string& name, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "text-filter") {
    // Ranks 0-2 of the vocabulary: the two regex words co-occur on ~9% of
    // lines, and the excluded word drops about a third of them.
    std::vector<std::string> w = vocabulary(seed);
    spec.pipelines.push_back(
        {name,
         "tr A-Z a-z | grep -v " + w[2] + " | grep '" + w[0] + ".*" + w[1] +
             "' | cut -d ' ' -f 1-3",
         "input.txt"});
    spec.kernels = {"tr", "grep-v", "grep", "cut"};
  } else if (name == "sort-spill") {
    spec.pipelines.push_back({name, "sort -k2 | uniq -c | sort -rn", "input.txt"});
    spec.kernels = {"sort", "uniq-c", "sort-rn"};
    spec.spill_threshold = kSortSpillThreshold;
  } else if (name == "catalog") {
    const auto& scripts = kq::bench::all_scripts();
    for (std::size_t i = 0; i < scripts.size(); ++i) {
      for (std::size_t j = 0; j < scripts[i].pipelines.size(); ++j) {
        spec.pipelines.push_back(
            {scripts[i].suite + "/" + scripts[i].name + "#" + std::to_string(j),
             scripts[i].pipelines[j], "in/" + std::to_string(i) + ".txt"});
      }
    }
    spec.uses_fs = true;
  }
  return spec;
}

std::vector<std::string> generate_inputs(const WorkloadSpec& spec,
                                         std::uint64_t seed,
                                         const std::string& dir) {
  if (spec.name != "catalog")
    return write_word_lines(seed, kWordLineBytes, dir + "/input.txt");

  // Every script draws its input and fixtures from the same seed, as the
  // repository's catalog harness does; fixtures are shared by name.
  kq::vfs::Vfs fs;
  const auto& scripts = kq::bench::all_scripts();
  fsys::create_directories(dir + "/in");
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    std::string input = kq::bench::prepare_input(
        scripts[i], kCatalogBytesPerScript, seed, fs);
    std::ofstream(dir + "/in/" + std::to_string(i) + ".txt",
                  std::ios::binary | std::ios::trunc)
        << input;
  }
  std::ofstream list(dir + "/fs.list", std::ios::trunc);
  for (const std::string& name : fs.names()) {
    fsys::path path = fsys::path(dir) / "fs" / name;
    fsys::create_directories(path.parent_path());
    std::ofstream(path, std::ios::binary | std::ios::trunc) << *fs.read(name);
    list << name << "\n";
  }
  return {"\"scripts\": " + std::to_string(scripts.size()),
          "\"bytes_per_script\": " + std::to_string(kCatalogBytesPerScript)};
}

void load_fixtures(const std::string& dir, kq::vfs::Vfs& fs) {
  std::ifstream list(dir + "/fs.list");
  for (std::string name; std::getline(list, name);)
    fs.write(name, read_file(dir + "/fs/" + name));
}

double run_gnu(const Pipeline& pipeline, const std::string& dir,
               const std::string& out_path) {
  // Catalog pipelines name their fixtures relative to the fixture tree.
  std::string cwd = fsys::exists(dir + "/fs") ? dir + "/fs" : dir;
  std::string command =
      "cd " + shell_quote(fsys::absolute(cwd).string()) +
      " && LC_ALL=C sh -c " + shell_quote(pipeline.text) + " < " +
      shell_quote(fsys::absolute(dir + "/" + pipeline.input).string()) +
      " > " + shell_quote(fsys::absolute(out_path).string()) + " 2>/dev/null";
  auto start = std::chrono::steady_clock::now();
  int status = std::system(command.c_str());
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return status == 0 ? seconds : -1;
}

std::string missing_program(const Pipeline& pipeline) {
  auto parsed = kq::compile::parse_pipeline(pipeline.text);
  if (!parsed) return "(unparsable)";
  for (const auto& stage : parsed->stages) {
    const auto& argv = stage.argv;
    std::size_t p = 0;
    // xargs runs its operand program: check that one too.
    if (!argv.empty() && argv[0] == "xargs") {
      if (!kq::procexec::program_exists("xargs")) return "xargs";
      p = 1;
      while (p < argv.size() && argv[p][0] == '-') p += argv[p] == "-L" ? 2 : 1;
    }
    if (p < argv.size() && !kq::procexec::program_exists(argv[p]))
      return argv[p];
  }
  return "";
}

std::string hash_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::vector<char> buf(1 << 20);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 0x100000001b3ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

}  // namespace perfbench
