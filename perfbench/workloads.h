// The benchmark's three workloads: what each pipeline is, how its inputs
// are generated from the seed, and how the GNU reference is taken. See
// NOTES.md for why each workload was chosen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vfs/vfs.h"

namespace perfbench {

// Degree of parallelism every workload runs at. Fixed here, not taken from
// the host, so two machines run the same plan.
inline constexpr int kParallelism = 4;

struct Pipeline {
  std::string label;     // "text-filter", "poets/1_1.sh (count_words)#0"
  std::string text;      // the pipeline as `kumquat run` receives it
  std::string input;     // input file, relative to the data directory
};

struct WorkloadSpec {
  std::string name;
  std::vector<Pipeline> pipelines;
  // Per-stage kernel names for the traced run's unixcmd.<name>.mbps
  // metrics; empty for the catalog, whose kernels are spread too thin.
  std::vector<std::string> kernels;
  std::size_t spill_threshold = 64 << 20;  // the CLI default
  bool uses_fs = false;                    // catalog: VFS fixtures in fs/
};

bool known_workload(const std::string& name);

// The workload's pipelines for `seed`. Depends only on (name, seed), so a
// fresh process rebuilds exactly what `prepare` generated inputs for.
WorkloadSpec workload_spec(const std::string& name, std::uint64_t seed);

// Writes every input (and, for the catalog, the VFS fixtures) under `dir`.
// Returns context lines ("key": value JSON members) describing the data.
std::vector<std::string> generate_inputs(const WorkloadSpec& spec,
                                         std::uint64_t seed,
                                         const std::string& dir);

// Loads the catalog fixtures written by generate_inputs into `fs`.
void load_fixtures(const std::string& dir, kq::vfs::Vfs& fs);

// Runs `pipeline` through /bin/sh under LC_ALL=C with its input on stdin
// and writes stdout to `out_path`. Returns the wall seconds, or a negative
// value when the shell reported failure.
double run_gnu(const Pipeline& pipeline, const std::string& dir,
               const std::string& out_path);

// The first program a pipeline names that is not on PATH; "" when all are.
std::string missing_program(const Pipeline& pipeline);

// 64-bit FNV-1a of a file's bytes as 16 hex digits ("" if unreadable).
std::string hash_file(const std::string& path);

std::string read_file(const std::string& path);
std::string json_string(const std::string& s);

}  // namespace perfbench
