// The benchmark's measuring process. run.py drives it; each invocation is
// one fresh process, so its VmHWM is the peak of exactly one repetition.
//
//   kqbench prepare <workload> <seed> <dir>
//       generate the inputs from the seed and take the GNU reference
//       (LC_ALL=C through /bin/sh): per-pipeline checksum and wall time.
//   kqbench rep <workload> <seed> <dir> [--corrupt N]
//       one repetition of `kumquat run`'s path: parse, compile with a fresh
//       synthesis cache, rewrite, eliminate, lower (set-up), then execute
//       every pipeline at k=4 in stream mode from an fd into a file.
//       --corrupt N runs only pipeline N and damages its output, so run.py
//       can prove its reference check counts a wrong answer.
//   kqbench layers <workload> <seed> <dir> <seconds>
//       the traced run: per-layer timings taken by calling each module's
//       public functions from here, plus executions with ExecOptions::stats
//       and an obs::Tracer alternated with untraced ones.
//
// Every command prints one JSON object on stdout.

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "exec/splitter.h"
#include "obs/trace.h"
#include "stream/block_reader.h"
#include "stream/spill.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {  // user + sys of every thread of this process
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

long vm_hwm_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

constexpr double kMiB = 1 << 20;

// Mirrors `kumquat run`: one Plan per pipeline, compiled with the CLI's
// default PlanOptions, rewritten and optimized, then lowered.
struct Compiled {
  bool ok = false;
  double parse_s = 0, compile_s = 0, optimize_s = 0;
  kq::compile::Plan plan;
  std::vector<kq::exec::ExecStage> stages;

  double setup_s() const { return parse_s + compile_s + optimize_s; }
};

// `only` >= 0 compiles just that pipeline.
std::vector<Compiled> compile_all(const WorkloadSpec& spec,
                                  kq::synth::SynthesisCache& cache,
                                  const kq::vfs::Vfs* fs, long only = -1) {
  std::vector<Compiled> out(spec.pipelines.size());
  for (std::size_t i = 0; i < spec.pipelines.size(); ++i) {
    if (only >= 0 && static_cast<std::size_t>(only) != i) continue;
    Compiled& c = out[i];
    auto t = Clock::now();
    auto parsed = kq::compile::parse_pipeline(spec.pipelines[i].text);
    c.parse_s = since(t);
    if (!parsed) continue;
    t = Clock::now();
    c.plan = kq::compile::compile_pipeline(*parsed, cache, {}, fs);
    c.compile_s = since(t);
    t = Clock::now();
    kq::compile::rewrite_bounded_windows(c.plan);
    kq::compile::eliminate_intermediate_combiners(c.plan);
    c.stages = kq::compile::lower_plan(c.plan);
    c.optimize_s = since(t);
    c.ok = true;
  }
  return out;
}

kq::ExecOptions exec_options(const WorkloadSpec& spec) {
  kq::ExecOptions o;
  o.mode = kq::ExecMode::kStream;
  o.parallelism = kParallelism;
  o.spill_threshold = spec.spill_threshold;
  return o;
}

std::string out_path(const std::string& dir, std::size_t index) {
  return dir + "/out/" + std::to_string(index) + ".txt";
}

struct Execution {
  std::size_t index = 0;
  bool ok = false;
  std::string error;
  double seconds = 0;  // wall time of the execution
  double cpu_s = 0;    // user + sys of the process during it
  kq::ExecResult result;
};

// Runs one compiled pipeline the way `kumquat run < input > output` does:
// a fresh Executor, the input read by fd, the output written to a file.
Execution execute(const std::vector<Compiled>& compiled,
                  const WorkloadSpec& spec, const std::string& dir,
                  std::size_t index, const kq::ExecOptions& options) {
  Execution e;
  e.index = index;
  if (!compiled[index].ok) {
    e.error = "pipeline did not parse";
    return e;
  }
  std::string in_path = dir + "/" + spec.pipelines[index].input;
  int fd = ::open(in_path.c_str(), O_RDONLY);
  if (fd < 0) {
    e.error = "cannot open " + in_path;
    return e;
  }
  double cpu_start = cpu_seconds();
  auto start = Clock::now();
  std::ofstream out(out_path(dir, index), std::ios::binary | std::ios::trunc);
  kq::Executor executor(options);
  e.result =
      executor.run(compiled[index].stages, kq::Source::from_fd(fd), out);
  out.close();
  e.seconds = since(start);
  e.cpu_s = cpu_seconds() - cpu_start;
  ::close(fd);
  e.ok = e.result.ok && out.good();
  e.error = !e.result.ok ? e.result.error : out.good() ? "" : "output write failed";
  return e;
}

// One JSON record per execution, with the checksum of its output file.
std::string results_json(const std::vector<Execution>& runs,
                         const std::vector<Compiled>& compiled,
                         const std::string& dir) {
  std::string s = "[";
  for (const Execution& e : runs) {
    if (s.size() > 1) s += ", ";
    s += "{\"index\": " + std::to_string(e.index) +
         ", \"ok\": " + (e.ok ? "true" : "false") +
         ", \"setup_s\": " + num(compiled[e.index].setup_s()) +
         ", \"seconds\": " + num(e.seconds) + ", \"cpu_s\": " + num(e.cpu_s) +
         ", \"hash\": " + json_string(hash_file(out_path(dir, e.index))) +
         ", \"error\": " + json_string(e.error) + "}";
  }
  return s + "]";
}

int cmd_prepare(const WorkloadSpec& spec, std::uint64_t seed,
                const std::string& dir) {
  namespace fsys = std::filesystem;
  fsys::create_directories(dir + "/out");
  fsys::create_directories(dir + "/gnu");
  std::vector<std::string> context = generate_inputs(spec, seed, dir);

  std::string pipelines = "[";
  double gnu_total = 0;
  std::size_t input_bytes = 0, output_bytes = 0;
  for (std::size_t i = 0; i < spec.pipelines.size(); ++i) {
    const Pipeline& p = spec.pipelines[i];
    input_bytes += fsys::file_size(dir + "/" + p.input);
    std::string hash = "null", unverified = "null";
    double gnu_s = -1;
    std::string missing = missing_program(p);
    if (!missing.empty()) {
      unverified = json_string("no " + missing + " on PATH");
    } else {
      std::string gnu_out = dir + "/gnu/" + std::to_string(i) + ".txt";
      gnu_s = run_gnu(p, dir, gnu_out);
      if (gnu_s < 0) {
        unverified = json_string("GNU pipeline failed");
      } else {
        gnu_total += gnu_s;
        hash = json_string(hash_file(gnu_out));
        output_bytes += fsys::file_size(gnu_out);
        if (spec.name == "text-filter") {
          // Lines surviving both greps (cut keeps the line count).
          std::string out = read_file(gnu_out);
          std::string in = read_file(dir + "/" + p.input);
          context.push_back(
              "\"grep_selectivity\": " +
              num(static_cast<double>(std::count(out.begin(), out.end(), '\n')) /
                  std::count(in.begin(), in.end(), '\n')));
        }
      }
      fsys::remove(gnu_out);
    }
    if (i) pipelines += ", ";
    pipelines += "{\"label\": " + json_string(p.label) +
                 ", \"pipeline\": " + json_string(p.text) + ", \"hash\": " +
                 hash + ", \"gnu_s\": " + num(gnu_s) +
                 ", \"unverified\": " + unverified + "}";
  }
  context.push_back("\"input_bytes\": " + std::to_string(input_bytes));
  context.push_back("\"gnu_output_bytes\": " + std::to_string(output_bytes));
  context.push_back("\"gnu_s\": " + num(gnu_total));
  context.push_back("\"spill_threshold\": " +
                    std::to_string(spec.spill_threshold));
  std::cout << "{\"pipelines\": " << pipelines << "], \"context\": {";
  for (std::size_t i = 0; i < context.size(); ++i)
    std::cout << (i ? ", " : "") << context[i];
  std::cout << "}}\n";
  return 0;
}

// Process set-up shared by `rep` and `layers`: the allocator setting
// `kumquat run` applies in stream mode (so peak RSS reads as the CLI's
// would) and, for the catalog, the VFS fixtures.
void prepare_process(const WorkloadSpec& spec, const std::string& dir,
                     kq::vfs::Vfs& fs) {
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
  if (spec.uses_fs) load_fixtures(dir, fs);
}

int cmd_rep(const WorkloadSpec& spec, const std::string& dir, long corrupt) {
  kq::vfs::Vfs fs;
  prepare_process(spec, dir, fs);
  kq::synth::SynthesisCache cache;
  auto setup_start = Clock::now();
  std::vector<Compiled> compiled =
      compile_all(spec, cache, spec.uses_fs ? &fs : nullptr, corrupt);
  double setup_s = since(setup_start);

  int certified = 0, stages = 0, parallel = 0;
  for (const auto& [name, result] : cache.entries())
    if (result.success) ++certified;
  for (const Compiled& c : compiled) {
    stages += c.plan.total();
    parallel += c.plan.parallelized();
  }
  std::set<std::string> unique;  // stage commands before any rewrite
  for (const Pipeline& p : spec.pipelines)
    if (auto parsed = kq::compile::parse_pipeline(p.text))
      for (const auto& s : parsed->stages) unique.insert(s.display);

  std::vector<Execution> runs;
  std::size_t input_bytes = 0;
  double cpu_start = cpu_seconds();
  auto exec_start = Clock::now();
  for (std::size_t i = 0; i < spec.pipelines.size(); ++i) {
    if (corrupt >= 0 && static_cast<std::size_t>(corrupt) != i) continue;
    runs.push_back(execute(compiled, spec, dir, i, exec_options(spec)));
    // The bytes handed to the pipeline, even where a head stops early.
    input_bytes += std::filesystem::file_size(dir + "/" + spec.pipelines[i].input);
  }
  double exec_s = since(exec_start);
  double cpu_s = cpu_seconds() - cpu_start;
  long hwm_kb = vm_hwm_kb();

  if (corrupt >= 0) std::ofstream(out_path(dir, corrupt), std::ios::app) << "#";

  std::cout << "{\"setup_s\": " << num(setup_s) << ", \"exec_s\": "
            << num(exec_s) << ", \"cpu_s\": " << num(cpu_s)
            << ", \"peak_rss_kb\": " << hwm_kb
            << ", \"input_bytes\": " << input_bytes
            << ", \"io_backend\": "
            << json_string(runs.empty() ? "" : runs[0].result.io_backend)
            << ", \"certified_cmds\": " << certified
            << ", \"unique_cmds\": " << unique.size()
            << ", \"parallel_stages\": " << parallel
            << ", \"stages\": " << stages
            << ", \"results\": " << results_json(runs, compiled, dir) << "}\n";
  return 0;
}

// ------------------------------------------------------------ traced run --

using Metrics = std::map<std::string, double>;

// Times `body` `reps` times (at least once, while `budget` lasts) and
// returns the median seconds.
double time_median(int reps, double budget, const std::function<void()>& body) {
  std::vector<double> samples;
  auto start = Clock::now();
  for (int r = 0; r < reps && (r == 0 || since(start) < budget); ++r) {
    auto t = Clock::now();
    body();
    samples.push_back(since(t));
  }
  return median(samples);
}

// compile: the per-command synthesis figures come from the cache entries
// (SynthesisResult::seconds, observation_count, space); the rest of
// compile + optimize + lower is planning.
void compile_metrics(const std::vector<Compiled>& compiled,
                     const kq::synth::SynthesisCache& cache, Metrics& m) {
  std::vector<double> synth_ms;
  double synth_total = 0, observations = 0, candidates = 0;
  for (const auto& [name, r] : cache.entries()) {
    synth_ms.push_back(r.seconds * 1e3);
    synth_total += r.seconds * 1e3;
    observations += static_cast<double>(r.observation_count);
    candidates += static_cast<double>(r.space.total());
  }
  double lookups = 0, parse_s = 0, setup_s = 0;
  for (const Compiled& c : compiled) {
    parse_s += c.parse_s;
    setup_s += c.compile_s + c.optimize_s;
    for (const auto& s : c.plan.stages) lookups += s.command ? 1 : 0;
  }
  std::sort(synth_ms.begin(), synth_ms.end());
  auto pct = [&](double q) {
    return synth_ms.empty()
               ? 0.0
               : synth_ms[std::min(synth_ms.size() - 1,
                                   static_cast<std::size_t>(q * synth_ms.size()))];
  };
  m["compile.synth_ms"] = synth_total;
  m["compile.synth_p50_ms"] = pct(0.5);
  m["compile.synth_p90_ms"] = pct(0.9);
  m["compile.synth_samples"] = static_cast<double>(synth_ms.size());
  m["compile.synth_observations"] = observations;
  m["compile.synth_candidates"] = candidates;
  m["compile.parse_ms"] = parse_s * 1e3;
  m["compile.plan_ms"] = setup_s * 1e3 - synth_total;
  m["compile.cache_hit_ratio"] =
      lookups > 0 ? (lookups - static_cast<double>(cache.size())) / lookups : 0;
}

// Runs one stage's command over `input` on this thread, through the same
// processor the runtime's stream chain would use: a StreamProcessor per
// 1 MiB record-aligned block, a WindowProcessor, or the whole-input
// execute() for black-box commands.
std::string run_kernel(const kq::cmd::Command& command, const std::string& input) {
  std::string out;
  std::vector<std::string_view> blocks =
      kq::exec::split_stream(input, static_cast<int>(input.size() >> 20) + 1);
  if (auto p = command.stream_processor()) {
    for (std::string_view b : blocks)
      if (!p->process(b, &out)) break;
    p->finish(&out);
  } else if (auto w = command.window_processor()) {
    for (std::string_view b : blocks) w->push(b, &out);
    w->finish([&out](std::string_view piece) {
      out.append(piece);
      return true;
    });
  } else {
    out = command.run(input);
  }
  return out;
}

// Layer probes outside the dataflow, within `budget` seconds:
//   stream.reader_mbps   a BlockReader over each input fd alone;
//   unixcmd.*.mbps       each stage's kernel on one thread over the bytes
//                        it receives in the pipeline;
//   exec.combine_mbps    the stage's KWayCombine over k partial outputs;
//   stream.spill_write_mbps / merge_mbps
//                        the external-merge spill and merge of a
//                        merge-combined stage.
void probe_metrics(const WorkloadSpec& spec,
                   const std::vector<Compiled>& compiled,
                   const std::string& dir, double budget, Metrics& m) {
  constexpr int kReps = 3;
  {
    std::set<std::string> inputs;
    for (const Pipeline& p : spec.pipelines) inputs.insert(dir + "/" + p.input);
    std::size_t bytes = 0;
    double t = time_median(kReps, budget / 4, [&] {
      bytes = 0;
      for (const std::string& path : inputs) {
        int fd = ::open(path.c_str(), O_RDONLY);
        kq::stream::BlockReader reader(fd);
        while (auto block = reader.next()) bytes += block->size();
        ::close(fd);
      }
    });
    m["stream.reader_mbps"] = t > 0 ? bytes / kMiB / t : 0;
  }

  for (const char* k : {"tr", "grep-v", "grep", "cut", "sort", "uniq-c", "sort-rn"})
    m[std::string("unixcmd.") + k + ".mbps"] = 0;
  m["exec.combine_mbps"] = 0;
  m["stream.spill_write_mbps"] = 0;
  m["stream.merge_mbps"] = 0;
  if (spec.kernels.empty() || !compiled[0].ok) return;

  const Compiled& c = compiled[0];
  std::string input = read_file(dir + "/" + spec.pipelines[0].input);
  double combine_bytes = 0, combine_s = 0, spill_bytes = 0, spill_s = 0,
         merge_bytes = 0, merge_s = 0;
  const double stage_budget = budget / 2 / c.stages.size();
  for (std::size_t s = 0; s < c.stages.size(); ++s) {
    const kq::exec::ExecStage& stage = c.stages[s];
    const kq::cmd::Command& command = *stage.command;
    std::string output;
    double t = time_median(kReps, stage_budget,
                           [&] { output = run_kernel(command, input); });
    if (s < spec.kernels.size() && t > 0)
      m["unixcmd." + spec.kernels[s] + ".mbps"] = input.size() / kMiB / t;

    if (stage.parallel && stage.combine) {
      std::vector<std::string> parts;
      for (std::string_view part : kq::exec::split_stream(input, kParallelism))
        parts.push_back(command.run(part));
      for (const std::string& p : parts) combine_bytes += p.size();
      combine_s += time_median(kReps, stage_budget / 2,
                               [&] { (void)stage.combine(parts); });
    }
    if (stage.parallel && stage.sort_spec &&
        stage.memory_class == kq::exec::MemoryClass::kSortableSpill) {
      // The parallel node's spill path: sorted chunk outputs become runs
      // on disk, then one k-way merge re-streams them.
      std::vector<std::string> chunks;
      for (std::string_view block : kq::exec::split_stream(
               input, static_cast<int>(input.size() >> 20) + 1))
        chunks.push_back(command.run(block));
      std::vector<double> add_t, merge_t;
      std::size_t merged = 0;
      for (int r = 0; r < kReps; ++r) {
        kq::stream::SpillMerger merger(
            stage.sort_spec, kq::stream::SpillMerger::Input::kSortedParts,
            spec.spill_threshold);
        std::vector<std::string> feed = chunks;
        auto t0 = Clock::now();
        for (std::string& chunk : feed) merger.add(std::move(chunk));
        add_t.push_back(since(t0));
        merged = 0;
        t0 = Clock::now();
        merger.finish(
            [&merged](std::string&& block) {
              merged += block.size();
              return true;
            },
            1 << 20);
        merge_t.push_back(since(t0));
      }
      spill_bytes += static_cast<double>(input.size());
      merge_bytes += static_cast<double>(merged);
      spill_s += median(add_t);
      merge_s += median(merge_t);
    }
    input = std::move(output);
  }
  if (combine_s > 0) m["exec.combine_mbps"] = combine_bytes / kMiB / combine_s;
  if (spill_s > 0) m["stream.spill_write_mbps"] = spill_bytes / kMiB / spill_s;
  if (merge_s > 0) m["stream.merge_mbps"] = merge_bytes / kMiB / merge_s;
}

// The node counters of one traced pass, summed over its executions (node
// i of every pipeline adds into stream.node.<i>).
Metrics node_metrics(const std::vector<Execution>& runs) {
  constexpr int kNodes = 3;
  Metrics sums;  // every key present, even at 0
  for (int n = 0; n < kNodes; ++n)
    for (const char* f : {".busy_s", ".recv_blocked_s", ".send_blocked_s"})
      sums["stream.node." + std::to_string(n) + f] = 0;
  for (const char* k : {"stream.spill_runs", "stream.spilled_mb",
                        "io.sqe_batches", "io.cqe_waits", "exec.worker_busy_s",
                        "exec.shard_slices"})
    sums[k] = 0;
  double peak = 0, hits = 0, misses = 0;
  for (const Execution& e : runs) {
    const auto& nodes = e.result.nodes;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      const auto& nm = nodes[n];
      double recv = nm.recv_blocked_ns / 1e9, send = nm.send_blocked_ns / 1e9;
      if (n < kNodes) {
        std::string key = "stream.node." + std::to_string(n);
        sums[key + ".busy_s"] += std::max(0.0, nm.seconds - recv - send);
        sums[key + ".recv_blocked_s"] += recv;
        sums[key + ".send_blocked_s"] += send;
      }
      sums["stream.spill_runs"] += nm.spill_runs;
      sums["stream.spilled_mb"] += nm.spilled_bytes / kMiB;
      sums["io.sqe_batches"] += static_cast<double>(nm.sqe_batches);
      sums["io.cqe_waits"] += static_cast<double>(nm.cqe_waits);
      sums["exec.worker_busy_s"] += nm.worker_busy_ns / 1e9;
      sums["exec.shard_slices"] += static_cast<double>(nm.shard_slices);
      hits += static_cast<double>(nm.pool_hits);
      misses += static_cast<double>(nm.pool_misses);
    }
    peak = std::max(peak, e.result.peak_inflight_bytes / kMiB);
  }
  sums["stream.peak_inflight_mb"] = peak;
  sums["stream.pool_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  return sums;
}

int cmd_layers(const WorkloadSpec& spec, const std::string& dir,
               double seconds) {
  auto run_start = Clock::now();
  kq::vfs::Vfs fs;
  prepare_process(spec, dir, fs);
  kq::synth::SynthesisCache cache;
  std::vector<Compiled> compiled =
      compile_all(spec, cache, spec.uses_fs ? &fs : nullptr);
  Metrics m;
  compile_metrics(compiled, cache, m);
  // Probes get at most a third of the run; executions take the rest.
  probe_metrics(spec, compiled, dir, seconds / 3, m);

  // Untraced and traced passes over every pipeline alternate until the
  // run's time is spent; node figures are medians over the traced passes.
  std::vector<double> untraced_s, traced_s;
  std::map<std::string, std::vector<double>> node;
  std::vector<std::vector<Execution>> passes;
  std::unique_ptr<kq::obs::Tracer> last_tracer;
  for (int pass = 0;
       pass < 4 || (since(run_start) < seconds && pass < 200); ++pass) {
    bool traced = pass % 2 == 1;
    auto tracer = std::make_unique<kq::obs::Tracer>();
    kq::ExecOptions options = exec_options(spec);
    if (traced) {
      options.stats = true;
      options.tracer = tracer.get();
    }
    std::vector<Execution> runs;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < spec.pipelines.size(); ++i)
      runs.push_back(execute(compiled, spec, dir, i, options));
    (traced ? traced_s : untraced_s).push_back(since(t0));
    if (traced) {
      for (const auto& [k, v] : node_metrics(runs)) node[k].push_back(v);
      last_tracer = std::move(tracer);
    }
    passes.push_back(std::move(runs));
  }
  for (const auto& [k, v] : node) m[k] = median(v);
  double untraced = median(untraced_s);
  m["obs.trace_overhead_frac"] =
      untraced > 0 ? median(traced_s) / untraced - 1 : 0;
  {
    std::ofstream trace(dir + "/trace.json", std::ios::trunc);
    last_tracer->write_chrome_json(trace);
  }

  std::cout << "{\"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : m) {
    std::cout << (first ? "" : ", ") << json_string(k) << ": " << num(v);
    first = false;
  }
  std::cout << "}, \"context\": {\"untraced_s\": " << num(untraced)
            << ", \"traced_s\": " << num(median(traced_s))
            << ", \"passes\": " << passes.size() << "}, \"passes\": [";
  // Each pass overwrote the same output files, so only the last pass's
  // outputs can be checksummed; earlier passes report their ok flags.
  for (std::size_t p = 0; p < passes.size(); ++p) {
    std::cout << (p ? ", " : "") << "[";
    for (std::size_t j = 0; j < passes[p].size(); ++j)
      std::cout << (j ? ", " : "") << (passes[p][j].ok ? "true" : "false");
    std::cout << "]";
  }
  std::cout << "], \"results\": " << results_json(passes.back(), compiled, dir)
            << "}\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 5 || !known_workload(argv[2])) {
    std::cerr << "usage: kqbench prepare|rep|layers <workload> <seed> <dir> "
                 "[--corrupt N | <seconds>]\n";
    return 2;
  }
  std::string verb = argv[1];
  std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  WorkloadSpec spec = workload_spec(argv[2], seed);
  std::string dir = argv[4];
  if (verb == "prepare") return cmd_prepare(spec, seed, dir);
  if (verb == "rep") {
    long corrupt = -1;
    if (argc == 7 && std::strcmp(argv[5], "--corrupt") == 0)
      corrupt = std::atol(argv[6]);
    return cmd_rep(spec, dir, corrupt);
  }
  if (verb == "layers" && argc == 6) return cmd_layers(spec, dir, std::atof(argv[5]));
  std::cerr << "kqbench: unknown command " << verb << "\n";
  return 2;
}
