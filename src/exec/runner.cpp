#include "exec/runner.h"

#include <chrono>

#include "exec/parallel.h"

namespace kq::exec {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

ExecResult run_pipeline(const std::vector<ExecStage>& stages,
                        std::string_view input, ThreadPool& pool,
                        const ExecOptions& options) {
  ExecResult result;
  auto total_start = Clock::now();

  // The in-flight data is either one combined stream or a set of
  // substreams left uncombined by an eliminated combiner.
  std::string current(input);
  std::vector<std::string> substreams;
  bool split_state = false;

  for (std::size_t s = 0; s < stages.size(); ++s) {
    const ExecStage& stage = stages[s];
    NodeMetrics m;
    m.commands = stage.command->display_name();
    m.combiner = stage.combiner_name;
    m.parallel = stage.parallel && options.parallelism > 1;
    auto stage_start = Clock::now();

    if (!m.parallel) {
      // Sequential stage. If substreams are pending, they came from an
      // eliminated concat combiner, so plain concatenation restores the
      // combined stream.
      if (split_state) {
        current.clear();
        for (const std::string& part : substreams) current += part;
        substreams.clear();
        split_state = false;
      }
      m.in_bytes = current.size();
      current = stage.command->run(current);
      m.out_bytes = current.size();
      m.chunks = 1;
    } else {
      std::vector<std::string_view> chunks;
      if (split_state) {
        chunks.reserve(substreams.size());
        for (const std::string& part : substreams) chunks.push_back(part);
      } else {
        chunks = split_stream(current, options.parallelism);
      }
      m.in_bytes = 0;
      for (std::string_view c : chunks) m.in_bytes += c.size();
      m.chunks = static_cast<int>(chunks.size());

      std::vector<std::string> outputs =
          map_chunks(*stage.command, chunks, pool);

      bool can_eliminate = options.use_elimination &&
                           stage.eliminate_combiner && s + 1 < stages.size() &&
                           stages[s + 1].parallel && options.parallelism > 1;
      if (can_eliminate) {
        m.combiner_eliminated = true;
        m.out_bytes = 0;
        for (const std::string& o : outputs) m.out_bytes += o.size();
        substreams = std::move(outputs);
        split_state = true;
        current.clear();
      } else {
        std::optional<std::string> combined;
        if (stage.combine) combined = stage.combine(outputs);
        if (!combined) {
          // Correctness guard: if k-way combination is undefined on these
          // outputs, fall back to running the stage serially.
          m.combine_fallback = true;
          std::string joined;
          for (std::string_view c : chunks) joined.append(c);
          combined = stage.command->run(joined);
        }
        substreams.clear();
        split_state = false;
        current = std::move(*combined);
        m.out_bytes = current.size();
      }
    }
    m.seconds = seconds_since(stage_start);
    result.nodes.push_back(std::move(m));
  }

  if (split_state) {
    // Pipeline ended while substreams were pending (the planner avoids
    // this, but a trailing eliminated stage still needs its concat).
    current.clear();
    for (const std::string& part : substreams) current += part;
  }
  result.output = std::move(current);
  result.seconds = seconds_since(total_start);
  return result;
}

ExecResult run_serial(const std::vector<ExecStage>& stages,
                      std::string_view input) {
  ExecResult result;
  auto total_start = Clock::now();
  std::string current(input);
  for (const ExecStage& stage : stages) {
    NodeMetrics m;
    m.commands = stage.command->display_name();
    m.chunks = 1;
    m.in_bytes = current.size();
    auto stage_start = Clock::now();
    current = stage.command->run(current);
    m.seconds = seconds_since(stage_start);
    m.out_bytes = current.size();
    result.nodes.push_back(std::move(m));
  }
  result.output = std::move(current);
  result.seconds = seconds_since(total_start);
  return result;
}

}  // namespace kq::exec
