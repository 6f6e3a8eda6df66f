// Catalog crossval from a real file descriptor source: the whole 70-script
// crossval catalog runs in stream mode at k in {1, 4} reading an fd, so
// source reads AND spill I/O route through the I/O engine (src/io/), and
// every run must be byte-identical to the serial oracle.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <string>
#include <vector>

#include "bench_support/catalog.h"
#include "compile/optimize.h"
#include "compile/plan.h"
#include "exec/executor.h"
#include "exec/runner.h"
#include "unixcmd/registry.h"

namespace kq {
namespace {

synth::SynthesisCache& shared_cache() {
  static synth::SynthesisCache c;
  return c;
}

vfs::Vfs& shared_fs() {
  static vfs::Vfs v;
  return v;
}

// An unlinked temp file holding `content`; rewind() re-arms it for the
// next run (the engine reads via file-position semantics, so a reset
// offset replays the same stream).
class FdInput {
 public:
  explicit FdInput(const std::string& content) {
    char path[] = "/tmp/kq-io-backend-XXXXXX";
    fd_ = ::mkstemp(path);
    EXPECT_GE(fd_, 0);
    ::unlink(path);
    EXPECT_EQ(::write(fd_, content.data(), content.size()),
              static_cast<ssize_t>(content.size()));
  }
  ~FdInput() {
    if (fd_ >= 0) ::close(fd_);
  }
  int rewind() {
    EXPECT_EQ(::lseek(fd_, 0, SEEK_SET), 0);
    return fd_;
  }

 private:
  int fd_ = -1;
};

kq::ExecOptions fd_options(int k) {
  kq::ExecOptions o;
  o.mode = kq::ExecMode::kStream;
  o.parallelism = k;
  o.block_size = 2048;
  return o;
}

class IoFdCrossval : public ::testing::TestWithParam<const bench::Script*> {};

TEST_P(IoFdCrossval, FdSourceIsByteIdenticalToSerial) {
  const bench::Script& script = *GetParam();
  std::string input = bench::prepare_input(script, 24 * 1024, 7, shared_fs());

  for (const std::string& pipeline : script.pipelines) {
    auto parsed = compile::parse_pipeline(pipeline);
    ASSERT_TRUE(parsed.has_value()) << pipeline;
    compile::Plan plan =
        compile::compile_pipeline(*parsed, shared_cache(), {}, &shared_fs());
    compile::eliminate_intermediate_combiners(plan);
    auto stages = compile::lower_plan(plan);

    std::string serial = exec::run_serial(stages, input).output;
    FdInput fd(input);
    for (int k : {1, 4}) {
      kq::Executor executor(fd_options(k));
      kq::ExecResult r =
          executor.run_collect(stages, kq::Source::from_fd(fd.rewind()));
      ASSERT_TRUE(r.ok) << pipeline << " k=" << k << ": " << r.error;
      EXPECT_EQ(r.output, serial) << script.suite << "/" << script.name
                                  << ": " << pipeline << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScripts, IoFdCrossval,
    ::testing::ValuesIn([] {
      std::vector<const bench::Script*> ptrs;
      for (const bench::Script& s : bench::all_scripts()) ptrs.push_back(&s);
      return ptrs;
    }()),
    [](const ::testing::TestParamInfo<const bench::Script*>& info) {
      std::string name = info.param->suite + "_" + info.param->name;
      std::string out;
      for (char c : name)
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      return out;
    });

}  // namespace
}  // namespace kq
