#include "procexec/external_command.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "text/shellwords.h"

namespace kq::procexec {
namespace {

// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    reset(other.release());
    return *this;
  }
  ~Fd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

struct Pipe {
  Fd read_end;
  Fd write_end;
};

std::optional<Pipe> make_pipe() {
  // O_CLOEXEC is essential: concurrent run_process calls fork from
  // multiple threads, and without it a child forked in between inherits a
  // sibling's pipe ends, keeping them open after the parent closes its
  // copy — the sibling's command then never sees stdin EOF and hangs.
  // dup2 onto the stdio fds clears the flag for the fds the child keeps.
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return std::nullopt;
  Pipe p;
  p.read_end.reset(fds[0]);
  p.write_end.reset(fds[1]);
  return p;
}

// While the parent feeds a child, SIGPIPE is blocked on the feeding
// thread: a child that exits before reading all its input (`head -n 1`)
// turns the next write into EPIPE, and by default also into a SIGPIPE that
// kills this whole process. One the writes left pending is discarded on
// the way out; one pending before is left alone. The child is forked
// before the guard, so it keeps the default disposition.
class SigpipeGuard {
 public:
  SigpipeGuard() {
    sigemptyset(&pipe_);
    sigaddset(&pipe_, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &pipe_, &old_mask_);
    was_pending_ = pending();
  }
  ~SigpipeGuard() {
    if (!was_pending_ && pending()) {
      const timespec no_wait{0, 0};
      while (sigtimedwait(&pipe_, nullptr, &no_wait) < 0 && errno == EINTR) {
      }
    }
    pthread_sigmask(SIG_SETMASK, &old_mask_, nullptr);
  }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

 private:
  static bool pending() {
    sigset_t set;
    sigpending(&set);
    return sigismember(&set, SIGPIPE) == 1;
  }

  sigset_t pipe_, old_mask_;
  bool was_pending_ = false;
};

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

std::optional<cmd::Result> run_process(const std::vector<std::string>& argv,
                                       std::string_view input) {
  if (argv.empty()) return std::nullopt;
  auto stdin_pipe = make_pipe();
  auto stdout_pipe = make_pipe();
  auto stderr_pipe = make_pipe();
  if (!stdin_pipe || !stdout_pipe || !stderr_pipe) return std::nullopt;

  pid_t pid = ::fork();
  if (pid < 0) return std::nullopt;

  if (pid == 0) {
    // Child: wire the pipes to stdio and exec.
    ::dup2(stdin_pipe->read_end.get(), STDIN_FILENO);
    ::dup2(stdout_pipe->write_end.get(), STDOUT_FILENO);
    ::dup2(stderr_pipe->write_end.get(), STDERR_FILENO);
    stdin_pipe->read_end.reset();
    stdin_pipe->write_end.reset();
    stdout_pipe->read_end.reset();
    stdout_pipe->write_end.reset();
    stderr_pipe->read_end.reset();
    stderr_pipe->write_end.reset();
    // Force byte-oriented, locale-independent behaviour like the paper's
    // evaluation environment.
    ::setenv("LC_ALL", "C", 1);
    std::vector<char*> c_argv;
    c_argv.reserve(argv.size() + 1);
    for (const std::string& a : argv)
      c_argv.push_back(const_cast<char*>(a.c_str()));
    c_argv.push_back(nullptr);
    ::execvp(c_argv[0], c_argv.data());
    ::_exit(127);
  }

  // Parent: close child ends, multiplex the three pipes.
  SigpipeGuard sigpipe_guard;
  stdin_pipe->read_end.reset();
  stdout_pipe->write_end.reset();
  stderr_pipe->write_end.reset();

  set_nonblocking(stdin_pipe->write_end.get());
  set_nonblocking(stdout_pipe->read_end.get());
  set_nonblocking(stderr_pipe->read_end.get());

  cmd::Result result;
  std::size_t written = 0;
  bool stdin_open = true, stdout_open = true, stderr_open = true;
  char buffer[64 * 1024];

  while (stdin_open || stdout_open || stderr_open) {
    struct pollfd fds[3];
    nfds_t nfds = 0;
    int stdin_slot = -1, stdout_slot = -1, stderr_slot = -1;
    if (stdin_open) {
      stdin_slot = static_cast<int>(nfds);
      fds[nfds++] = {stdin_pipe->write_end.get(), POLLOUT, 0};
    }
    if (stdout_open) {
      stdout_slot = static_cast<int>(nfds);
      fds[nfds++] = {stdout_pipe->read_end.get(), POLLIN, 0};
    }
    if (stderr_open) {
      stderr_slot = static_cast<int>(nfds);
      fds[nfds++] = {stderr_pipe->read_end.get(), POLLIN, 0};
    }
    int rc = ::poll(fds, nfds, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stdin_slot >= 0 &&
        (fds[stdin_slot].revents & (POLLOUT | POLLERR | POLLHUP))) {
      if (fds[stdin_slot].revents & (POLLERR | POLLHUP)) {
        // Child closed stdin early (e.g. `head`): stop writing.
        stdin_pipe->write_end.reset();
        stdin_open = false;
      } else {
        ssize_t n = ::write(stdin_pipe->write_end.get(),
                            input.data() + written, input.size() - written);
        if (n > 0) written += static_cast<std::size_t>(n);
        if ((n < 0 && errno != EAGAIN && errno != EINTR) ||
            written == input.size()) {
          stdin_pipe->write_end.reset();
          stdin_open = false;
        }
      }
    }
    auto drain = [&](int slot, Fd& fd, std::string& sink, bool& open) {
      if (slot < 0 || !(fds[slot].revents & (POLLIN | POLLERR | POLLHUP)))
        return;
      ssize_t n = ::read(fd.get(), buffer, sizeof(buffer));
      if (n > 0) {
        sink.append(buffer, static_cast<std::size_t>(n));
      } else if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        fd.reset();
        open = false;
      }
    };
    drain(stdout_slot, stdout_pipe->read_end, result.out, stdout_open);
    drain(stderr_slot, stderr_pipe->read_end, result.err, stderr_open);
  }

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  result.status = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  return result;
}

ExternalCommand::ExternalCommand(std::vector<std::string> argv)
    : Command(cmd::argv_to_display(argv)), argv_(std::move(argv)) {}

cmd::Result ExternalCommand::execute(std::string_view input) const {
  auto result = run_process(argv_, input);
  if (!result) return {"", 127, "failed to spawn " + display_name()};
  return *result;
}

cmd::CommandPtr make_external_command(std::string_view command_line,
                                      std::string* error) {
  auto words = text::shell_split(command_line);
  if (!words || words->empty()) {
    if (error) *error = "bad command line";
    return nullptr;
  }
  return std::make_shared<ExternalCommand>(std::move(*words));
}

bool program_exists(const std::string& program) {
  if (program.find('/') != std::string::npos)
    return ::access(program.c_str(), X_OK) == 0;
  const char* path = std::getenv("PATH");
  if (!path) return false;
  std::string_view rest(path);
  while (!rest.empty()) {
    std::size_t colon = rest.find(':');
    std::string_view dir =
        colon == std::string_view::npos ? rest : rest.substr(0, colon);
    rest = colon == std::string_view::npos ? std::string_view()
                                           : rest.substr(colon + 1);
    if (dir.empty()) continue;
    std::string candidate = std::string(dir) + "/" + program;
    if (::access(candidate.c_str(), X_OK) == 0) return true;
  }
  return false;
}

}  // namespace kq::procexec
