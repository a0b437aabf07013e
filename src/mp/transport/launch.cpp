#include "mp/transport/launch.hpp"

#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <sstream>
#include <thread>

#include "mp/status.hpp"
#include "mp/transport/shm_ring.hpp"

namespace pac::mp::transport {

namespace {

std::string describe_status(int wstatus) {
  std::ostringstream os;
  if (WIFEXITED(wstatus)) {
    os << "exited with code " << WEXITSTATUS(wstatus);
  } else if (WIFSIGNALED(wstatus)) {
    os << "killed by signal " << WTERMSIG(wstatus) << " ("
       << strsignal(WTERMSIG(wstatus)) << ")";
  } else {
    os << "ended with raw status " << wstatus;
  }
  return os.str();
}

int shell_status(int wstatus) {
  if (WIFEXITED(wstatus)) return WEXITSTATUS(wstatus);
  if (WIFSIGNALED(wstatus)) return 128 + WTERMSIG(wstatus);
  return 1;
}

// SIGINT/SIGTERM handling: an interrupted launcher must take its rank
// processes down with it, or an aborted distributed run leaves orphan
// ranks holding the rendezvous socket and ports.  The handler only sets a
// flag; the waitpid loop (entered without SA_RESTART, so the signal breaks
// it out with EINTR) notices and diverts to the straggler-termination path.
volatile sig_atomic_t g_interrupt_signal = 0;

void on_interrupt(int signo) { g_interrupt_signal = signo; }

/// Installs the interrupt handler for SIGINT/SIGTERM for the duration of a
/// launch and restores the previous handlers on scope exit.  The ranks are
/// unaffected: execvp resets their dispositions to the defaults.
class ScopedInterruptGuard {
 public:
  ScopedInterruptGuard() {
    g_interrupt_signal = 0;
    struct sigaction action {};
    action.sa_handler = on_interrupt;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: waitpid must return EINTR
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~ScopedInterruptGuard() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
  }
  ScopedInterruptGuard(const ScopedInterruptGuard&) = delete;
  ScopedInterruptGuard& operator=(const ScopedInterruptGuard&) = delete;

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

/// Terminate and reap every remaining rank: SIGTERM first, escalating to
/// SIGKILL once the grace period expires.
void reap_stragglers(std::map<pid_t, int>& rank_of,
                     const LaunchOptions& options) {
  if (rank_of.empty()) return;
  if (options.verbose)
    std::fprintf(stderr, "pac_launch: terminating %zu remaining rank(s)\n",
                 rank_of.size());
  for (const auto& [pid, rank] : rank_of) ::kill(pid, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options.kill_grace));
  bool killed = false;
  while (!rank_of.empty()) {
    int wstatus = 0;
    const pid_t pid = ::waitpid(-1, &wstatus, WNOHANG);
    if (pid > 0) {
      rank_of.erase(pid);
      continue;
    }
    if (pid < 0 && errno != EINTR && errno != ECHILD) break;
    if (!killed && std::chrono::steady_clock::now() >= deadline) {
      for (const auto& [straggler, rank] : rank_of)
        ::kill(straggler, SIGKILL);
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// Tuning variables forwarded explicitly from the launcher's environment to
/// every rank, so a rank's kernel configuration is pinned at launch time
/// rather than depending on whatever exec happens to inherit.
constexpr const char* kForwardedEnv[] = {"PAC_SIMD", "PAC_EM_THREADS"};

/// Nonzero per-launch host identity: ranks of one launch share a host by
/// construction, so one token for all of them is exactly right.
std::uint64_t mint_host_token() {
  std::random_device rd;
  std::uint64_t token =
      (static_cast<std::uint64_t>(::getpid()) << 32) ^
      (static_cast<std::uint64_t>(rd()) << 16) ^
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count());
  if (token == 0) token = 1;
  return token;
}

/// Hybrid launches hold one segment fd per rank pair until the forks are
/// done; fail early with a real diagnosis instead of a mid-launch EMFILE.
void check_fd_budget(int nprocs) {
  struct rlimit rl {};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  const std::uint64_t pairs = static_cast<std::uint64_t>(nprocs) *
                              (static_cast<std::uint64_t>(nprocs) - 1) / 2;
  if (rl.rlim_cur != RLIM_INFINITY && pairs + 64 > rl.rlim_cur)
    throw TransportError(
        "pac_launch: hybrid backend needs " + std::to_string(pairs) +
        " shm segment fds for " + std::to_string(nprocs) +
        " ranks but RLIMIT_NOFILE is " + std::to_string(rl.rlim_cur) +
        "; raise the limit (ulimit -n) or use --backend socket");
}

}  // namespace

LaunchResult launch(const std::vector<std::string>& command,
                    const LaunchOptions& options) {
  if (command.empty())
    throw TransportError("pac_launch: no command to run");
  if (options.nprocs < 1 || options.nprocs > 1024)
    throw TransportError("pac_launch: nprocs must be in [1, 1024], got " +
                         std::to_string(options.nprocs));
  const bool hybrid = options.backend == "hybrid";
  if (!hybrid && options.backend != "socket" && !options.backend.empty())
    throw TransportError("pac_launch: unknown backend '" + options.backend +
                         "' (want socket or hybrid)");

  std::string address = options.address;
  bool generated_unix = false;
  if (address.empty()) {
    address = "unix:/tmp/pacnet." + std::to_string(::getpid()) + ".sock";
    generated_unix = true;
  }

  std::vector<char*> argv;
  argv.reserve(command.size() + 1);
  for (const std::string& a : command)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  // Snapshot the forwarded tuning variables once, in the parent, so every
  // rank sees the same values even if the environment changes mid-launch.
  std::vector<std::pair<std::string, std::string>> forwarded;
  for (const char* name : kForwardedEnv)
    if (const char* value = std::getenv(name); value != nullptr)
      forwarded.emplace_back(name, value);

  // Hybrid: one shm segment per rank pair, created before the first fork so
  // every child inherits the fds (memfds are created without close-on-exec
  // and fd numbers survive fork+exec).  Each child keeps only its own
  // pairs' fds and closes the rest; the parent closes all of them once the
  // forks are done.
  std::uint64_t host_token = 0;
  std::vector<std::pair<std::pair<int, int>, Fd>> segments;
  std::vector<std::string> shm_spec(
      static_cast<std::size_t>(options.nprocs));
  if (hybrid) {
    host_token = mint_host_token();
    check_fd_budget(options.nprocs);
    const std::size_t ring = options.shm_ring_bytes != 0
                                 ? options.shm_ring_bytes
                                 : kDefaultShmRingBytes;
    for (int i = 0; i < options.nprocs; ++i) {
      for (int j = i + 1; j < options.nprocs; ++j) {
        Fd seg = ShmChannel::create_segment(ring);
        const std::string fd_text = std::to_string(seg.get());
        auto& spec_i = shm_spec[static_cast<std::size_t>(i)];
        auto& spec_j = shm_spec[static_cast<std::size_t>(j)];
        if (!spec_i.empty()) spec_i += ',';
        spec_i += std::to_string(j) + ':' + fd_text;
        if (!spec_j.empty()) spec_j += ',';
        spec_j += std::to_string(i) + ':' + fd_text;
        segments.emplace_back(std::make_pair(i, j), std::move(seg));
      }
    }
  }

  if (options.verbose && options.show_env) {
    for (int rank = 0; rank < options.nprocs; ++rank) {
      std::ostringstream os;
      os << "pac_launch: rank " << rank << " env:"
         << " PACNET_RANK=" << rank << " PACNET_SIZE=" << options.nprocs
         << " PACNET_ADDR=" << address;
      if (hybrid) {
        os << " PACNET_BACKEND=hybrid PACNET_HOST_TOKEN=" << host_token
           << " PACNET_SHM_FDS="
           << shm_spec[static_cast<std::size_t>(rank)];
      }
      for (const auto& [name, value] : forwarded)
        os << ' ' << name << '=' << value;
      for (const auto& [name, value] : options.extra_env)
        os << ' ' << name << '=' << value;
      std::fprintf(stderr, "%s\n", os.str().c_str());
    }
  }

  std::map<pid_t, int> rank_of;
  for (int rank = 0; rank < options.nprocs; ++rank) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      // Can't start the world: kill what we already started.
      for (const auto& [started, r] : rank_of) ::kill(started, SIGKILL);
      for (const auto& [started, r] : rank_of)
        ::waitpid(started, nullptr, 0);
      throw TransportError("pac_launch: fork failed: " +
                           std::string(strerror(errno)));
    }
    if (pid == 0) {
      ::setenv("PACNET_RANK", std::to_string(rank).c_str(), 1);
      ::setenv("PACNET_SIZE", std::to_string(options.nprocs).c_str(), 1);
      ::setenv("PACNET_ADDR", address.c_str(), 1);
      if (hybrid) {
        ::setenv("PACNET_BACKEND", "hybrid", 1);
        ::setenv("PACNET_HOST_TOKEN", std::to_string(host_token).c_str(), 1);
        ::setenv("PACNET_SHM_FDS",
                 shm_spec[static_cast<std::size_t>(rank)].c_str(), 1);
        // Keep only this rank's pair segments; the rest belong to other
        // pairs and must not leak into the exec'd image.
        for (const auto& [pair, fd] : segments)
          if (pair.first != rank && pair.second != rank) ::close(fd.get());
      }
      for (const auto& [name, value] : forwarded)
        ::setenv(name.c_str(), value.c_str(), 1);
      for (const auto& [name, value] : options.extra_env)
        ::setenv(name.c_str(), value.c_str(), 1);
      ::execvp(argv[0], argv.data());
      std::fprintf(stderr, "pac_launch: rank %d: cannot exec '%s': %s\n",
                   rank, argv[0], strerror(errno));
      ::_exit(127);
    }
    rank_of.emplace(pid, rank);
  }
  // Every child inherited the fds it needs; drop the parent's references so
  // segment memory is owned by the ranks alone from here on.
  segments.clear();

  LaunchResult result;
  const ScopedInterruptGuard interrupt_guard;
  // Phase 1: wait until every rank exits, the first failure appears, or the
  // launcher itself is interrupted.
  while (!rank_of.empty() && result.failed_rank < 0 &&
         g_interrupt_signal == 0) {
    int wstatus = 0;
    const pid_t pid = ::waitpid(-1, &wstatus, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the flag
      throw TransportError("pac_launch: waitpid failed: " +
                           std::string(strerror(errno)));
    }
    const auto it = rank_of.find(pid);
    if (it == rank_of.end()) continue;  // not ours
    const int rank = it->second;
    rank_of.erase(it);
    if (shell_status(wstatus) != 0) {
      result.failed_rank = rank;
      result.exit_status = shell_status(wstatus);
      result.diagnosis =
          "rank " + std::to_string(rank) + " " + describe_status(wstatus);
      if (options.verbose)
        std::fprintf(stderr, "pac_launch: %s\n", result.diagnosis.c_str());
    }
  }

  // Interrupted launcher: report the conventional 128+signo status and fall
  // through to straggler termination, so Ctrl-C (or a supervisor's SIGTERM)
  // cannot leave orphan ranks behind.
  if (g_interrupt_signal != 0 && result.failed_rank < 0) {
    const int signo = static_cast<int>(g_interrupt_signal);
    result.exit_status = 128 + signo;
    result.diagnosis = "launcher interrupted by signal " +
                       std::to_string(signo) + " (" + strsignal(signo) + ")";
    if (options.verbose)
      std::fprintf(stderr, "pac_launch: %s\n", result.diagnosis.c_str());
  }

  // Phase 2: a rank failed or the launcher was interrupted — terminate the
  // stragglers (SIGTERM, then SIGKILL after the grace period) so nobody
  // hangs on a broken world.
  if (result.exit_status != 0) reap_stragglers(rank_of, options);

  if (generated_unix) {
    // Best-effort cleanup of the rendezvous socket if rank 0 died before
    // unlinking it itself.
    ::unlink(address.c_str() + 5 /* strip "unix:" */);
  }
  return result;
}

}  // namespace pac::mp::transport
