// Runs one command and reports its wall time and its own peak resident
// set.  A child's ru_maxrss starts from the resident set of the process
// that forked it, so scripts/bench_e2e.py launches each leg through this
// small binary instead of from its ~15 MiB Python process.
//
// Usage: leg_launcher <program> [args...]
// Prints "<exit status> <wall seconds> <peak RSS KiB>" on stdout.  The
// program's stdout goes to /dev/null; its stderr passes through.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>

namespace {

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: leg_launcher <program> [args...]\n");
    return 2;
  }
  const double start = now_s();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("leg_launcher: fork");
    return 2;
  }
  if (pid == 0) {
    const int null = open("/dev/null", O_WRONLY);
    if (null >= 0 && dup2(null, STDOUT_FILENO) >= 0) {
      execv(argv[1], argv + 1);
    }
    std::perror(argv[1]);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    std::perror("leg_launcher: wait4");
    return 2;
  }
  const double wall = now_s() - start;
  const int code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::printf("%d %.9f %ld\n", code, wall, usage.ru_maxrss);
  return 0;
}
