/* Starts the benchmark's child processes, one at a time, and reports
   each one's exit, CPU time and peak resident set.

   The benchmark runs this small program once and sends it requests on
   stdin, instead of forking `beast` from its own process: on Linux a
   child's ru_maxrss starts from the resident set of the process it was
   forked from, so children of the large benchmark process would all
   report at least the benchmark's own footprint. OCaml's Unix library
   has no per-child max RSS either; wait4(2) gives both it and the CPU
   time, including the children the process reaped itself (the native
   engine's compiled sweep, cc).

   Request: NUL-terminated fields "TIMEOUT_MS STDOUT STDERR ARGC ARG...".
   Reply: one line "CODE TIMED_OUT CPU_S MAXRSS_KB", where CODE is the
   exit status, or minus the signal that killed the child. A child
   still running at the timeout is killed with SIGKILL and then reaped,
   so none outlives its request. The timeout waits on a pidfd (Linux
   5.3+); without pidfd_open the wait blocks with no deadline. The
   program exits at the end of its input. */

#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

static char *field(void)
{
  char *s = NULL;
  size_t n = 0;
  if (getdelim(&s, &n, '\0', stdin) < 0) {
    free(s);
    return NULL;
  }
  return s;
}

/* 1 once the child has exited, 0 at the deadline. */
static int exited_by(pid_t pid, int timeout_ms)
{
#ifdef SYS_pidfd_open
  int fd = (int)syscall(SYS_pidfd_open, pid, 0);
  if (fd < 0) return 1;
  struct pollfd p = { .fd = fd, .events = POLLIN, .revents = 0 };
  int r;
  do r = poll(&p, 1, timeout_ms); while (r < 0 && errno == EINTR);
  close(fd);
  return r != 0;
#else
  (void)pid;
  (void)timeout_ms;
  return 1;
#endif
}

static void redirect(const char *path, int flags, int target)
{
  int fd = open(path, flags, 0644);
  if (fd < 0 || dup2(fd, target) < 0) _exit(127);
  close(fd);
}

int main(void)
{
  for (;;) {
    char *timeout = field();
    if (timeout == NULL) return 0;
    char *out = field(), *err = field(), *argc_s = field();
    if (out == NULL || err == NULL || argc_s == NULL) return 1;
    int argc = atoi(argc_s);
    char **argv = calloc((size_t)argc + 1, sizeof *argv);
    for (int i = 0; i < argc; i++)
      if ((argv[i] = field()) == NULL) return 1;

    int status = 0, timed_out = 0;
    struct rusage ru;
    memset(&ru, 0, sizeof ru);
    pid_t pid = fork();
    if (pid == 0) {
      redirect("/dev/null", O_RDONLY, 0);
      redirect(out, O_WRONLY | O_CREAT | O_TRUNC, 1);
      redirect(err, O_WRONLY | O_CREAT | O_TRUNC, 2);
      execvp(argv[0], argv);
      _exit(127);
    }
    if (pid < 0) {
      status = 127 << 8;
    } else {
      if (!exited_by(pid, atoi(timeout))) {
        kill(pid, SIGKILL);
        timed_out = 1;
      }
      while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {}
    }
    int code = WIFEXITED(status) ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? -WTERMSIG(status) : -1;
    double cpu = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6
               + ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
    printf("%d %d %.6f %ld\n", code, timed_out, cpu, ru.ru_maxrss);
    fflush(stdout);

    for (int i = 0; i < argc; i++) free(argv[i]);
    free(argv);
    free(timeout);
    free(out);
    free(err);
    free(argc_s);
  }
}
