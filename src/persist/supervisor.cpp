#include "persist/supervisor.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <thread>

#include "common/assert.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace appclass::persist {
namespace {

using Clock = std::chrono::steady_clock;

struct SupervisorMetrics {
  obs::Counter& restarts = obs::MetricsRegistry::global().counter(
      "appclass_supervisor_restarts_total");
  obs::Counter& crash_loops = obs::MetricsRegistry::global().counter(
      "appclass_supervisor_crash_loops_total");
  obs::Gauge& backoff = obs::MetricsRegistry::global().gauge(
      "appclass_supervisor_backoff_seconds");
};

SupervisorMetrics& supervisor_metrics() {
  static SupervisorMetrics metrics;
  return metrics;
}

// Async-signal state: the handler only flips a flag; all forwarding
// happens on the supervision loop.
volatile std::sig_atomic_t g_terminate_requested = 0;

void on_terminate(int) { g_terminate_requested = 1; }

/// Exit code convention: WEXITSTATUS for exits, 128+signal for kills.
int status_to_code(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 1;
}

}  // namespace

Supervisor::Supervisor(SupervisorOptions options) : options_(options) {
  APPCLASS_EXPECTS(options_.crash_loop_threshold >= 1);
}

SupervisorResult Supervisor::run(const std::function<int()>& worker) {
  SupervisorMetrics& sm = supervisor_metrics();
  SupervisorResult result;
  std::deque<Clock::time_point> failures;
  double backoff_s = options_.backoff_initial_s;

  g_terminate_requested = 0;
  ::setenv(kRestartsEnvVar, "0", 1);
  struct sigaction action {};
  action.sa_handler = on_terminate;
  struct sigaction old_term {}, old_int {};
  ::sigaction(SIGTERM, &action, &old_term);
  ::sigaction(SIGINT, &action, &old_int);

  for (;;) {
    const pid_t child = ::fork();
    if (child < 0) {
      APPCLASS_LOG_ERROR("supervisor.fork_failed", {"errno", errno});
      result.exit_code = 1;
      break;
    }
    if (child == 0) {
      // Worker process: default signal dispositions so the worker can
      // install its own graceful-shutdown handler, then run and leave
      // without the parent's atexit machinery.
      ::sigaction(SIGTERM, &old_term, nullptr);
      ::sigaction(SIGINT, &old_int, nullptr);
      ::_exit(worker());
    }

    APPCLASS_LOG_INFO("supervisor.worker_started", {"pid", child},
                      {"restarts", result.restarts});
    const auto started = Clock::now();
    bool term_forwarded = false;
    auto term_deadline = Clock::time_point::max();
    int status = 0;
    for (;;) {
      if (g_terminate_requested && !term_forwarded) {
        APPCLASS_LOG_INFO("supervisor.forwarding_sigterm", {"pid", child});
        ::kill(child, SIGTERM);
        term_forwarded = true;
        term_deadline = Clock::now() + std::chrono::duration_cast<
            Clock::duration>(std::chrono::duration<double>(
            options_.term_grace_s));
      }
      if (term_forwarded && Clock::now() >= term_deadline) {
        APPCLASS_LOG_WARN("supervisor.escalating_sigkill", {"pid", child});
        ::kill(child, SIGKILL);
        term_deadline = Clock::time_point::max();
      }
      const pid_t waited = ::waitpid(child, &status, WNOHANG);
      if (waited == child) break;
      if (waited < 0 && errno != EINTR) {
        status = 0;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    const double lifetime_s =
        std::chrono::duration<double>(Clock::now() - started).count();
    result.exit_code = status_to_code(status);

    if (term_forwarded) {
      result.terminated = true;
      APPCLASS_LOG_INFO("supervisor.terminated", {"exit", result.exit_code});
      break;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      APPCLASS_LOG_INFO("supervisor.worker_done", {"uptime_s", lifetime_s});
      break;
    }

    // Crash path: count it, detect a loop, back off, restart.
    if (WIFSIGNALED(status)) {
      APPCLASS_LOG_WARN("supervisor.worker_killed",
                        {"signal", WTERMSIG(status)},
                        {"uptime_s", lifetime_s});
    } else {
      APPCLASS_LOG_WARN("supervisor.worker_failed",
                        {"exit", result.exit_code},
                        {"uptime_s", lifetime_s});
    }

    const auto now = Clock::now();
    if (lifetime_s >= options_.stable_s) {
      failures.clear();
      backoff_s = options_.backoff_initial_s;
    }
    failures.push_back(now);
    while (!failures.empty() &&
           std::chrono::duration<double>(now - failures.front()).count() >
               options_.crash_loop_window_s)
      failures.pop_front();
    if (failures.size() >= options_.crash_loop_threshold) {
      result.crash_loop = true;
      sm.crash_loops.inc();
      APPCLASS_LOG_ERROR("supervisor.crash_loop",
                         {"failures", failures.size()},
                         {"window_s", options_.crash_loop_window_s});
      break;
    }

    sm.backoff.set(backoff_s);
    APPCLASS_LOG_INFO("supervisor.restarting", {"backoff_s", backoff_s},
                      {"restarts", result.restarts + 1});
    // Interruptible backoff sleep: a SIGTERM during backoff ends
    // supervision instead of spawning one more doomed worker.
    const auto wake = now + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(backoff_s));
    while (Clock::now() < wake && !g_terminate_requested)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (g_terminate_requested) {
      result.terminated = true;
      break;
    }
    backoff_s = std::min(backoff_s * 2.0, options_.backoff_max_s);
    ++result.restarts;
    sm.restarts.inc();
    char ordinal[32];
    std::snprintf(ordinal, sizeof ordinal, "%zu", result.restarts);
    ::setenv(kRestartsEnvVar, ordinal, 1);
  }

  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  return result;
}

}  // namespace appclass::persist
