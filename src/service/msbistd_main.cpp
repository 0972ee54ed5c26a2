// msbistd — the long-running mixed-signal BIST test service.
//
// Boots a JobManager (with the canonical "default" 32-die lockstep
// screen population pre-registered), mounts the REST surface on an
// HTTP/1.1 listener, prints the bound address, and then parks in
// sigwait. SIGTERM/SIGINT trigger the graceful drain: the listener
// closes (in-flight responses finish), the job manager stops accepting
// work and runs its queued and running jobs to completion, and the
// process exits 0.
//
// Signals are blocked before any thread is spawned, so every worker
// inherits the mask and only the main thread ever sees the signal —
// no async-signal-safety gymnastics in handlers.
//
//   msbistd [--port N] [--bind ADDR] [--workers N] [--io-threads N]
//           [--max-threads-per-job N] [--max-queue-depth N]
//           [--max-queued-per-tag N] [--retry-after-s S] [--aging-s S]
//           [--idle-timeout-s S] [--max-requests-per-conn N]
//           [--retain-mb N] [--state-dir DIR] [--fsync-every N]
//
// With --state-dir, jobs are journaled to a write-ahead log under DIR
// (see service/journal.h): a killed daemon restarted on the same DIR
// re-admits interrupted jobs and resumes lot-scale work from its last
// checkpoint — one per batch die, lockstep block or campaign fault.
//
// --port 0 (the default) binds an ephemeral port; the printed
// "listening on" line reports the real one, which is how the CI smoke
// job and the loopback tests find the server.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "service/api.h"
#include "service/dispatch.h"
#include "service/http.h"
#include "service/job_manager.h"

namespace {

void usage(std::FILE* out) {
  std::fputs(
      "usage: msbistd [--port N] [--bind ADDR] [--workers N]\n"
      "               [--io-threads N] [--max-threads-per-job N]\n"
      "               [--max-queue-depth N] [--max-queued-per-tag N]\n"
      "               [--retry-after-s S] [--aging-s S]\n"
      "               [--idle-timeout-s S] [--max-requests-per-conn N]\n"
      "               [--retain-mb N] [--state-dir DIR] [--fsync-every N]\n"
      "\n"
      "Long-running mixed-signal BIST test service. Serves the job API\n"
      "(POST /jobs, GET /jobs/{id}, GET /jobs/{id}/result, POST\n"
      "/jobs/{id}/cancel, /populations, /metrics, /healthz) until\n"
      "SIGTERM/SIGINT, then drains gracefully.\n"
      "\n"
      "Load hardening:\n"
      "  --max-queue-depth N       reject submits with 429 once N jobs\n"
      "                            are queued (0 = unbounded, default)\n"
      "  --max-queued-per-tag N    per-client_tag queue share (0 = off)\n"
      "  --retry-after-s S         Retry-After hint on 429s (default 1)\n"
      "  --aging-s S               queued jobs gain one priority level\n"
      "                            per S seconds waited (default 5)\n"
      "  --idle-timeout-s S        close idle keep-alive connections\n"
      "                            after S seconds (default 5)\n"
      "  --max-requests-per-conn N close connections after N requests\n"
      "                            (0 = unlimited, default 1000)\n"
      "  --retain-mb N             keep finished jobs queryable within N MiB\n"
      "                            of requests and reports, evicting the\n"
      "                            oldest first (default 32); the newest\n"
      "                            finished job stays even past the budget\n"
      "\n"
      "Durability:\n"
      "  --state-dir DIR           journal jobs to a write-ahead log under\n"
      "                            DIR; a restart on the same DIR recovers\n"
      "                            and resumes interrupted jobs (default:\n"
      "                            in-memory only)\n"
      "  --fsync-every N           fsync batched journal records every N\n"
      "                            records; a checkpoint record holds one\n"
      "                            batch die, lockstep block or campaign\n"
      "                            fault (1 = every record, default 8)\n",
      out);
}

bool parse_size(const char* text, std::size_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  out = static_cast<std::size_t>(v);
  return true;
}

bool parse_double(const char* text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || v < 0.0) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  msbist::service::HttpServer::Options http_options;
  msbist::service::JobManagerOptions job_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::size_t parsed = 0;
    double parsed_d = 0.0;
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (arg == "--port" && value != nullptr && parse_size(value, parsed) &&
        parsed <= 65535) {
      http_options.port = static_cast<std::uint16_t>(parsed);
      ++i;
    } else if (arg == "--bind" && value != nullptr) {
      http_options.bind_address = value;
      ++i;
    } else if (arg == "--workers" && value != nullptr &&
               parse_size(value, parsed) && parsed > 0) {
      job_options.workers = parsed;
      ++i;
    } else if (arg == "--io-threads" && value != nullptr &&
               parse_size(value, parsed) && parsed > 0) {
      http_options.io_threads = parsed;
      ++i;
    } else if (arg == "--max-threads-per-job" && value != nullptr &&
               parse_size(value, parsed)) {
      job_options.max_threads_per_job = parsed;
      ++i;
    } else if (arg == "--retain-mb" && value != nullptr &&
               parse_size(value, parsed) && parsed > 0 &&
               parsed <= (SIZE_MAX >> 20)) {
      job_options.retain_bytes = parsed << 20;
      ++i;
    } else if (arg == "--max-queue-depth" && value != nullptr &&
               parse_size(value, parsed)) {
      job_options.max_queue_depth = parsed;
      ++i;
    } else if (arg == "--max-queued-per-tag" && value != nullptr &&
               parse_size(value, parsed)) {
      job_options.max_queued_per_tag = parsed;
      ++i;
    } else if (arg == "--retry-after-s" && value != nullptr &&
               parse_double(value, parsed_d)) {
      job_options.retry_after_s = parsed_d;
      ++i;
    } else if (arg == "--aging-s" && value != nullptr &&
               parse_double(value, parsed_d)) {
      job_options.aging_seconds = parsed_d;
      ++i;
    } else if (arg == "--idle-timeout-s" && value != nullptr &&
               parse_double(value, parsed_d) && parsed_d > 0.0) {
      http_options.idle_timeout_s = parsed_d;
      ++i;
    } else if (arg == "--max-requests-per-conn" && value != nullptr &&
               parse_size(value, parsed)) {
      http_options.max_requests_per_connection = parsed;
      ++i;
    } else if (arg == "--state-dir" && value != nullptr && *value != '\0') {
      job_options.state_dir = value;
      ++i;
    } else if (arg == "--fsync-every" && value != nullptr &&
               parse_size(value, parsed) && parsed > 0) {
      job_options.journal_fsync_every = parsed;
      ++i;
    } else {
      std::fprintf(stderr, "msbistd: bad argument \"%s\"\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  // Block the shutdown signals before any thread exists, so the job slots
  // and IO workers inherit the mask and sigwait below is the only receiver.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  try {
    msbist::service::JobManager manager(job_options);
    manager.register_population(
        "default", msbist::service::lockstep_screen_population(32, 1995));
    // After the registry is populated: re-admit jobs the previous life
    // left interrupted (no-op without --state-dir / after clean drains).
    manager.recover_jobs();
    const msbist::service::JournalStatus recovery = manager.journal_status();
    // A first boot on an empty --state-dir has no previous life to report.
    if (recovery.enabled && !recovery.clean_shutdown && !recovery.first_boot) {
      std::fprintf(stderr,
                   "msbistd: unclean shutdown detected: recovered %llu "
                   "job(s), resuming %llu from checkpoints (%llu corrupt "
                   "journal record(s) skipped)\n",
                   static_cast<unsigned long long>(recovery.recovered_jobs),
                   static_cast<unsigned long long>(recovery.resumed_jobs),
                   static_cast<unsigned long long>(
                       recovery.gauges.skipped_records));
    }

    // Count server-synthesized 400/413 responses (oversized heads,
    // bodies over max_body) into the same metrics as routed requests.
    http_options.observe_internal_response =
        msbist::service::make_internal_response_observer(manager);

    msbist::service::HttpServer server(
        http_options, msbist::service::make_api_handler(manager));
    std::printf("msbistd listening on %s:%u\n",
                http_options.bind_address.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    int sig = 0;
    sigwait(&signals, &sig);
    std::fprintf(stderr, "msbistd: received %s, draining\n",
                 sig == SIGTERM ? "SIGTERM" : "SIGINT");
    server.stop();       // no new connections; in-flight responses finish
    manager.drain(false); // queued and running jobs complete, submissions rejected
    std::fprintf(stderr, "msbistd: drained, exiting\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "msbistd: fatal: %s\n", e.what());
    return 1;
  }
}
