// msbist service benchmark harness.
//
// One run boots the real msbistd (a child process with a fresh
// --state-dir), drives it over keep-alive HTTP with service::HttpClient
// in a closed loop, checks every verdict against service::dispatch run
// in-process on the same JobRequest, and prints the end-to-end metrics.
// With --trace 1 it instead peels the workload's request through the
// public entry points (engine, dispatch, JobManager without and with a
// journal, the in-process API router, HTTP), times the engines' stages
// by calling their public functions, and prints the per-layer metrics.
// Spans are recorded only around calls made from this file; nothing in
// the library is instrumented.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --daemon PATH --work-dir DIR [--commit SHA]
//
// The last line of standard output is the result object (correct,
// attempted, failed, metrics); the lines before it are the readable report
// (every number with its sample count and spread) and the environment.
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fcntl.h>
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/runner.h"
#include "circuit/batch_transient.h"
#include "circuit/transient.h"
#include "circuit/waveform.h"
#include "core/device.h"
#include "core/job.h"
#include "core/json.h"
#include "core/json_value.h"
#include "dsp/prbs.h"
#include "faults/campaign.h"
#include "faults/collapse.h"
#include "faults/universe.h"
#include "helpers.h"
#include "production/batch.h"
#include "service/api.h"
#include "service/dispatch.h"
#include "service/http.h"
#include "service/job_manager.h"
#include "tsrt/detector.h"
#include "tsrt/example_circuits.h"
#include "tsrt/transient_test.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace msbist;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---------------------------------------------------------------- spans

/// In-memory spans recorded around calls into the library; written out
/// when the run ends. Thread-safe (HTTP clients run on several threads).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
    std::uint64_t job = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }

  long begin(std::string name, long parent = -1, std::uint64_t job = 0) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), now_s(), 0.0, parent, job});
    return static_cast<long>(spans_.size()) - 1;
  }
  void end(long id, std::uint64_t job = 0) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now_s();
    if (job != 0) s.job = job;
  }

  /// Self time per span name: duration minus the time its children cover.
  std::map<std::string, std::pair<double, std::size_t>> self_times() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, std::pair<double, std::size_t>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [self, count] = out[spans_[i].name];
      self += spans_[i].end - spans_[i].start - child[i];
      ++count;
    }
    return out;
  }

  void write(const fs::path& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      core::JsonWriter w;
      w.begin_object()
          .member("id", static_cast<std::uint64_t>(i))
          .member("name", s.name)
          .member("start_s", s.start)
          .member("end_s", s.end)
          .member("parent", static_cast<std::int64_t>(s.parent))
          .member("job", s.job)
          .end_object();
      out << w.str() << '\n';
    }
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_trace;

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, long parent = -1, std::uint64_t job = 0)
      : id_(g_trace.begin(std::move(name), parent, job)) {}
  ~ScopedSpan() { g_trace.end(id_, job_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  long id() const { return id_; }
  void set_job(std::uint64_t job) { job_ = job; }

 private:
  long id_;
  std::uint64_t job_ = 0;
};

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  double iqr = 0.0;  ///< inter-quartile range of the samples, same unit
};

/// Median of `samples` with its sample count and IQR.
Metric summarize(std::string name, std::vector<double> samples, std::string unit,
                 double scale = 1.0) {
  for (double& v : samples) v *= scale;
  Metric m{std::move(name), perfbench::median(samples), std::move(unit),
           samples.size(), 0.0};
  if (samples.size() > 1) {
    m.iqr = perfbench::quantile(samples, 0.75) - perfbench::quantile(samples, 0.25);
  }
  return m;
}

Metric single(std::string name, double value, std::string unit) {
  return {std::move(name), value, std::move(unit), 1, 0.0};
}

void print_metric(const Metric& m) {
  std::printf("  %-40s %14.6g %-6s (n=%zu, iqr=%.4g)\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.samples, m.iqr);
}

// ------------------------------------------------------------ /proc

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double cpu_seconds_of(pid_t pid) {
  const auto ticks =
      perfbench::parse_stat_cpu_ticks(read_file("/proc/" + std::to_string(pid) + "/stat"));
  if (!ticks) throw std::runtime_error("cannot read /proc/<pid>/stat");
  return static_cast<double>(*ticks) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double status_mb(const std::string& pid, const char* field) {
  const auto kb = perfbench::parse_status_kb(read_file("/proc/" + pid + "/status"), field);
  if (!kb) throw std::runtime_error(std::string("cannot read ") + field);
  return static_cast<double>(*kb) / 1024.0;
}

/// Bytes this process passed to write(2) so far (/proc/self/io wchar).
std::uint64_t written_bytes() {
  std::istringstream in(read_file("/proc/self/io"));
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

/// Seconds the hypervisor ran other guests on this machine's CPUs (the
/// "steal" column of /proc/stat, summed over CPUs).
double steal_seconds() {
  std::istringstream in(read_file("/proc/stat"));
  std::string cpu;
  std::uint64_t v[8] = {};
  in >> cpu;
  for (std::uint64_t& x : v) in >> x;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string loadavg() {
  std::istringstream in(read_file("/proc/loadavg"));
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

/// A fixed integer loop that touches no library code: its time shows how
/// loaded the machine was. Recorded only, never used to rescale.
double calibration_ms() {
  const double t0 = now_s();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return (now_s() - t0) * 1e3;
}

// ------------------------------------------------------------ workloads

struct Workload {
  std::string name;
  std::vector<core::JobRequest> requests;  ///< cycled, job by job
  std::size_t clients = 1;
  std::size_t daemon_workers = 2;
  std::string unit;  ///< what units_per_s counts: die, fault or job
  std::size_t trace_reps = 5;  ///< repetitions per layer in the traced run
  std::size_t first_job_boots = 9;  ///< boots whose cold first job is timed
};

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  core::JobRequest r;
  r.batch_seed = seed;
  r.threads = 2;
  r.client_tag = "perfbench";
  if (name == "lot_fullspec") {
    r.kind = core::JobKind::kBatch;
    r.device_count = 200;
    r.full_spec = true;
    r.fault_spot_check = true;
    w.requests = {r};
    w.unit = "die";
  } else if (name == "lockstep_lot") {
    r.kind = core::JobKind::kLockstepBatch;
    r.device_count = 4096;
    w.requests = {r};
    w.unit = "die";
  } else if (name == "campaign_tsrt") {
    r.kind = core::JobKind::kFaultCampaign;
    r.collapse = true;
    core::JobRequest other = r;
    r.circuit = "sc_integrator_comparator";
    other.circuit = "op1_follower";
    // The paper's fault universes are fixed, so the seed does not change
    // campaign inputs; a fixed order keeps first_job_s comparable.
    w.requests = {r, other};
    w.unit = "fault";
    w.first_job_boots = 15;
  } else if (name == "service_small_jobs") {
    r.kind = core::JobKind::kBatch;
    r.device_count = 1;
    r.tiers = {"digital"};
    r.threads = 1;
    w.requests = {r};
    w.clients = 2;
    w.unit = "job";
    w.trace_reps = 400;
    w.first_job_boots = 31;  // every boot: a cold 1-die job costs ~1.5 ms
  } else {
    return std::nullopt;
  }
  return w;
}

std::string request_body(const core::JobRequest& r) {
  core::JsonWriter w;
  r.to_json(w);
  return w.str();
}

// ------------------------------------------------------------ verdicts

bool is_timing_key(const std::string& key) {
  const auto ends_with = [&](std::string_view suffix) {
    return key.size() >= suffix.size() &&
           key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  return ends_with("_seconds") || ends_with("_per_second");
}

/// The report with every wall-clock member removed: what remains is
/// deterministic for a given request (it covers every field
/// canonical_outcomes() reads, at full precision).
core::JsonValue strip_timing(const core::JsonValue& v) {
  if (v.is_object()) {
    core::JsonValue out = core::JsonValue::object();
    for (const auto& [key, child] : v.members()) {
      if (!is_timing_key(key)) out.set(key, strip_timing(child));
    }
    return out;
  }
  if (v.is_array()) {
    core::JsonValue out = core::JsonValue::array();
    for (const core::JsonValue& item : v.items()) out.push_back(strip_timing(item));
    return out;
  }
  return v;
}

struct Reference {
  core::JobRequest request;
  std::string body;  ///< POST /jobs payload
  service::DispatchResult result;
  core::JsonValue canonical;  ///< strip_timing(report)
  std::size_t units = 0;
};

std::size_t units_of(const Workload& w, const core::JsonValue& report) {
  if (w.unit == "job") return 1;
  const core::JsonValue* n = report.find(w.unit == "die" ? "device_count" : "faults");
  return n != nullptr && n->is_integer() ? static_cast<std::size_t>(n->as_u64()) : 0;
}

Reference make_reference(const Workload& w, const core::JobRequest& req) {
  Reference ref;
  ref.request = req;
  ref.body = request_body(req);
  ref.result = service::dispatch(req);
  const core::JsonValue report = core::parse_json(ref.result.report_json);
  ref.canonical = strip_timing(report);
  ref.units = units_of(w, report);
  return ref;
}

/// "" when the job_result document matches the reference verdict, else
/// what differs.
std::string check_result(const core::JsonValue& doc, const Reference& ref) {
  const core::JsonValue* state = doc.find("state");
  if (state == nullptr || !state->is_string() || state->as_string() != "succeeded") {
    return "job did not succeed: " + doc.dump().substr(0, 300);
  }
  const core::JsonValue* outcome = doc.find("outcome");
  const core::JsonValue* report = doc.find("report");
  if (outcome == nullptr || report == nullptr) return "result lacks outcome/report";
  const core::JsonValue* pass = outcome->find("pass");
  const core::JsonValue* detail = outcome->find("detail");
  if (pass == nullptr || detail == nullptr ||
      pass->as_bool() != ref.result.outcome.pass ||
      detail->as_string() != ref.result.outcome.detail) {
    return "outcome differs from the in-process reference";
  }
  if (!(strip_timing(*report) == ref.canonical)) {
    return "report differs from the in-process reference";
  }
  return "";
}

// ------------------------------------------------------------ the daemon

/// The running daemon, for the signal handler below.
std::atomic<pid_t> g_daemon_pid{-1};

/// SIGTERM/SIGINT/SIGHUP: kill the daemon too, so an interrupted run
/// leaves no process behind (its state dir is removed by the next run).
extern "C" void on_stop_signal(int sig) {
  const pid_t pid = g_daemon_pid.load();
  if (pid > 0) kill(pid, SIGKILL);
  _exit(128 + sig);
}

/// msbistd as a child process with a fresh state directory.
class Daemon {
 public:
  Daemon(const std::string& binary, std::size_t workers, fs::path state_dir,
         const fs::path& log)
      : state_dir_(std::move(state_dir)) {
    fs::remove_all(state_dir_);
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    out_fd_ = fds[0];
    const std::string workers_text = std::to_string(workers);
    std::vector<std::string> args = {binary,        "--port",      "0",
                                     "--workers",   workers_text,  "--state-dir",
                                     state_dir_.string()};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // posix_spawn does not copy this process's page tables, so setup_s
    // does not grow with the harness's own memory.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const double t0 = now_s();
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
      pid_ = -1;
      close(out_fd_);
      throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));
    }
    g_daemon_pid.store(pid_);
    try {
      port_ = read_port();
      wait_healthy();
    } catch (...) {
      stop();
      throw;
    }
    setup_s_ = now_s() - t0;
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  double setup_s() const { return setup_s_; }

  /// SIGTERM (graceful drain), then wait; SIGKILL after 30 s.
  void stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      const double deadline = now_s() + 30.0;
      int status = 0;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (now_s() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      g_daemon_pid.store(-1);
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
    std::error_code ec;
    fs::remove_all(state_dir_, ec);
  }

 private:
  /// Parse "msbistd listening on ADDR:PORT" from the child's stdout.
  std::uint16_t read_port() {
    std::string line;
    const double deadline = now_s() + 30.0;
    while (line.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      const int left_ms = static_cast<int>((deadline - now_s()) * 1e3);
      if (left_ms <= 0 || poll(&p, 1, left_ms) <= 0) {
        throw std::runtime_error("msbistd printed no listening line");
      }
      char buf[256];
      const ssize_t n = read(out_fd_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("msbistd exited during start-up");
      line.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t colon = line.rfind(':');
    const int port = colon == std::string::npos ? 0 : std::atoi(line.c_str() + colon + 1);
    if (port <= 0 || port > 65535) throw std::runtime_error("bad listening line: " + line);
    return static_cast<std::uint16_t>(port);
  }

  void wait_healthy() {
    const double deadline = now_s() + 30.0;
    while (now_s() < deadline) {
      try {
        service::HttpClient client(port_, 5.0);
        if (client.request("GET", "/healthz", "", true).status == 200) return;
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    throw std::runtime_error("msbistd never answered /healthz");
  }

  fs::path state_dir_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0.0;
};

/// Client-side wait between status polls: 5 % of the time the job has
/// taken so far, between 20 us and 5 ms. It bounds the latency error to
/// about 5 % without hammering the daemon on long jobs.
void poll_pause(double elapsed_s) {
  const double pause = std::clamp(elapsed_s * 0.05, 20e-6, 5e-3);
  std::this_thread::sleep_for(std::chrono::duration<double>(pause));
}

/// Wall times of `reps` calls, in seconds.
std::vector<double> time_reps(std::size_t reps, const std::function<void()>& fn) {
  std::vector<double> out;
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    out.push_back(now_s() - t0);
  }
  return out;
}

/// Average over the workload's requests of each request's median time:
/// campaign_tsrt alternates two circuits of different cost.
double mean_of_medians(const std::vector<std::vector<double>>& per_request) {
  double sum = 0.0;
  for (const auto& s : per_request) sum += perfbench::median(s);
  return sum / static_cast<double>(per_request.size());
}

struct JobRun {
  double latency_s = 0.0;
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::string error;  ///< transport or protocol failure; "" = got a result
  std::string body;   ///< job_result document
};

/// POST /jobs, poll GET /jobs/{id} until terminal, GET /jobs/{id}/result
/// and parse it: one closed-loop cycle.
JobRun run_http_job(service::HttpClient& client, const std::string& body) {
  JobRun run;
  const double t0 = now_s();
  ScopedSpan job_span("http.job");
  try {
    service::HttpResponse resp;
    {
      ScopedSpan s("http.submit", job_span.id());
      resp = client.request("POST", "/jobs", body);
    }
    if (resp.status != 202) {
      run.error = "submit answered " + std::to_string(resp.status) + ": " + resp.body;
      return run;
    }
    const core::JsonValue* id = nullptr;
    const core::JsonValue accepted = core::parse_json(resp.body);
    id = accepted.find("id");
    if (id == nullptr || !id->is_integer()) {
      run.error = "202 without an id";
      return run;
    }
    run.id = id->as_u64();
    job_span.set_job(run.id);
    const std::string path = "/jobs/" + std::to_string(run.id);
    for (;;) {
      {
        ScopedSpan s("http.poll", job_span.id(), run.id);
        resp = client.request("GET", path);
      }
      if (resp.status != 200) {
        run.error = "status answered " + std::to_string(resp.status);
        return run;
      }
      const core::JsonValue status = core::parse_json(resp.body);
      const core::JsonValue* state = status.find("state");
      if (state == nullptr || !state->is_string()) {
        run.error = "status without a state";
        return run;
      }
      if (state->as_string() != "queued" && state->as_string() != "running") break;
      if (now_s() - t0 > 120.0) {
        run.error = "job never reached a terminal state";
        return run;
      }
      poll_pause(now_s() - t0);
    }
    {
      ScopedSpan s("http.result", job_span.id(), run.id);
      resp = client.request("GET", path + "/result");
    }
    if (resp.status != 200) {
      run.error = "result answered " + std::to_string(resp.status);
      return run;
    }
    {
      ScopedSpan s("client.parse", job_span.id(), run.id);
      (void)core::parse_json(resp.body);
    }
    run.body = std::move(resp.body);
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.end_s = now_s();
  run.latency_s = run.end_s - t0;
  return run;
}

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon;
  fs::path work_dir = ".bench_build/run";
  std::string commit = "unknown";
};

/// A state directory private to this process, so concurrent runs in one
/// checkout never share a journal.
fs::path state_dir(const Args& args, const char* name) {
  return args.work_dir / (std::string(name) + "-" + std::to_string(getpid()));
}

/// Remove state directories left by runs that were killed.
void remove_stale_state(const fs::path& work_dir) {
  for (const fs::directory_entry& e : fs::directory_iterator(work_dir)) {
    const std::string name = e.path().filename().string();
    const std::size_t dash = name.rfind('-');
    if (!e.is_directory() || dash == std::string::npos) continue;
    const pid_t pid = static_cast<pid_t>(std::atol(name.c_str() + dash + 1));
    if (pid > 0 && kill(pid, 0) != 0 && errno == ESRCH) fs::remove_all(e.path());
  }
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_daemon = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || a.seconds <= 0.0) return std::nullopt;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
    } else if (key == "--daemon") {
      a.daemon = value;
      have_daemon = true;
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_daemon) return std::nullopt;
  return a;
}

// ------------------------------------------------------------ untraced run

/// Daemon boots per run: setup_s is the median over all of them and
/// first_job_s the median over the last Workload::first_job_boots; the
/// last boot carries the steady-state loop.
constexpr std::size_t kBoots = 31;

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;

  void add(const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      if (first_error.empty()) first_error = error;
    }
  }
};

std::string verify(const JobRun& run, const Reference& ref) {
  if (!run.error.empty()) return run.error;
  try {
    return check_result(core::parse_json(run.body), ref);
  } catch (const std::exception& e) {
    return std::string("unparseable result: ") + e.what();
  }
}

std::vector<Metric> run_end_to_end(const Args& args, const Workload& w,
                                   const std::vector<Reference>& refs, Tally& tally) {
  const fs::path log = args.work_dir / "msbistd.log";
  std::vector<double> setup, first_job;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t boot = 0; boot < kBoots; ++boot) {
    daemon.reset();
    daemon = std::make_unique<Daemon>(args.daemon, w.daemon_workers,
                                      state_dir(args, "state"), log);
    setup.push_back(daemon->setup_s());
    if (boot + w.first_job_boots < kBoots) continue;
    service::HttpClient client(daemon->port());
    const JobRun run = run_http_job(client, refs[0].body);
    tally.add(verify(run, refs[0]));
    first_job.push_back(run.latency_s);
  }

  // Steady state on the last boot: closed loop, each client submits its
  // next job only after it has parsed the previous result, and stops on a
  // whole cycle of the workload's requests once the window has passed.
  struct ClientLog {
    std::vector<JobRun> runs;
    std::vector<std::size_t> ref_index;
    std::uint64_t requests = 0;
  };
  std::vector<ClientLog> logs(w.clients);
  const double cpu_start = cpu_seconds_of(daemon->pid());
  const double start = now_s();
  const double deadline = start + args.seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      service::HttpClient client(daemon->port());
      for (std::size_t j = 0; now_s() < deadline || j % refs.size() != 0; ++j) {
        const std::size_t r = (c + j) % refs.size();
        logs[c].runs.push_back(run_http_job(client, refs[r].body));
        logs[c].ref_index.push_back(r);
      }
      logs[c].requests = client.requests();
    });
  }
  for (std::thread& t : threads) t.join();
  const double cpu_s = cpu_seconds_of(daemon->pid()) - cpu_start;
  const double peak_mb = status_mb(std::to_string(daemon->pid()), "VmHWM");
  daemon.reset();

  // Verify after the loop so checking never delays the next submission.
  std::vector<double> latency;
  std::vector<std::vector<double>> latency_by_request(refs.size());
  double last_end = start;
  std::size_t units = 0, jobs = 0;
  std::uint64_t requests = 0;
  for (const ClientLog& cl : logs) {
    requests += cl.requests;
    for (std::size_t i = 0; i < cl.runs.size(); ++i) {
      const JobRun& run = cl.runs[i];
      const Reference& ref = refs[cl.ref_index[i]];
      const std::string error = verify(run, ref);
      tally.add(error);
      if (!error.empty()) continue;
      latency.push_back(run.latency_s);
      latency_by_request[cl.ref_index[i]].push_back(run.latency_s);
      last_end = std::max(last_end, run.end_s);
      units += ref.units;
      ++jobs;
    }
  }
  const double wall = last_end - start;
  if (jobs == 0 || units == 0) throw std::runtime_error("no job completed");

  std::vector<Metric> out;
  out.push_back(summarize("setup_s", setup, "s"));
  out.push_back(summarize("first_job_s", first_job, "s"));
  out.push_back({"units_per_s", static_cast<double>(units) / wall, "1/s", jobs, 0.0});
  // campaign_tsrt alternates two circuits of different cost: its p50 is
  // the mean of the per-circuit medians, not the median of a bimodal mix.
  Metric p50 = summarize("job_latency_p50_ms", latency, "ms", 1e3);
  p50.value = mean_of_medians(latency_by_request) * 1e3;
  out.push_back(p50);
  out.push_back({"cpu_ms_per_unit", cpu_s * 1e3 / static_cast<double>(units), "ms", jobs,
                 0.0});
  out.push_back(single("peak_rss_mb", peak_mb, "MB"));

  // Workload-specific names, printed for reading only.
  std::printf("# %s: %zu jobs, %zu %ss in %.3f s wall, %zu client(s), %.2f HTTP "
              "requests/job\n",
              w.name.c_str(), jobs, units, w.unit.c_str(), wall, w.clients,
              static_cast<double>(requests) / static_cast<double>(jobs));
  const char* per_unit = w.unit == "die" ? "dies_per_s"
                         : w.unit == "fault" ? "faults_per_s" : "jobs_per_s";
  std::printf("#   %s = %.6g 1/s\n", per_unit, static_cast<double>(units) / wall);
  std::sort(latency.begin(), latency.end());
  if (const auto p = perfbench::tail_percentile(latency.size()); p && *p > 0.5) {
    std::printf("#   job_latency_p%g_ms = %.6g ms (n=%zu)\n", *p * 100.0,
                perfbench::quantile_sorted(latency, *p) * 1e3, latency.size());
  } else {
    std::printf("#   no latency percentile above p50 has ten samples beyond it (n=%zu)\n",
                latency.size());
  }
  return out;
}

// ------------------------------------------------------------ traced run

/// The engine call dispatch() makes for `req`, made directly.
void run_engine(const core::JobRequest& req) {
  switch (req.kind) {
    case core::JobKind::kBatch: {
      production::BatchConfig cfg;
      cfg.device_count = req.device_count;
      cfg.batch_seed = req.batch_seed;
      production::TestPlan plan;
      plan.tiers = service::parse_tiers(req.tiers);
      plan.full_spec = req.full_spec;
      plan.fault_spot_check = req.fault_spot_check;
      (void)production::run_batch(production::make_population(cfg), plan, req.threads);
      return;
    }
    case core::JobKind::kLockstepBatch:
      (void)production::run_batch_lockstep(
          service::lockstep_screen_population(req.device_count, req.batch_seed),
          service::lockstep_screen_plan());
      return;
    default:
      throw std::logic_error("run_engine: campaigns are timed by CampaignSetup");
  }
}

tsrt::CircuitKind circuit_kind(const std::string& name) {
  return name == "op1_follower" ? tsrt::CircuitKind::kOp1Follower
                                : tsrt::CircuitKind::kScIntegratorComparator;
}

std::vector<faults::FaultSpec> universe_of(tsrt::CircuitKind kind) {
  return kind == tsrt::CircuitKind::kOp1Follower ? faults::op1_fault_universe()
                                                 : faults::sc_fault_universe();
}

/// What dispatch() prepares before faults::run_campaign_parallel: the
/// golden run, the test function and the collapse analysis.
struct CampaignSetup {
  tsrt::CircuitKind kind;
  tsrt::TsrtOptions opts;
  tsrt::TsrtRun golden;
  std::vector<faults::FaultSpec> universe;
  faults::CollapsedUniverse collapsed;

  explicit CampaignSetup(tsrt::CircuitKind k)
      : kind(k),
        opts(tsrt::paper_options(k)),
        golden(tsrt::run_transient_test(k, std::nullopt, opts)),
        universe(universe_of(k)) {
    const tsrt::ExampleCircuit c = tsrt::build_circuit(k);
    faults::CollapseOptions col;
    col.taps = {c.output_node};
    collapsed = faults::collapse(universe, c.netlist, c.node_map, col);
  }

  faults::CampaignReport run(std::size_t threads) const {
    const faults::FaultTestFn test = [this](const faults::FaultSpec& fault) {
      faults::FaultResult r;
      r.fault = fault;
      const tsrt::TsrtRun faulty = tsrt::run_transient_test(kind, fault, opts);
      r.score = tsrt::combined_detection_percent(golden, faulty);
      r.detected = tsrt::is_detected(r.score);
      return r;
    };
    faults::CampaignOptions copts;
    copts.threads = threads;
    copts.collapse = &collapsed;
    return faults::run_campaign_parallel(universe, test, copts);
  }
};

/// Submit to an in-process JobManager and wait for the terminal snapshot.
service::JobSnapshot run_manager_job(service::JobManager& m, const core::JobRequest& req) {
  const double t0 = now_s();
  const std::uint64_t id = m.submit(req);
  for (;;) {
    auto snap = m.get(id);
    if (!snap) throw std::runtime_error("job vanished from the manager");
    if (service::is_terminal(snap->state)) {
      if (snap->state != service::JobState::kSucceeded) {
        throw std::runtime_error("in-process job did not succeed");
      }
      return *snap;
    }
    poll_pause(now_s() - t0);
  }
}

service::HttpResponse api_call(service::JobManager& m, const char* method,
                               std::string target, std::string body = "") {
  service::HttpRequest req;
  req.method = method;
  req.target = std::move(target);
  req.version = "HTTP/1.1";
  req.body = std::move(body);
  return service::handle_api_request(m, req);
}

struct ApiTimes {
  double submit_s = 0.0;
  double result_s = 0.0;
};

/// The HTTP cycle without the socket: the same requests routed through
/// handle_api_request in-process.
ApiTimes run_api_job(service::JobManager& m, const std::string& body) {
  ApiTimes t;
  const double t0 = now_s();
  const service::HttpResponse accepted = api_call(m, "POST", "/jobs", body);
  t.submit_s = now_s() - t0;
  if (accepted.status != 202) throw std::runtime_error("in-process submit failed");
  const std::string path =
      "/jobs/" + std::to_string(core::parse_json(accepted.body).find("id")->as_u64());
  for (;;) {
    const core::JsonValue status = core::parse_json(api_call(m, "GET", path).body);
    const std::string& state = status.find("state")->as_string();
    if (state != "queued" && state != "running") break;
    poll_pause(now_s() - t0);
  }
  const double r0 = now_s();
  const service::HttpResponse result = api_call(m, "GET", path + "/result");
  t.result_s = now_s() - r0;
  (void)core::parse_json(result.body);
  return t;
}

/// Counts that must repeat exactly for one seed, each produced twice.
struct CountCheck {
  std::map<std::string, std::pair<double, double>> pairs;
  void add(const std::string& name, double first, double second) {
    pairs[name] = {first, second};
  }
};

struct March {
  double build_ms = 0.0;
  double march_ms = 0.0;
  double evaluate_ms = 0.0;
  double erc_us = 0.0;
  circuit::BatchTransientStats stats;
};

/// The lockstep screen's stages for the first n dies of `pop`, timed one
/// by one: netlist build, the BatchTransient march, evaluation, and the
/// ERC on one die's netlist.
March lockstep_stages(const std::vector<production::DieSpec>& pop, std::size_t n,
                      const production::LockstepPlan& plan) {
  March m;
  std::vector<circuit::Netlist> nets(n);
  std::vector<circuit::Netlist*> ptrs;
  double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    plan.build(pop[i], nets[i]);
    ptrs.push_back(&nets[i]);
  }
  m.build_ms = (now_s() - t0) * 1e3;
  t0 = now_s();
  const circuit::BatchTransientReport rep = circuit::BatchTransient(plan.transient).run(ptrs);
  m.march_ms = (now_s() - t0) * 1e3;
  m.stats = rep.stats;
  t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    if (rep.variants[i].ok()) (void)plan.evaluate(pop[i], *rep.variants[i].result);
  }
  m.evaluate_ms = (now_s() - t0) * 1e3;
  std::vector<double> erc = time_reps(20, [&] { (void)analysis::Runner::standard().run(nets[0]); });
  m.erc_us = perfbench::median(erc) * 1e6;
  return m;
}

/// The fixed stage probe: intra-engine stages timed through their public
/// functions, the same on every workload.
void stage_probe(std::uint64_t seed, std::vector<Metric>& out, CountCheck& counts) {
  // production: per-die cost over a 200-die full-spec lot.
  {
    ScopedSpan s("stage.production.lot");
    production::BatchConfig cfg;
    cfg.device_count = 200;
    cfg.batch_seed = seed;
    cfg.threads = 2;
    cfg.plan = production::TestPlan::full();
    const production::BatchReport rep = production::run_batch(cfg);
    std::vector<double> die_ms;
    for (const auto& d : rep.devices) die_ms.push_back(d.elapsed_seconds * 1e3);
    Metric p50 = summarize("production.die_ms_p50", die_ms, "ms");
    std::sort(die_ms.begin(), die_ms.end());
    // p95 is the highest percentile with ten of the 200 dies beyond it.
    const double tail = perfbench::tail_percentile(die_ms.size()).value_or(0.5);
    out.push_back(p50);
    out.push_back({"production.die_ms_p95", perfbench::quantile_sorted(die_ms, tail), "ms",
                   die_ms.size(), 0.0});
    out.push_back(single("production.parallel_efficiency",
                         rep.cpu_seconds / (2.0 * rep.wall_seconds), "ratio"));

    std::vector<double> characterize, spot, tier_us[bist::kAllTiers.size()];
    production::TestPlan spot_plan;
    spot_plan.tiers.clear();
    spot_plan.fault_spot_check = true;
    const auto pop = production::make_population(cfg);
    for (std::size_t i = 0; i < 10; ++i) {
      core::Device die(pop[i].seed, pop[i].config);
      bist::BistReport report;
      for (bist::Tier t : bist::kAllTiers) {
        ScopedSpan ts(std::string("stage.bist.") + bist::to_string(t));
        const double t0 = now_s();
        (void)die.bist().run_tier(t, die.adc(), report);
        tier_us[static_cast<std::size_t>(t)].push_back((now_s() - t0) * 1e6);
      }
      {
        ScopedSpan cs("stage.adc.characterize");
        const double t0 = now_s();
        (void)die.characterize();
        characterize.push_back((now_s() - t0) * 1e3);
      }
      ScopedSpan ss("stage.bist.spot_check");
      const double t0 = now_s();
      (void)production::test_device(pop[i], spot_plan);
      spot.push_back((now_s() - t0) * 1e3);
    }
    for (bist::Tier t : bist::kAllTiers) {
      out.push_back(summarize(std::string("bist.") + bist::to_string(t) + "_us",
                              tier_us[static_cast<std::size_t>(t)], "us"));
    }
    out.push_back(summarize("bist.spot_check_ms", spot, "ms"));
    const Metric ch = summarize("adc.characterize_ms", characterize, "ms");
    out.push_back(ch);
    out.push_back(single("adc.characterize_share", ch.value / p50.value, "ratio"));
  }

  // production lockstep and circuit::BatchTransient.
  {
    ScopedSpan s("stage.production.lockstep");
    const production::LockstepPlan plan = service::lockstep_screen_plan();
    std::vector<double> per_die_256;
    for (double t : time_reps(3, [&] {
           (void)production::run_batch_lockstep(
               service::lockstep_screen_population(256, seed), plan);
         })) {
      per_die_256.push_back(t * 1e3 / 256.0);
    }
    out.push_back(summarize("production.lockstep.ms_per_die_256", per_die_256, "ms"));

    const auto pop = service::lockstep_screen_population(4096, seed);
    std::ofstream("/proc/self/clear_refs") << "5";  // resets VmHWM to VmRSS
    const double rss0 = status_mb("self", "VmRSS");
    const double t0 = now_s();
    (void)production::run_batch_lockstep(pop, plan);
    out.push_back(single("production.lockstep.ms_per_die", (now_s() - t0) * 1e3 / 4096.0,
                         "ms"));
    out.push_back(single("production.lockstep.rss_growth_mb",
                         status_mb("self", "VmHWM") - rss0, "MB"));

    const March big = lockstep_stages(pop, pop.size(), plan);
    out.push_back(single("production.lockstep.build_ms", big.build_ms, "ms"));
    out.push_back(single("circuit.batch_transient_ms", big.march_ms, "ms"));
    out.push_back(single("production.lockstep.evaluate_ms", big.evaluate_ms, "ms"));
    out.push_back(single("analysis.erc_lockstep_us", big.erc_us, "us"));
    out.push_back(single("circuit.batch_transient.steps", big.stats.steps, "count"));
    out.push_back(single("circuit.batch_transient.unknowns", big.stats.unknowns, "count"));
    out.push_back(single("circuit.batch_transient.pattern_nnz", big.stats.pattern_nnz, "count"));
    out.push_back(
        single("circuit.batch_transient.pivot_fallbacks", big.stats.pivot_fallbacks, "count"));
    // The exact-count check repeats a 256-lane march.
    const March a = lockstep_stages(pop, 256, plan);
    const March b = lockstep_stages(pop, 256, plan);
    counts.add("circuit.batch_transient.steps", a.stats.steps, b.stats.steps);
    counts.add("circuit.batch_transient.unknowns", a.stats.unknowns, b.stats.unknowns);
    counts.add("circuit.batch_transient.pattern_nnz", a.stats.pattern_nnz, b.stats.pattern_nnz);
    counts.add("circuit.batch_transient.pivot_fallbacks", a.stats.pivot_fallbacks,
               b.stats.pivot_fallbacks);
  }

  // TSRT circuits: scalar transient, per-fault test, detection, collapse, ERC.
  {
    ScopedSpan s("stage.tsrt");
    // Per circuit: op1 and sc differ several-fold, so report the mean of
    // the per-circuit medians rather than the median of a bimodal mix.
    std::vector<std::vector<double>> transient_ms(2), fault_ms(2), detect_us(2);
    std::vector<double> collapse_ms, erc_us;
    std::size_t ci = 0;
    double rescue[2] = {0.0, 0.0}, simulated[2] = {0.0, 0.0}, saved[2] = {0.0, 0.0};
    for (tsrt::CircuitKind kind :
         {tsrt::CircuitKind::kOp1Follower, tsrt::CircuitKind::kScIntegratorComparator}) {
      const tsrt::TsrtOptions opts = tsrt::paper_options(kind);
      for (int rep = 0; rep < 2; ++rep) {
        // The fault-free TSRT transient, stimulated as run_transient_test does.
        tsrt::ExampleCircuit c = tsrt::build_circuit(kind);
        const double dt = c.recommended_dt;
        dsp::Prbs prbs(opts.prbs_stages, opts.prbs_seed);
        const double lo = opts.center_on_mid_rail ? c.mid_rail - opts.amplitude / 2.0 : 0.0;
        const double hi = opts.center_on_mid_rail ? c.mid_rail + opts.amplitude / 2.0
                                                  : opts.amplitude;
        const double t_stop = opts.sim_time > 0
                                  ? opts.sim_time
                                  : static_cast<double>(prbs.period()) * opts.bit_time;
        const auto bits = static_cast<std::size_t>(std::ceil(t_stop / opts.bit_time)) + 1;
        c.input->set_waveform(std::make_shared<circuit::SampledWave>(
            dsp::bits_to_waveform(prbs.bits(bits),
                                  static_cast<std::size_t>(std::llround(opts.bit_time / dt)),
                                  lo, hi),
            dt));
        circuit::TransientOptions topts;
        topts.dt = dt;
        topts.t_stop = t_stop;
        topts.method = circuit::Integration::kBackwardEuler;
        ScopedSpan ts("stage.circuit.transient");
        const double t0 = now_s();
        const circuit::TransientResult res = circuit::transient(c.netlist, topts);
        transient_ms[ci].push_back((now_s() - t0) * 1e3);
        rescue[rep] += static_cast<double>(res.rescue().attempts.size());

        const double c0 = now_s();
        faults::CollapseOptions col;
        col.taps = {c.output_node};
        const faults::CollapsedUniverse cu =
            faults::collapse(universe_of(kind), c.netlist, c.node_map, col);
        collapse_ms.push_back((now_s() - c0) * 1e3);
        simulated[rep] += static_cast<double>(cu.map.simulated_count());
        saved[rep] += static_cast<double>(cu.map.solves_saved());
        for (double t : time_reps(10, [&] { (void)analysis::Runner::standard().run(c.netlist); })) {
          erc_us.push_back(t * 1e6);
        }
      }
      const tsrt::TsrtRun golden = tsrt::run_transient_test(kind, std::nullopt, opts);
      const std::vector<faults::FaultSpec> universe = universe_of(kind);
      for (std::size_t i = 0; i < std::min<std::size_t>(3, universe.size()); ++i) {
        ScopedSpan fs_span("stage.tsrt.fault");
        const double t0 = now_s();
        const tsrt::TsrtRun faulty = tsrt::run_transient_test(kind, universe[i], opts);
        fault_ms[ci].push_back((now_s() - t0) * 1e3);
        const double d0 = now_s();
        (void)tsrt::combined_detection_percent(golden, faulty);
        detect_us[ci].push_back((now_s() - d0) * 1e6);
      }
      ++ci;
    }
    counts.add("circuit.transient.rescue_attempts", rescue[0], rescue[1]);
    counts.add("faults.simulated_count", simulated[0], simulated[1]);
    counts.add("faults.solves_saved", saved[0], saved[1]);
    out.push_back(single("circuit.transient.rescue_attempts", rescue[0], "count"));
    out.push_back(single("faults.simulated_count", simulated[0], "count"));
    out.push_back(single("faults.solves_saved", saved[0], "count"));
    out.push_back({"circuit.transient_ms", mean_of_medians(transient_ms), "ms", 4, 0.0});
    out.push_back({"tsrt.fault_ms", mean_of_medians(fault_ms), "ms", 6, 0.0});
    out.push_back({"tsrt.detect_us", mean_of_medians(detect_us), "us", 6, 0.0});
    out.push_back(summarize("faults.collapse_ms", collapse_ms, "ms"));
    out.push_back(summarize("analysis.erc_us", erc_us, "us"));

    ScopedSpan cs("stage.faults.campaign");
    const CampaignSetup setup(tsrt::CircuitKind::kScIntegratorComparator);
    const faults::CampaignReport rep = setup.run(2);
    out.push_back(single("faults.parallel_efficiency",
                         rep.cpu_seconds / (2.0 * rep.wall_seconds), "ratio"));
  }
}

std::vector<Metric> run_traced(const Args& args, const Workload& w,
                               const std::vector<Reference>& refs, Tally& tally) {
  std::vector<Metric> out;
  const std::size_t reps = w.trace_reps;
  const std::size_t n = refs.size();
  std::vector<std::vector<double>> engine(n), dispatch(n), manager(n), journal(n), api(n),
      api_submit(n), api_result(n), http(n), http_untraced(n), queue_wait(n), to_json(n),
      parse(n);

  std::vector<std::unique_ptr<CampaignSetup>> campaigns(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (refs[i].request.kind == core::JobKind::kFaultCampaign) {
      campaigns[i] = std::make_unique<CampaignSetup>(circuit_kind(refs[i].request.circuit));
    }
  }
  service::JobManagerOptions jm_opts;
  jm_opts.workers = w.daemon_workers;
  service::JobManager plain(jm_opts);
  const fs::path journal_dir = state_dir(args, "trace-state");
  fs::remove_all(journal_dir);
  jm_opts.state_dir = journal_dir.string();
  auto journaled = std::make_unique<service::JobManager>(jm_opts);
  Daemon daemon(args.daemon, w.daemon_workers, state_dir(args, "state"),
                args.work_dir / "msbistd.log");
  service::HttpClient client(daemon.port());
  (void)run_http_job(client, refs[0].body);  // the daemon's cold first job
  std::uint64_t journal_bytes = 0;
  double journal_units = 0.0;
  std::uint64_t http_requests = 0;

  // Each repetition walks every layer in turn, so drift on a shared
  // machine lands on all layers alike instead of biasing their differences.
  g_trace.set_enabled(true);
  for (std::size_t k = 0; k < reps; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const Reference& ref = refs[i];
      const auto timed = [](std::vector<double>& dst, const char* span,
                            const std::function<void()>& fn) {
        ScopedSpan s(span);
        const double t0 = now_s();
        fn();
        dst.push_back(now_s() - t0);
      };
      // The engine entry point, then service::dispatch.
      timed(engine[i], "layer.engine", [&] {
        if (campaigns[i]) {
          (void)campaigns[i]->run(ref.request.threads);
        } else {
          run_engine(ref.request);
        }
      });
      timed(dispatch[i], "layer.dispatch", [&] { (void)service::dispatch(ref.request); });
      // JobManager without, then with, a journal.
      timed(manager[i], "layer.job_manager", [&] {
        const service::JobSnapshot snap = run_manager_job(plain, ref.request);
        queue_wait[i].push_back((snap.started_seconds - snap.queued_seconds) * 1e3);
      });
      const std::uint64_t w0 = written_bytes();
      timed(journal[i], "layer.job_manager_journal",
            [&] { (void)run_manager_job(*journaled, ref.request); });
      journal_bytes += written_bytes() - w0;
      journal_units += static_cast<double>(ref.units);
      // The API router in-process, on the journaled manager.
      timed(api[i], "layer.api", [&] {
        const ApiTimes t = run_api_job(*journaled, ref.body);
        api_submit[i].push_back(t.submit_s);
        api_result[i].push_back(t.result_s);
      });
      // HTTP to the daemon, untraced and traced: the tracing overhead.
      g_trace.set_enabled(false);
      JobRun run = run_http_job(client, ref.body);
      g_trace.set_enabled(true);
      tally.add(verify(run, ref));
      http_untraced[i].push_back(run.latency_s);
      const std::uint64_t req0 = client.requests();
      run = run_http_job(client, ref.body);
      http_requests += client.requests() - req0;
      tally.add(verify(run, ref));
      http[i].push_back(run.latency_s);
    }
  }
  journaled.reset();
  fs::remove_all(journal_dir);
  daemon.stop();

  // Serialization and parsing of the reference report.
  for (std::size_t i = 0; i < n; ++i) {
    const service::DispatchResult& res = refs[i].result;
    const std::size_t k = std::max<std::size_t>(3, reps / 10);
    to_json[i] = time_reps(k, [&] {
      ScopedSpan s("stage.core.to_json");
      if (res.batch) (void)core::to_json(*res.batch);
      if (res.campaign) (void)core::to_json(*res.campaign);
    });
    parse[i] = time_reps(k, [&] {
      ScopedSpan s("stage.core.parse_json");
      (void)core::parse_json(res.report_json);
    });
  }
  // Exact-count check on report bytes: a second dispatch of one request.
  const std::size_t report_bytes_a = refs[0].canonical.dump().size();
  const std::size_t report_bytes_b =
      strip_timing(core::parse_json(service::dispatch(refs[0].request).report_json))
          .dump()
          .size();

  const double ms = 1e3;
  const double t_engine = mean_of_medians(engine) * ms;
  const double t_dispatch = mean_of_medians(dispatch) * ms;
  const double t_manager = mean_of_medians(manager) * ms;
  const double t_journal = mean_of_medians(journal) * ms;
  const double t_api = mean_of_medians(api) * ms;
  const double t_http = mean_of_medians(http) * ms;
  const double t_http_off = mean_of_medians(http_untraced) * ms;
  const std::size_t samples = reps * n;
  out.push_back({"engine.job_ms", t_engine, "ms", samples, 0.0});
  out.push_back({"service.dispatch.self_ms", t_dispatch - t_engine, "ms", samples, 0.0});
  out.push_back({"service.job_manager.self_ms", t_manager - t_dispatch, "ms", samples, 0.0});
  std::vector<double> waits;
  for (const auto& v : queue_wait) waits.insert(waits.end(), v.begin(), v.end());
  out.push_back(summarize("service.job_manager.queue_wait_ms", waits, "ms"));
  out.push_back({"service.journal.self_ms", t_journal - t_manager, "ms", samples, 0.0});
  out.push_back(single("service.journal.bytes_per_unit",
                       static_cast<double>(journal_bytes) / journal_units, "bytes"));
  out.push_back({"service.api.self_ms", t_api - t_journal, "ms", samples, 0.0});
  out.push_back({"service.api.submit_ms", mean_of_medians(api_submit) * ms, "ms", samples, 0.0});
  out.push_back({"service.api.result_ms", mean_of_medians(api_result) * ms, "ms", samples, 0.0});
  out.push_back({"service.http.self_ms", t_http - t_api, "ms", samples, 0.0});
  out.push_back(single("service.http.requests_per_job",
                       static_cast<double>(http_requests) / static_cast<double>(samples),
                       "count"));
  out.push_back({"core.to_json_ms", mean_of_medians(to_json) * ms, "ms", samples, 0.0});
  out.push_back({"core.parse_json_ms", mean_of_medians(parse) * ms, "ms", samples, 0.0});
  out.push_back(single("core.report_bytes_per_unit",
                       static_cast<double>(report_bytes_a) / static_cast<double>(refs[0].units),
                       "bytes"));
  out.push_back(single("trace.overhead_pct", (t_http - t_http_off) / t_http_off * 100.0, "%"));

  CountCheck counts;
  counts.add("core.report_bytes_per_unit", static_cast<double>(report_bytes_a),
             static_cast<double>(report_bytes_b));
  stage_probe(refs[0].request.batch_seed, out, counts);

  // Count stability: each exact count was produced twice from one seed.
  std::size_t unstable = 0;
  for (const auto& [name, pair] : counts.pairs) {
    if (pair.first != pair.second) {
      ++unstable;
      std::printf("# NONDETERMINISM: count %s = %.17g then %.17g for one seed\n",
                  name.c_str(), pair.first, pair.second);
    }
  }
  std::printf("# count stability: %zu of %zu exact counts differ between two runs\n",
              unstable, counts.pairs.size());
  out.push_back(single("counts.nondeterministic", static_cast<double>(unstable), "count"));

  // Spans and the per-span self-time summary.
  const fs::path trace_file =
      args.work_dir / ("trace-" + w.name + "-seed" + std::to_string(args.seed) + ".jsonl");
  g_trace.write(trace_file);
  std::printf("# spans written to %s; self time by span:\n", trace_file.c_str());
  for (const auto& [name, st] : g_trace.self_times()) {
    std::printf("#   %-32s %10.3f ms self over %zu span(s)\n", name.c_str(),
                st.first * 1e3, st.second);
  }
  std::printf("# tracing overhead: http layer %.4f ms traced vs %.4f ms untraced\n",
              t_http, t_http_off);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Stop with the command that started us, taking the daemon along.
  for (int sig : {SIGTERM, SIGINT, SIGHUP}) signal(sig, on_stop_signal);
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fputs("usage: perfbench_harness --workload NAME --seed N --seconds S "
               "--trace 0|1 --daemon PATH [--work-dir DIR] [--commit SHA]\n",
               stderr);
    return 2;
  }
  const Args& args = *parsed;
  const std::optional<Workload> workload = make_workload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }
  try {
    fs::create_directories(args.work_dir);
    remove_stale_state(args.work_dir);
    const std::string load_start = loadavg();
    const double steal_start = steal_seconds();
    const double calibration = calibration_ms();

    std::vector<Reference> refs;
    const double r0 = now_s();
    for (const core::JobRequest& req : workload->requests) {
      refs.push_back(make_reference(*workload, req));
    }
    const double reference_s = now_s() - r0;

    Tally tally;
    const std::vector<Metric> metrics = args.trace
                                            ? run_traced(args, *workload, refs, tally)
                                            : run_end_to_end(args, *workload, refs, tally);

    core::JsonWriter env;
    env.begin_object()
        .member("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .member("loadavg_start", load_start)
        .member("loadavg_end", loadavg())
        .member("steal_s", steal_seconds() - steal_start)
        .member("build_type", MSBIST_BUILD_TYPE)
        .member("commit", args.commit)
        .member("workload", workload->name)
        .member("seed", args.seed)
        .member("seconds", args.seconds)
        .member("trace", args.trace)
        .member("daemon_boots", static_cast<std::uint64_t>(args.trace ? 1 : kBoots))
        .member("first_job_boots",
                static_cast<std::uint64_t>(args.trace ? 1 : workload->first_job_boots))
        .member("clients", static_cast<std::uint64_t>(workload->clients))
        .member("calibration_ms", calibration)
        .member("reference_s", reference_s)
        .end_object();
    std::printf("# environment %s\n", env.str().c_str());
    std::printf("# %s metrics (median, sample count, inter-quartile range):\n",
                args.trace ? "per-layer" : "end-to-end");
    for (const Metric& m : metrics) {
      if (!perfbench::valid_metric_name(m.name)) {
        throw std::logic_error("invalid metric name " + m.name);
      }
      print_metric(m);
    }
    const double failed_frac =
        static_cast<double>(tally.failed) / static_cast<double>(std::max<std::size_t>(1, tally.attempted));
    std::printf("# failed_frac = %.6g ratio (%zu of %zu jobs)%s%s\n", failed_frac,
                tally.failed, tally.attempted, tally.first_error.empty() ? "" : "; first: ",
                tally.first_error.c_str());

    core::JsonWriter w;
    w.begin_object()
        .member("correct", tally.failed == 0)
        .member("attempted", static_cast<std::uint64_t>(tally.attempted))
        .member("failed", static_cast<std::uint64_t>(tally.failed));
    w.key("metrics").begin_object();
    for (const Metric& m : metrics) {
      w.key(m.name).begin_object().member("value", m.value).member("unit", m.unit).end_object();
    }
    w.end_object().end_object();
    std::printf("%s\n", w.str().c_str());
    return tally.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
