// Loopback tests of the msbistd service stack: real sockets against an
// ephemeral-port HttpServer fronting a JobManager, exercising the whole
// submit -> poll -> result lifecycle, cancellation, structured errors,
// per-job thread caps, metrics consistency, keep-alive connection
// reuse, bounded admission (429 + Retry-After), priority dispatch with
// anti-starvation aging, and the acceptance contract that a lockstep
// batch over the wire is bit-identical to the direct library call.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/job.h"
#include "core/json_value.h"
#include "core/outcome.h"
#include "faults/campaign.h"
#include "production/batch.h"
#include "service/api.h"
#include "service/dispatch.h"
#include "service/http.h"
#include "service/job_manager.h"
#include "service/journal.h"

namespace {

using namespace msbist;
using core::JsonValue;
using core::parse_json;

/// One daemon-in-a-test: manager + listener on an ephemeral port, with
/// the same internal-response metrics wiring msbistd uses (so even
/// server-synthesized 400/413s land in manager.metrics()).
struct ServiceFixture {
  static service::HttpServer::Options http_options() {
    service::HttpServer::Options o;
    o.bind_address = "127.0.0.1";
    o.port = 0;
    o.io_threads = 2;
    return o;
  }

  static service::HttpServer::Options with_observer(
      service::HttpServer::Options o, service::JobManager& m) {
    o.observe_internal_response = service::make_internal_response_observer(m);
    return o;
  }

  explicit ServiceFixture(service::JobManagerOptions mopts = {},
                          service::HttpServer::Options hopts = http_options())
      : manager(mopts),
        server(with_observer(std::move(hopts), manager),
               service::make_api_handler(manager)) {}

  /// One-shot exchange on a fresh connection (Connection: close).
  service::HttpResponse request(const std::string& method,
                                const std::string& target,
                                const std::string& body = "") {
    service::HttpClient client(server.port());
    return client.request(method, target, body, /*close_connection=*/true);
  }

  /// Poll GET /jobs/{id} until the state is terminal (or 10 s elapse).
  JsonValue await_terminal(std::uint64_t id) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      const auto resp = request("GET", "/jobs/" + std::to_string(id));
      EXPECT_EQ(resp.status, 200);
      JsonValue doc = parse_json(resp.body);
      const std::string state = doc.find("state")->as_string();
      if (state != "queued" && state != "running") return doc;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "job " << id << " never reached a terminal state";
    return JsonValue();
  }

  std::uint64_t submit(const std::string& body, int expect_status = 202) {
    const auto resp = request("POST", "/jobs", body);
    EXPECT_EQ(resp.status, expect_status) << resp.body;
    const JsonValue doc = parse_json(resp.body);
    EXPECT_EQ(doc.find("kind")->as_string(), "job_accepted");
    return doc.find("id")->as_u64();
  }

  /// Poll GET /jobs/{id} until it reports `state` (10 s deadline).
  void await_state(std::uint64_t id, const std::string& state) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      const JsonValue doc =
          parse_json(request("GET", "/jobs/" + std::to_string(id)).body);
      if (doc.find("state")->as_string() == state) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ADD_FAILURE() << "job " << id << " never reached state " << state;
  }

  /// Submit a long serial full-spec batch and wait until it occupies a
  /// worker slot — the standard way these tests saturate a 1-worker
  /// manager so later submissions stay queued. Cancel it when done.
  std::uint64_t submit_blocker() {
    const std::uint64_t id = submit(
        R"({"kind":"batch","device_count":2000,"batch_seed":5,)"
        R"("full_spec":true,"threads":1,"label":"blocker"})");
    await_state(id, "running");
    return id;
  }

  service::JobManager manager;
  service::HttpServer server;
};

/// A fresh, empty state directory under the test temp root (leftover
/// segments from a previous run of the same test are removed).
std::string fresh_state_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/msbist_service_" + name;
  ::mkdir(dir.c_str(), 0777);
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string entry = e->d_name;
      if (entry == "." || entry == "..") continue;
      ::unlink((dir + "/" + entry).c_str());
    }
    ::closedir(d);
  }
  return dir;
}

/// Poll an in-process manager until job `id` is terminal (60 s deadline).
service::JobSnapshot await_job(const service::JobManager& manager,
                               std::uint64_t id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    const std::optional<service::JobSnapshot> snap = manager.get(id);
    if (!snap) {
      ADD_FAILURE() << "job " << id << " vanished";
      return {};
    }
    if (service::is_terminal(snap->state) ||
        std::chrono::steady_clock::now() > deadline) {
      return *snap;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Connect an existing socket to the loopback server and send `wire`
/// (neither step takes a new descriptor).
void connect_and_send(int fd, std::uint16_t port, const std::string& wire) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
}

/// Everything the server answers on `fd` until it closes the connection.
/// With recv_timeout_s > 0 a read that waits longer gives up, so a server
/// stuck waiting for bytes that never come yields what arrived so far.
std::string read_until_close(int fd, double recv_timeout_s) {
  if (recv_timeout_s > 0.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(recv_timeout_s);
    tv.tv_usec = static_cast<suseconds_t>(
        (recv_timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

/// Send raw bytes to the server on a fresh socket and collect everything
/// it answers until it closes the connection (read_until_close) — for
/// abuse cases no well-formed client can produce (unparseable request
/// lines, oversized bodies).
std::string raw_exchange(std::uint16_t port, const std::string& wire,
                         double recv_timeout_s = 0.0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  connect_and_send(fd, port, wire);
  const std::string out = read_until_close(fd, recv_timeout_s);
  ::close(fd);
  return out;
}

TEST(Service, SubmitPollResultHappyPath) {
  ServiceFixture fx;
  const std::uint64_t id = fx.submit(
      R"({"kind":"batch","device_count":3,"batch_seed":7,)"
      R"("tiers":["digital"],"threads":1,"label":"happy"})");

  const JsonValue status = fx.await_terminal(id);
  EXPECT_EQ(status.find("kind")->as_string(), "job_status");
  EXPECT_EQ(status.find("schema_version")->as_u64(), core::kSchemaVersion);
  EXPECT_EQ(status.find("state")->as_string(), "succeeded");
  EXPECT_EQ(status.find("request")->find("label")->as_string(), "happy");
  EXPECT_EQ(status.find("progress")->find("done")->as_u64(), 3u);
  EXPECT_EQ(status.find("progress")->find("total")->as_u64(), 3u);

  const auto result = fx.request("GET", "/jobs/" + std::to_string(id) + "/result");
  ASSERT_EQ(result.status, 200) << result.body;
  const JsonValue doc = parse_json(result.body);
  EXPECT_EQ(doc.find("kind")->as_string(), "job_result");
  EXPECT_EQ(doc.find("report_kind")->as_string(), "batch_report");
  const JsonValue* report = doc.find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->find("kind")->as_string(), "batch_report");
  EXPECT_EQ(report->find("schema_version")->as_u64(), core::kSchemaVersion);
  EXPECT_EQ(report->find("device_count")->as_u64(), 3u);
  EXPECT_EQ(report->find("devices")->items().size(), 3u);
}

TEST(Service, ResultBeforeTerminalIs409) {
  ServiceFixture fx;
  const std::uint64_t id = fx.submit(
      R"({"kind":"batch","device_count":200,"batch_seed":3,)"
      R"("full_spec":true,"threads":1})");
  // Immediately asking for the result races the job, but a 200 is only
  // possible if it already finished; otherwise the contract is 409.
  const auto early = fx.request("GET", "/jobs/" + std::to_string(id) + "/result");
  if (early.status != 200) {
    EXPECT_EQ(early.status, 409);
    const JsonValue doc = parse_json(early.body);
    EXPECT_EQ(doc.find("kind")->as_string(), "error");
    EXPECT_EQ(doc.find("failure")->find("code")->as_string(), "bad_input");
  }
  fx.request("POST", "/jobs/" + std::to_string(id) + "/cancel");
  fx.await_terminal(id);
}

TEST(Service, CancellationMidJob) {
  ServiceFixture fx;
  // A long serial batch: 400 dies under the full-spec plan. Cancel as
  // soon as progress shows the engine is inside the lot.
  const std::uint64_t id = fx.submit(
      R"({"kind":"batch","device_count":400,"batch_seed":11,)"
      R"("full_spec":true,"threads":1})");

  bool saw_progress = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const JsonValue doc =
        parse_json(fx.request("GET", "/jobs/" + std::to_string(id)).body);
    const std::string state = doc.find("state")->as_string();
    if (state == "running" && doc.find("progress")->find("done")->as_u64() > 0) {
      saw_progress = true;
      break;
    }
    if (state != "queued" && state != "running") break;  // finished already
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  const auto cancel =
      fx.request("POST", "/jobs/" + std::to_string(id) + "/cancel");
  const JsonValue done = fx.await_terminal(id);
  if (saw_progress && cancel.status == 200) {
    EXPECT_EQ(done.find("state")->as_string(), "cancelled");
    // A cancelled job serves no report.
    const auto result =
        fx.request("GET", "/jobs/" + std::to_string(id) + "/result");
    EXPECT_EQ(result.status, 200);
    const JsonValue rdoc = parse_json(result.body);
    EXPECT_EQ(rdoc.find("state")->as_string(), "cancelled");
    EXPECT_EQ(rdoc.find("report"), nullptr);
    // Cancelling again is a 409: the job is already terminal.
    EXPECT_EQ(
        fx.request("POST", "/jobs/" + std::to_string(id) + "/cancel").status,
        409);
  }
}

TEST(Service, MalformedRequestsAre400WithStructuredFailure) {
  ServiceFixture fx;

  const auto expect_bad = [&fx](const std::string& body) {
    const auto resp = fx.request("POST", "/jobs", body);
    EXPECT_EQ(resp.status, 400) << body << " -> " << resp.body;
    const JsonValue doc = parse_json(resp.body);
    EXPECT_EQ(doc.find("kind")->as_string(), "error") << body;
    const JsonValue* failure = doc.find("failure");
    ASSERT_NE(failure, nullptr) << body;
    EXPECT_EQ(failure->find("code")->as_string(), "bad_input") << body;
    EXPECT_FALSE(failure->find("detail")->as_string().empty()) << body;
  };

  expect_bad("{not json");
  expect_bad(R"({"kind":"warp_drive"})");
  expect_bad(R"({"kind":"batch","bogus_field":1})");
  expect_bad(R"({"kind":"batch","tiers":["analog","nope"]})");
  expect_bad(R"({"kind":"batch","population":"never-registered"})");

  // Unknown routes and ids are structured too.
  EXPECT_EQ(fx.request("GET", "/jobs/999").status, 404);
  EXPECT_EQ(fx.request("GET", "/nope").status, 404);
  EXPECT_EQ(fx.request("PUT", "/jobs").status, 405);
}

TEST(Service, ConcurrentJobsWithDistinctThreadCaps) {
  service::JobManagerOptions two_workers;
  two_workers.workers = 2;
  ServiceFixture fx(two_workers);
  // Both jobs ask for four engine threads but carry different per-job
  // caps; the engine must fan out no wider than each job's own limit.
  const std::uint64_t one = fx.submit(
      R"({"kind":"batch","device_count":8,"batch_seed":21,"threads":4,)"
      R"("tiers":["digital"],"limits":{"max_threads":1}})");
  const std::uint64_t two = fx.submit(
      R"({"kind":"batch","device_count":8,"batch_seed":22,"threads":4,)"
      R"("tiers":["digital"],"limits":{"max_threads":2}})");

  const JsonValue s1 = fx.await_terminal(one);
  const JsonValue s2 = fx.await_terminal(two);
  EXPECT_EQ(s1.find("state")->as_string(), "succeeded");
  EXPECT_EQ(s2.find("state")->as_string(), "succeeded");

  const JsonValue r1 = parse_json(
      fx.request("GET", "/jobs/" + std::to_string(one) + "/result").body);
  const JsonValue r2 = parse_json(
      fx.request("GET", "/jobs/" + std::to_string(two) + "/result").body);
  EXPECT_EQ(r1.find("report")->find("threads_used")->as_u64(), 1u);
  EXPECT_EQ(r2.find("report")->find("threads_used")->as_u64(), 2u);
  // Same lot geometry, different seeds: both full reports.
  EXPECT_EQ(r1.find("report")->find("device_count")->as_u64(), 8u);
  EXPECT_EQ(r2.find("report")->find("device_count")->as_u64(), 8u);
}

TEST(Service, WallTimeoutYieldsTimedOutWithTimeoutFailure) {
  ServiceFixture fx;
  const std::uint64_t id = fx.submit(
      R"({"kind":"batch","device_count":2000,"batch_seed":5,"threads":1,)"
      R"("full_spec":true,"limits":{"wall_timeout_s":0.05}})");
  const JsonValue done = fx.await_terminal(id);
  EXPECT_EQ(done.find("state")->as_string(), "timed_out");
  EXPECT_EQ(done.find("failure")->find("code")->as_string(), "timeout");
}

TEST(Service, MetricsCountersAreConsistent) {
  ServiceFixture fx;
  const std::uint64_t ok = fx.submit(
      R"({"kind":"batch","device_count":2,"batch_seed":1,)"
      R"("tiers":["digital"],"threads":1})");
  fx.await_terminal(ok);
  fx.request("POST", "/jobs", "{broken");  // one 400
  fx.request("GET", "/jobs/424242");       // one 404

  // The job-side counters are bumped by the worker thread shortly after
  // the status flips to terminal; poll the scrape until they land.
  JsonValue m;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto resp = fx.request("GET", "/metrics");
    ASSERT_EQ(resp.status, 200);
    m = parse_json(resp.body);
    if (m.find("counters")->find("jobs_succeeded")->as_u64() == 1 &&
        m.find("histograms")->find("job_seconds")->find("count")->as_u64() ==
            1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  EXPECT_EQ(m.find("kind")->as_string(), "service_metrics");
  const JsonValue* counters = m.find("counters");
  ASSERT_NE(counters, nullptr);
  const auto counter = [counters](const char* name) {
    return counters->find(name)->as_u64();
  };
  EXPECT_EQ(counter("jobs_submitted"), 1u);
  EXPECT_EQ(counter("jobs_succeeded"), 1u);
  EXPECT_EQ(counter("jobs_failed"), 0u);
  EXPECT_EQ(counter("jobs_cancelled"), 0u);
  EXPECT_GE(counter("http_responses_4xx"), 2u);
  EXPECT_GE(counter("http_responses_2xx"), 2u);  // submit + polls + scrapes
  // Every request is counted on entry, its response class on exit. The
  // scrape that produced this snapshot is the single in-flight request:
  // counted in the total, not yet in any response class.
  EXPECT_EQ(counter("http_requests_total"),
            counter("http_responses_2xx") + counter("http_responses_4xx") +
                counter("http_responses_5xx") + 1);

  const JsonValue* hist = m.find("histograms")->find("request_seconds");
  ASSERT_NE(hist, nullptr);
  // Same in-flight accounting for the latency histogram.
  EXPECT_EQ(hist->find("count")->as_u64() + 1,
            counter("http_requests_total"));
  EXPECT_EQ(m.find("histograms")->find("job_seconds")->find("count")->as_u64(),
            1u);
  EXPECT_EQ(m.find("gauges")->find("jobs_running")->as_u64(), 0u);

  // Retention: the one job's request and report, inside the default
  // budget. No journal here, so no journal traffic.
  const JsonValue* gauges = m.find("gauges");
  EXPECT_EQ(gauges->find("retain_budget_bytes")->as_u64(), 32u << 20);
  EXPECT_GT(gauges->find("retained_bytes")->as_u64(), 0u);
  EXPECT_LE(gauges->find("retained_bytes")->as_u64(), 32u << 20);
  EXPECT_EQ(counter("journal_fsyncs"), 0u);
  EXPECT_EQ(counter("journal_compactions"), 0u);

  // With a journal: a 4096-die lockstep job journals one record per
  // 32-die block, so at --fsync-every 8 it syncs 16 times for its 128
  // checkpoints, plus once each at boot, admission and result.
  service::JobManagerOptions durable;
  durable.state_dir = fresh_state_dir("metrics_fsyncs");
  durable.journal_fsync_every = 8;
  ServiceFixture journaled(durable);
  const std::uint64_t screen = journaled.submit(
      R"({"kind":"lockstep_batch","device_count":4096,"batch_seed":9,"threads":2})");
  // (Polled in-process: under TSan the lot outlasts await_terminal's 10 s.)
  EXPECT_EQ(await_job(journaled.manager, screen).state,
            service::JobState::kSucceeded);
  const JsonValue journal_metrics =
      parse_json(journaled.request("GET", "/metrics").body);
  const JsonValue* journal_counters = journal_metrics.find("counters");
  EXPECT_GT(journal_counters->find("journal_fsyncs")->as_u64(), 0u);
  EXPECT_LE(journal_counters->find("journal_fsyncs")->as_u64(), 20u);
}

TEST(Service, PopulationRegistryOverTheWire) {
  ServiceFixture fx;
  const auto created = fx.request(
      "POST", "/populations",
      R"({"name":"lot-a","device_count":4,"batch_seed":99})");
  EXPECT_EQ(created.status, 201) << created.body;

  const JsonValue listed =
      parse_json(fx.request("GET", "/populations").body);
  ASSERT_EQ(listed.find("populations")->items().size(), 1u);
  EXPECT_EQ(listed.find("populations")->items()[0].find("name")->as_string(),
            "lot-a");
  EXPECT_EQ(
      listed.find("populations")->items()[0].find("device_count")->as_u64(),
      4u);

  const std::uint64_t id = fx.submit(
      R"({"kind":"lockstep_batch","population":"lot-a"})");
  const JsonValue done = fx.await_terminal(id);
  EXPECT_EQ(done.find("state")->as_string(), "succeeded");
  const JsonValue result = parse_json(
      fx.request("GET", "/jobs/" + std::to_string(id) + "/result").body);
  EXPECT_EQ(result.find("report")->find("device_count")->as_u64(), 4u);

  EXPECT_EQ(fx.request("POST", "/populations", R"({"name":""})").status, 400);
}

/// Strip the nondeterministic timing fields (wall clock, CPU seconds,
/// throughput, per-die or per-fault elapsed time) so two reports from
/// different runs compare bit-identical on everything the engines
/// guarantee deterministic.
JsonValue strip_timing(JsonValue report) {
  report.erase("wall_seconds");
  report.erase("cpu_seconds");
  report.erase("devices_per_second");
  for (const char* units : {"devices", "results"}) {
    if (const JsonValue* items = report.find(units)) {
      JsonValue cleaned = JsonValue::array();
      for (JsonValue d : items->items()) {
        d.erase("elapsed_seconds");
        cleaned.push_back(std::move(d));
      }
      report.set(units, std::move(cleaned));
    }
  }
  return report;
}

// The PR's acceptance contract: a 32-die lockstep batch submitted
// through POST /jobs returns a BatchReport payload bit-identical to
// production::run_batch_lockstep invoked directly with the same seed
// and plan.
TEST(Service, LockstepBatchOverWireMatchesDirectCall) {
  constexpr std::size_t kDies = 32;
  constexpr std::uint64_t kSeed = 424242;

  ServiceFixture fx;
  const std::uint64_t id = fx.submit(
      R"({"kind":"lockstep_batch","device_count":32,"batch_seed":424242})");
  const JsonValue done = fx.await_terminal(id);
  ASSERT_EQ(done.find("state")->as_string(), "succeeded");
  const JsonValue wire = parse_json(
      fx.request("GET", "/jobs/" + std::to_string(id) + "/result").body);

  const production::BatchReport direct = production::run_batch_lockstep(
      service::lockstep_screen_population(kDies, kSeed),
      service::lockstep_screen_plan());

  const JsonValue wire_report = strip_timing(*wire.find("report"));
  const JsonValue direct_report =
      strip_timing(parse_json(core::to_json(direct)));
  EXPECT_EQ(wire_report.dump(), direct_report.dump());
  EXPECT_EQ(wire_report, direct_report);
  EXPECT_EQ(wire_report.find("device_count")->as_u64(), kDies);
}

// A population takes every seed a lockstep job takes: any exact integer
// from 0 to 2^64-1, read unsigned.
TEST(Service, PopulationTakesEverySeedAJobTakes) {
  ServiceFixture fx;
  const auto created = fx.request(
      "POST", "/populations",
      R"({"name":"top","device_count":4,"batch_seed":18446744073709551615})");
  ASSERT_EQ(created.status, 201) << created.body;
  EXPECT_EQ(parse_json(created.body).find("batch_seed")->as_u64(),
            18446744073709551615u);

  const std::uint64_t on_population =
      fx.submit(R"({"kind":"lockstep_batch","population":"top"})");
  const std::uint64_t direct = fx.submit(
      R"({"kind":"lockstep_batch","device_count":4,)"
      R"("batch_seed":18446744073709551615})");
  const auto report = [&fx](std::uint64_t id) {
    EXPECT_EQ(fx.await_terminal(id).find("state")->as_string(), "succeeded");
    const JsonValue result = parse_json(
        fx.request("GET", "/jobs/" + std::to_string(id) + "/result").body);
    return strip_timing(*result.find("report")).dump();
  };
  EXPECT_EQ(report(on_population), report(direct));

  EXPECT_EQ(fx.request("POST", "/populations",
                       R"({"name":"neg","device_count":4,"batch_seed":-1})")
                .status,
            400);
}

// One upper bound on device_count for both endpoints, checked before
// anything is allocated: past it, the answer is 400 bad_input, not a
// 500 from an integer conversion nor a 202 for a lot whose whole
// population the engines would allocate before its first die.
TEST(Service, PopulationDeviceCountPastInt64Is400) {
  ServiceFixture fx;
  const auto resp = fx.request("POST", "/populations",
                               R"({"name":"a","device_count":9223372036854775808})");
  ASSERT_EQ(resp.status, 400) << resp.body;
  EXPECT_EQ(parse_json(resp.body).find("failure")->find("code")->as_string(),
            "bad_input");
  EXPECT_TRUE(fx.manager.populations().empty());
}

TEST(Service, JobDeviceCountPastTheBoundIs400) {
  ServiceFixture fx;
  const auto resp =
      fx.request("POST", "/jobs",
                 R"({"kind":"lockstep_batch","device_count":)" +
                     std::to_string(core::kMaxDeviceCount + 1) + "}");
  ASSERT_EQ(resp.status, 400) << resp.body;
  EXPECT_EQ(parse_json(resp.body).find("failure")->find("code")->as_string(),
            "bad_input");
  EXPECT_TRUE(fx.manager.list().empty());
}

TEST(Service, DrainRejectsNewSubmissionsWith503) {
  ServiceFixture fx;
  fx.manager.drain(/*hard=*/true);
  const auto resp = fx.request(
      "POST", "/jobs", R"({"kind":"batch","device_count":1,"threads":1})");
  EXPECT_EQ(resp.status, 503);
  const JsonValue health = parse_json(fx.request("GET", "/healthz").body);
  EXPECT_TRUE(health.find("draining")->as_bool());
}

TEST(Service, KeepsAcceptingAfterDescriptorExhaustion) {
  auto hopts = ServiceFixture::http_options();
  hopts.io_threads = 1;
  ServiceFixture fx({}, hopts);
  // Once this exchange has closed, the one worker waits in accept().
  ASSERT_EQ(fx.request("GET", "/healthz").status, 200);

  const std::string wire = "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
  // Sockets made before the squeeze: connecting one takes no descriptor.
  const int first = ::socket(AF_INET, SOCK_STREAM, 0);
  const int second = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(first, 0);
  ASSERT_GE(second, 0);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  {
    struct RestoreLimit {
      rlimit limit;
      ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &limit); }
    } restore{saved};
    rlimit squeezed = saved;
    squeezed.rlim_cur = 0;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &squeezed), 0);
    // An accept() already blocked holds its descriptor, so the first
    // connection may still be served; every accept() after it fails
    // with EMFILE while the second connection waits in the backlog.
    connect_and_send(first, fx.server.port(), wire);
    read_until_close(first, 1.0);
    connect_and_send(second, fx.server.port(), wire);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // With the limit restored, the pending connection and a new one are
  // both answered.
  EXPECT_EQ(read_until_close(second, 2.0).rfind("HTTP/1.1 200", 0), 0u);
  ::close(first);
  ::close(second);
  service::HttpClient fresh(fx.server.port(), /*io_timeout_s=*/2.0);
  EXPECT_EQ(fresh.request("GET", "/healthz").status, 200);
}

// ---------------------------------------------------------------------
// Keep-alive connection lifecycle.

TEST(KeepAlive, TwoRequestsOneSocket) {
  ServiceFixture fx;
  service::HttpClient client(fx.server.port());
  const auto first = client.request("GET", "/healthz");
  const auto second = client.request("GET", "/healthz");
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(second.status, 200);
  // One TCP connect served both requests.
  EXPECT_EQ(client.connects(), 1u);
  EXPECT_EQ(client.requests(), 2u);
  EXPECT_EQ(first.headers.at("connection"), "keep-alive");

  // The server saw the reuse too: this scrape rides a fresh connection,
  // so http_connections >= 2 but exactly one connection was ever reused.
  const JsonValue m = parse_json(fx.request("GET", "/metrics").body);
  const JsonValue* counters = m.find("counters");
  EXPECT_GE(counters->find("http_connections")->as_u64(), 2u);
  EXPECT_EQ(counters->find("reused_connections")->as_u64(), 1u);
  EXPECT_EQ(counters->find("keepalive_requests")->as_u64(), 1u);
}

TEST(KeepAlive, ConnectionCloseIsHonored) {
  ServiceFixture fx;
  service::HttpClient client(fx.server.port());
  const auto first =
      client.request("GET", "/healthz", "", /*close_connection=*/true);
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.headers.at("connection"), "close");
  const auto second = client.request("GET", "/healthz");
  EXPECT_EQ(second.status, 200);
  // Connection: close forced a reconnect for the second request.
  EXPECT_EQ(client.connects(), 2u);
}

TEST(KeepAlive, MaxRequestsPerConnectionCaps) {
  auto hopts = ServiceFixture::http_options();
  hopts.max_requests_per_connection = 2;
  ServiceFixture fx({}, hopts);
  service::HttpClient client(fx.server.port());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(client.request("GET", "/healthz").status, 200);
  }
  // The server closes every connection after its second request, so six
  // requests need exactly three connects.
  EXPECT_EQ(client.connects(), 3u);
}

TEST(KeepAlive, ContentLengthIsReadFromItsOwnHeader) {
  ServiceFixture fx;
  // "content-length:" elsewhere in the head — inside another header's
  // name, or in the request target — announces no body: each request is
  // answered at once instead of waiting for 64 bytes that never come.
  for (const std::string& head :
       {std::string("GET /healthz HTTP/1.1\r\nX-Upstream-Content-Length: 64"
                    "\r\nConnection: close\r\n\r\n"),
        std::string("GET /healthz?content-length:64 HTTP/1.1\r\n"
                    "Connection: close\r\n\r\n")}) {
    const std::string raw = raw_exchange(fx.server.port(), head, 2.0);
    EXPECT_EQ(raw.rfind("HTTP/1.1 200", 0), 0u) << head;
  }
  // A length that is not plain decimal digits is a bad request.
  const std::string raw = raw_exchange(
      fx.server.port(),
      "POST /jobs HTTP/1.1\r\nContent-Length: 12ab\r\n\r\n{}", 2.0);
  EXPECT_EQ(raw.rfind("HTTP/1.1 400", 0), 0u) << raw;
}

TEST(KeepAlive, InternalBadRequestIsCountedInMetrics) {
  ServiceFixture fx;
  // An unparseable request line never reaches the API handler: the
  // server synthesizes the 400 itself. The observe_internal_response
  // wiring must count it all the same.
  const std::string raw =
      raw_exchange(fx.server.port(), "THIS IS NOT HTTP\r\n\r\n");
  EXPECT_NE(raw.find("400"), std::string::npos);
  // The server's own error bodies carry the envelope every routed error
  // carries: kind, schema_version and a structured failure.
  const auto expect_error_envelope = [](const std::string& response,
                                        int status) {
    EXPECT_EQ(response.rfind("HTTP/1.1 " + std::to_string(status), 0), 0u)
        << response;
    const std::size_t body = response.find("\r\n\r\n");
    ASSERT_NE(body, std::string::npos) << response;
    const JsonValue doc = parse_json(response.substr(body + 4));
    ASSERT_NE(doc.find("kind"), nullptr);
    EXPECT_EQ(doc.find("kind")->as_string(), "error");
    ASSERT_NE(doc.find("schema_version"), nullptr) << response;
    EXPECT_EQ(doc.find("schema_version")->as_u64(), core::kSchemaVersion);
    ASSERT_NE(doc.find("failure"), nullptr);
    EXPECT_EQ(doc.find("failure")->find("code")->as_string(), "bad_input");
  };
  expect_error_envelope(raw, 400);
  // A body over max_body is refused before it is read, in the same shape.
  const std::string oversized = raw_exchange(
      fx.server.port(),
      "POST /jobs HTTP/1.1\r\nContent-Length: " +
          std::to_string(ServiceFixture::http_options().max_body + 1) +
          "\r\n\r\n");
  expect_error_envelope(oversized, 413);

  const JsonValue m = parse_json(fx.request("GET", "/metrics").body);
  const JsonValue* counters = m.find("counters");
  EXPECT_GE(counters->find("http_responses_4xx")->as_u64(), 1u);
  // The request-accounting invariant survives server-internal errors:
  // total == classes + the one in-flight scrape.
  EXPECT_EQ(counters->find("http_requests_total")->as_u64(),
            counters->find("http_responses_2xx")->as_u64() +
                counters->find("http_responses_4xx")->as_u64() +
                counters->find("http_responses_5xx")->as_u64() + 1);
  // And the latency histogram observed the internal 400 too.
  EXPECT_EQ(m.find("histograms")
                    ->find("request_seconds")
                    ->find("count")
                    ->as_u64() +
                1,
            counters->find("http_requests_total")->as_u64());
}

// ---------------------------------------------------------------------
// Bounded admission, priority dispatch, fairness accounting.

TEST(Admission, QueueFullYields429WithRetryAfter) {
  service::JobManagerOptions mopts;
  mopts.workers = 1;
  mopts.max_queue_depth = 1;
  mopts.retry_after_s = 7.0;
  ServiceFixture fx(mopts);

  const std::uint64_t blocker = fx.submit_blocker();
  // The single worker is busy; this one fills the whole queue...
  const std::uint64_t queued = fx.submit(
      R"({"kind":"batch","device_count":1,"tiers":["digital"],"threads":1})");
  EXPECT_EQ(fx.manager.queue_depth(), 1u);

  // ...so the next submission must bounce with a structured 429.
  const auto resp = fx.request(
      "POST", "/jobs",
      R"({"kind":"batch","device_count":1,"tiers":["digital"],"threads":1})");
  EXPECT_EQ(resp.status, 429) << resp.body;
  EXPECT_EQ(resp.headers.at("retry-after"), "7");
  const JsonValue doc = parse_json(resp.body);
  EXPECT_EQ(doc.find("kind")->as_string(), "error");
  EXPECT_EQ(doc.find("failure")->find("code")->as_string(), "overloaded");
  EXPECT_NE(doc.find("failure")->find("detail")->as_string().find("queue"),
            std::string::npos);

  const JsonValue m = parse_json(fx.request("GET", "/metrics").body);
  EXPECT_EQ(m.find("counters")->find("rejected_overload")->as_u64(), 1u);
  EXPECT_EQ(m.find("gauges")->find("queue_depth")->as_u64(), 1u);

  fx.request("POST", "/jobs/" + std::to_string(blocker) + "/cancel");
  fx.await_terminal(blocker);
  fx.await_terminal(queued);
}

TEST(Admission, PriorityOrderingUnderSaturation) {
  service::JobManagerOptions mopts;
  mopts.workers = 1;
  mopts.aging_seconds = 1000.0;  // isolate pure priority ordering
  ServiceFixture fx(mopts);

  const std::uint64_t blocker = fx.submit_blocker();
  const std::uint64_t low = fx.submit(
      R"({"kind":"batch","device_count":1,"tiers":["digital"],"threads":1,)"
      R"("priority":"low"})");
  const std::uint64_t high = fx.submit(
      R"({"kind":"batch","device_count":1,"tiers":["digital"],"threads":1,)"
      R"("priority":"high"})");
  const std::uint64_t normal = fx.submit(
      R"({"kind":"batch","device_count":1,"tiers":["digital"],"threads":1})");

  fx.request("POST", "/jobs/" + std::to_string(blocker) + "/cancel");
  fx.await_terminal(blocker);
  const JsonValue done_low = fx.await_terminal(low);
  const JsonValue done_high = fx.await_terminal(high);
  const JsonValue done_normal = fx.await_terminal(normal);

  // One worker drains the queue strictly by priority: high before
  // normal before low, regardless of submission order.
  const auto started = [](const JsonValue& doc) {
    return doc.find("times")->find("started_seconds")->as_double();
  };
  EXPECT_LT(started(done_high), started(done_normal));
  EXPECT_LT(started(done_normal), started(done_low));
}

TEST(Admission, AgingPromotesStarvedLowPriority) {
  service::JobManagerOptions mopts;
  mopts.workers = 1;
  mopts.aging_seconds = 0.05;
  ServiceFixture fx(mopts);

  const std::uint64_t blocker = fx.submit_blocker();
  const std::uint64_t low = fx.submit(
      R"({"kind":"batch","device_count":1,"tiers":["digital"],"threads":1,)"
      R"("priority":"low"})");
  // Let the low job age past 2 * aging_seconds: effective priority is
  // now high, so a just-submitted normal job must not overtake it.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::uint64_t normal = fx.submit(
      R"({"kind":"batch","device_count":1,"tiers":["digital"],"threads":1})");

  fx.request("POST", "/jobs/" + std::to_string(blocker) + "/cancel");
  fx.await_terminal(blocker);
  const JsonValue done_low = fx.await_terminal(low);
  const JsonValue done_normal = fx.await_terminal(normal);
  EXPECT_LT(done_low.find("times")->find("started_seconds")->as_double(),
            done_normal.find("times")->find("started_seconds")->as_double());
}

TEST(Admission, CancelStillQueuedJob) {
  service::JobManagerOptions mopts;
  mopts.workers = 1;
  ServiceFixture fx(mopts);

  const std::uint64_t blocker = fx.submit_blocker();
  const std::uint64_t queued = fx.submit(
      R"({"kind":"batch","device_count":1,"tiers":["digital"],"threads":1})");
  EXPECT_EQ(fx.manager.queue_depth(), 1u);

  // Cancelling a queued job is immediate: no slot ever ran it.
  EXPECT_EQ(
      fx.request("POST", "/jobs/" + std::to_string(queued) + "/cancel").status,
      200);
  const JsonValue doc =
      parse_json(fx.request("GET", "/jobs/" + std::to_string(queued)).body);
  EXPECT_EQ(doc.find("state")->as_string(), "cancelled");
  EXPECT_EQ(doc.find("times")->find("started_seconds"), nullptr);
  EXPECT_EQ(fx.manager.queue_depth(), 0u);

  fx.request("POST", "/jobs/" + std::to_string(blocker) + "/cancel");
  fx.await_terminal(blocker);
}

TEST(Admission, PerTagQueueShareAndAccounting) {
  service::JobManagerOptions mopts;
  mopts.workers = 1;
  mopts.max_queued_per_tag = 1;
  ServiceFixture fx(mopts);

  const std::uint64_t blocker = fx.submit_blocker();
  const std::uint64_t alice1 = fx.submit(
      R"({"kind":"batch","device_count":1,"tiers":["digital"],"threads":1,)"
      R"("client_tag":"alice"})");
  // alice already holds her full queue share; bob still fits.
  const auto rejected = fx.request(
      "POST", "/jobs",
      R"({"kind":"batch","device_count":1,"tiers":["digital"],"threads":1,)"
      R"("client_tag":"alice"})");
  EXPECT_EQ(rejected.status, 429) << rejected.body;
  EXPECT_NE(parse_json(rejected.body)
                .find("failure")
                ->find("detail")
                ->as_string()
                .find("alice"),
            std::string::npos);
  const std::uint64_t bob = fx.submit(
      R"({"kind":"batch","device_count":1,"tiers":["digital"],"threads":1,)"
      R"("client_tag":"bob"})");

  fx.request("POST", "/jobs/" + std::to_string(blocker) + "/cancel");
  fx.await_terminal(blocker);
  fx.await_terminal(alice1);
  fx.await_terminal(bob);

  const JsonValue m = parse_json(fx.request("GET", "/metrics").body);
  const JsonValue* clients = m.find("clients");
  ASSERT_NE(clients, nullptr);
  const JsonValue* alice = clients->find("alice");
  ASSERT_NE(alice, nullptr);
  EXPECT_EQ(alice->find("submitted")->as_u64(), 1u);
  EXPECT_EQ(alice->find("rejected")->as_u64(), 1u);
  EXPECT_EQ(alice->find("completed")->as_u64(), 1u);
  const JsonValue* bob_row = clients->find("bob");
  ASSERT_NE(bob_row, nullptr);
  EXPECT_EQ(bob_row->find("submitted")->as_u64(), 1u);
  EXPECT_EQ(bob_row->find("rejected")->as_u64(), 0u);
}

// --- Durability: idempotent submits, journal recovery over the wire ---

service::JobManagerOptions durable_options(const std::string& state_dir) {
  service::JobManagerOptions o;
  o.state_dir = state_dir;
  o.journal_fsync_every = 1;
  return o;
}

TEST(Durability, IdempotencyKeyDeduplicatesResubmits) {
  ServiceFixture fx;
  const std::string body =
      R"({"kind":"batch","device_count":2,"batch_seed":3,"tiers":["digital"],)"
      R"("threads":1,"idempotency_key":"lot-42-submit"})";
  const auto first = fx.request("POST", "/jobs", body);
  ASSERT_EQ(first.status, 202) << first.body;
  const std::uint64_t id = parse_json(first.body).find("id")->as_u64();

  // A client retry of the same submission (lost 202, crashed script)
  // answers 200 with the existing job instead of admitting a duplicate.
  const auto retry = fx.request("POST", "/jobs", body);
  EXPECT_EQ(retry.status, 200) << retry.body;
  const JsonValue doc = parse_json(retry.body);
  EXPECT_EQ(doc.find("id")->as_u64(), id);
  EXPECT_TRUE(doc.find("deduplicated")->as_bool());
  EXPECT_EQ(doc.find("state"), nullptr);

  // Still deduplicated after the job finishes — the key maps to the
  // retained job for as long as the job itself is queryable.
  fx.await_terminal(id);
  const auto late = fx.request("POST", "/jobs", body);
  EXPECT_EQ(late.status, 200) << late.body;
  EXPECT_EQ(parse_json(late.body).find("id")->as_u64(), id);

  // A different key is a different job.
  const std::uint64_t other = fx.submit(
      R"({"kind":"batch","device_count":2,"batch_seed":3,"tiers":["digital"],)"
      R"("threads":1,"idempotency_key":"lot-43-submit"})");
  EXPECT_NE(other, id);
  fx.await_terminal(other);

  const JsonValue m = parse_json(fx.request("GET", "/metrics").body);
  EXPECT_EQ(m.find("counters")->find("jobs_deduplicated")->as_u64(), 2u);
  EXPECT_EQ(m.find("counters")->find("jobs_submitted")->as_u64(), 2u);
}

TEST(Durability, ResultsSurviveCleanRestart) {
  const std::string dir = fresh_state_dir("clean_restart");
  std::uint64_t id = 0;
  std::string result_body;
  {
    ServiceFixture fx(durable_options(dir));
    id = fx.submit(
        R"({"kind":"batch","device_count":3,"batch_seed":11,)"
        R"("tiers":["digital"],"threads":1})");
    const JsonValue done = fx.await_terminal(id);
    ASSERT_EQ(done.find("state")->as_string(), "succeeded");
    result_body =
        fx.request("GET", "/jobs/" + std::to_string(id) + "/result").body;
    fx.manager.drain(/*hard=*/false);  // writes the clean-shutdown marker
  }
  {
    ServiceFixture fx(durable_options(dir));
    fx.manager.recover_jobs();
    // Clean shutdown: the result is queryable again, byte-identical to
    // the previous life's answer, with nothing to resume.
    const JsonValue health = parse_json(fx.request("GET", "/healthz").body);
    const JsonValue* recovery = health.find("recovery");
    ASSERT_NE(recovery, nullptr);
    EXPECT_TRUE(recovery->find("clean_shutdown")->as_bool());
    EXPECT_EQ(recovery->find("resumed_jobs")->as_u64(), 0u);
    EXPECT_EQ(recovery->find("recovered_jobs")->as_u64(), 1u);

    const auto resp =
        fx.request("GET", "/jobs/" + std::to_string(id) + "/result");
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_EQ(resp.body, result_body);

    const JsonValue status =
        parse_json(fx.request("GET", "/jobs/" + std::to_string(id)).body);
    const JsonValue* marker = status.find("recovery");
    ASSERT_NE(marker, nullptr);
    EXPECT_TRUE(marker->find("recovered")->as_bool());
    // Restored terminal, not resumed: nothing came from a checkpoint.
    EXPECT_FALSE(marker->find("resumed_from_checkpoint")->as_bool());
  }
}

// Retained reports are held packed. A result fetched after a restart is
// byte-identical to the one fetched before it, whether the restart
// replays the original result record (the second life) or the one the
// second boot's compaction rewrote from the packed buffer (the third).
// /healthz tells the first boot on an empty state dir from later ones.
TEST(Durability, PackedResultsServeTheSameBytesAcrossRestarts) {
  const std::string dir = fresh_state_dir("packed_results");
  const std::string bodies[] = {
      R"({"kind":"batch","device_count":6,"batch_seed":21,)"
      R"("full_spec":true,"threads":2})",
      R"({"kind":"lockstep_batch","device_count":256,"batch_seed":22,)"
      R"("threads":2})"};
  std::vector<std::pair<std::uint64_t, std::string>> results;
  {
    ServiceFixture fx(durable_options(dir));
    const JsonValue health = parse_json(fx.request("GET", "/healthz").body);
    EXPECT_TRUE(health.find("recovery")->find("first_boot")->as_bool());
    EXPECT_FALSE(health.find("recovery")->find("clean_shutdown")->as_bool());
    for (const std::string& body : bodies) {
      const std::uint64_t id = fx.submit(body);
      ASSERT_EQ(fx.await_terminal(id).find("state")->as_string(), "succeeded");
      const auto resp = fx.request("GET", "/jobs/" + std::to_string(id) + "/result");
      ASSERT_EQ(resp.status, 200);
      results.emplace_back(id, resp.body);
    }
  }
  for (int life = 2; life <= 3; ++life) {
    ServiceFixture fx(durable_options(dir));
    fx.manager.recover_jobs();
    const JsonValue health = parse_json(fx.request("GET", "/healthz").body);
    EXPECT_FALSE(health.find("recovery")->find("first_boot")->as_bool()) << life;
    EXPECT_TRUE(health.find("recovery")->find("clean_shutdown")->as_bool()) << life;
    for (const auto& [id, before] : results) {
      const auto resp = fx.request("GET", "/jobs/" + std::to_string(id) + "/result");
      ASSERT_EQ(resp.status, 200) << "life " << life << " job " << id;
      EXPECT_EQ(resp.body, before) << "life " << life << " job " << id;
    }
  }
}

TEST(Durability, UncleanJournalRecoversResumesAndCompletes) {
  const std::string dir = fresh_state_dir("unclean_resume");
  const std::string body =
      R"({"kind":"batch","device_count":4,"batch_seed":7,)"
      R"("tiers":["digital"],"threads":1})";
  const core::JobRequest req = core::JobRequest::from_json_text(body);

  // Control: the same request executed uninterrupted, and the first two
  // units' checkpoints exactly as a journaling daemon would record them.
  const service::DispatchResult control = service::dispatch(req);
  std::map<std::size_t, std::string> checkpoints;
  service::DispatchHooks capture;
  capture.unit_complete = [&](std::size_t, const service::SlotCheckpoints& units,
                              const service::SlotWritten& written) {
    for (const auto& [unit, cp] : units) {
      if (unit < 2) checkpoints[unit] = cp;
    }
    written();
  };
  service::dispatch(req, capture);
  ASSERT_EQ(checkpoints.size(), 2u);

  // Fabricate the crash: a journal holding the admission and two
  // checkpoints — and no clean-shutdown marker.
  {
    service::JournalOptions jo;
    jo.state_dir = dir;
    jo.fsync_every_records = 1;
    service::Journal journal(jo);
    journal.append_admit(1, core::to_json(req));
    for (const auto& [unit, cp] : checkpoints) {
      journal.append_checkpoint(1, unit, 4, cp);
    }
  }

  ServiceFixture fx(durable_options(dir));
  fx.manager.recover_jobs();

  const JsonValue done = fx.await_terminal(1);
  EXPECT_EQ(done.find("state")->as_string(), "succeeded");
  const JsonValue* marker = done.find("recovery");
  ASSERT_NE(marker, nullptr);
  EXPECT_TRUE(marker->find("recovered")->as_bool());
  EXPECT_TRUE(marker->find("resumed_from_checkpoint")->as_bool());
  EXPECT_EQ(marker->find("resumed_units")->as_u64(), 2u);

  // The resumed lot's report is identical to the uninterrupted control
  // on everything but wall-clock timing.
  const JsonValue result = parse_json(fx.request("GET", "/jobs/1/result").body);
  ASSERT_NE(result.find("report"), nullptr);
  EXPECT_EQ(strip_timing(*result.find("report")).dump(),
            strip_timing(parse_json(control.report_json)).dump());

  const JsonValue health = parse_json(fx.request("GET", "/healthz").body);
  const JsonValue* recovery = health.find("recovery");
  ASSERT_NE(recovery, nullptr);
  EXPECT_FALSE(recovery->find("clean_shutdown")->as_bool());
  EXPECT_EQ(recovery->find("recovered_jobs")->as_u64(), 1u);
  EXPECT_EQ(recovery->find("resumed_jobs")->as_u64(), 1u);

  JsonValue m;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    m = parse_json(fx.request("GET", "/metrics").body);
    if (m.find("counters")->find("units_resumed")->as_u64() == 2u) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const JsonValue* counters = m.find("counters");
  EXPECT_EQ(counters->find("jobs_recovered")->as_u64(), 1u);
  EXPECT_EQ(counters->find("jobs_resumed")->as_u64(), 1u);
  EXPECT_EQ(counters->find("units_resumed")->as_u64(), 2u);
  const JsonValue* gauges = m.find("gauges");
  EXPECT_GT(gauges->find("journal_bytes")->as_u64(), 0u);
  EXPECT_GE(gauges->find("journal_segments")->as_u64(), 1u);
}

/// Rewrite every journal segment under `dir` without its result records
/// and clean-shutdown marker: the state a SIGKILL between a job's stop
/// and its result append leaves on disk.
void drop_terminal_records(const std::string& dir) {
  std::vector<std::string> segments;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".wal") == 0) {
        segments.push_back(dir + "/" + name);
      }
    }
    ::closedir(d);
  }
  ASSERT_FALSE(segments.empty());
  for (const std::string& path : segments) {
    std::string kept;
    {
      std::ifstream in(path);
      std::string line;
      while (std::getline(in, line)) {
        // "<crc32-hex> <payload>"
        const std::string type =
            parse_json(line.substr(9)).find("type")->as_string();
        if (type != "result" && type != "clean_shutdown") kept += line + '\n';
      }
    }
    std::ofstream(path, std::ios::trunc) << kept;
  }
}

// Cancellation must never journal work that did not run. A stopped batch
// job once journaled a fabricated "skipped: job stopping" checkpoint for
// every die it never tested, and a recovery that lost the terminal
// record then "resumed" those fakes into a plausible but wrong report.
TEST(Durability, CancelledLotJournalsOnlyDiesThatRanAndResumesToControl) {
  const std::string dir = fresh_state_dir("cancel_resume");
  const core::JobRequest req = core::JobRequest::from_json_text(
      R"({"kind":"batch","device_count":1000,"batch_seed":17,"threads":2})");
  const service::DispatchResult control = service::dispatch(req);
  ASSERT_TRUE(control.batch.has_value());

  std::uint64_t id = 0;
  {
    service::JobManager manager(durable_options(dir));
    id = manager.submit(req);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (manager.get(id)->progress_done < 10 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(manager.cancel(id));
    ASSERT_EQ(await_job(manager, id).state, service::JobState::kCancelled);
  }

  drop_terminal_records(dir);
  const service::RecoveredState replayed = service::Journal::replay(dir);
  const service::RecoveredJob& job = replayed.jobs.at(id);
  ASSERT_FALSE(job.has_result);
  EXPECT_GE(job.checkpoints.size(), 10u);
  EXPECT_LT(job.checkpoints.size(), req.device_count);
  for (const auto& [unit, payload] : job.checkpoints) {
    const production::DeviceOutcome die =
        production::decode_device_checkpoint(parse_json(payload));
    const production::DeviceOutcome& tested = control.batch->devices.at(unit);
    EXPECT_NE(die.outcome.detail, "skipped: job stopping") << "die " << unit;
    EXPECT_EQ(die.seed, tested.seed) << "die " << unit;
    EXPECT_EQ(die.outcome.pass, tested.outcome.pass) << "die " << unit;
    EXPECT_EQ(die.outcome.detail, tested.outcome.detail) << "die " << unit;
  }

  // Recovery resumes from the real checkpoints and lands on the control.
  service::JobManager manager(durable_options(dir));
  manager.recover_jobs();
  const service::JobSnapshot done = await_job(manager, id);
  ASSERT_EQ(done.state, service::JobState::kSucceeded);
  EXPECT_EQ(done.resumed_units, job.checkpoints.size());
  ASSERT_NE(done.report_json, nullptr);
  EXPECT_EQ(strip_timing(parse_json(done.report_json->text())).dump(),
            strip_timing(parse_json(control.report_json)).dump());
}

// The campaign twin of the lot test above: a cancelled campaign journals
// only the faults that really ran. Its stop check once sat inside the
// fault test, which returned a fabricated "skipped: job stopping" result
// — journaled as a checkpoint — for every fault left, so a recovery that
// lost the terminal record "resumed" the fakes as escapes.
TEST(Durability, CancelledCampaignJournalsOnlyFaultsThatRanAndResumesToControl) {
  const std::string dir = fresh_state_dir("cancel_campaign");
  // Half the universe keeps the three runs short under TSan.
  const core::JobRequest req = core::JobRequest::from_json_text(
      R"({"kind":"fault_campaign","circuit":"sc_integrator_comparator",)"
      R"("max_faults":6,"threads":2})");
  const service::DispatchResult control = service::dispatch(req);
  ASSERT_TRUE(control.campaign.has_value());
  const std::size_t work_items = control.campaign->results.size();

  std::uint64_t id = 0;
  {
    service::JobManager manager(durable_options(dir));
    id = manager.submit(req);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (manager.get(id)->progress_done < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(manager.cancel(id));
    ASSERT_EQ(await_job(manager, id).state, service::JobState::kCancelled);
  }

  drop_terminal_records(dir);
  const service::RecoveredState replayed = service::Journal::replay(dir);
  const service::RecoveredJob& job = replayed.jobs.at(id);
  ASSERT_FALSE(job.has_result);
  EXPECT_GE(job.checkpoints.size(), 2u);
  EXPECT_LT(job.checkpoints.size(), work_items);
  for (const auto& [unit, payload] : job.checkpoints) {
    const faults::FaultResult fault =
        faults::decode_fault_checkpoint(parse_json(payload));
    const faults::FaultResult& tested = control.campaign->results.at(unit);
    EXPECT_NE(fault.detail, "skipped: job stopping") << "fault " << unit;
    EXPECT_EQ(fault.fault.label, tested.fault.label) << "fault " << unit;
    EXPECT_EQ(fault.detected, tested.detected) << "fault " << unit;
    EXPECT_EQ(fault.score, tested.score) << "fault " << unit;
  }

  // Recovery resumes from the real checkpoints and lands on the control.
  service::JobManager manager(durable_options(dir));
  manager.recover_jobs();
  const service::JobSnapshot done = await_job(manager, id);
  ASSERT_EQ(done.state, service::JobState::kSucceeded);
  EXPECT_EQ(done.resumed_units, job.checkpoints.size());
  ASSERT_NE(done.report_json, nullptr);
  EXPECT_EQ(strip_timing(parse_json(done.report_json->text())).dump(),
            strip_timing(parse_json(control.report_json)).dump());
}

TEST(Durability, TimedOutLockstepJournalsOnlyMarchedBlocks) {
  constexpr std::size_t kBlock = production::kLockstepBlockDies;
  const std::string dir = fresh_state_dir("lockstep_timeout");
  // The timeout must outlast the work before the first block claim
  // (building the population and its result slots: 0.16 s under TSan on
  // a 4-vCPU VM, 0.3 s with six such jobs sharing it) and fall short of
  // the whole lot. The lot is sized from a measured die time, so the
  // timeout lands mid-lot however fast the engine and the journal are:
  // about four timeouts' worth of dies, at least 16384.
  core::JobRequest req;
  req.kind = core::JobKind::kLockstepBatch;
  req.batch_seed = 31;
  req.threads = 2;
  req.device_count = 2048;
  const auto probe_start = std::chrono::steady_clock::now();
  ASSERT_FALSE(service::dispatch(req).stopped);
  const double die_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    probe_start)
          .count() /
      static_cast<double>(req.device_count);
  req.limits.wall_timeout_s = 0.6;
  req.device_count = std::clamp<std::size_t>(
      static_cast<std::size_t>(4.0 * req.limits.wall_timeout_s / die_seconds),
      16384, core::kMaxDeviceCount);
  std::uint64_t id = 0;
  {
    service::JobManager manager(durable_options(dir));
    id = manager.submit(req);
    const service::JobSnapshot done = await_job(manager, id);
    ASSERT_EQ(done.state, service::JobState::kTimedOut);
    EXPECT_EQ(done.failure.code, core::ErrorCode::kTimeout);
    EXPECT_EQ(done.report_json, nullptr);
  }

  drop_terminal_records(dir);
  const service::RecoveredState replayed = service::Journal::replay(dir);
  const service::RecoveredJob& job = replayed.jobs.at(id);
  ASSERT_FALSE(job.checkpoints.empty());
  ASSERT_LT(job.checkpoints.size(), req.device_count);

  // Blocks land whole: each block's dies are journaled together or not
  // at all, and every journaled die carries the verdict a march of its
  // block really produced (blocks are led by die 0, so a march of the
  // lot's prefix reproduces them).
  const std::size_t last_block = job.checkpoints.rbegin()->first / kBlock;
  const auto population =
      service::lockstep_screen_population(req.device_count, req.batch_seed);
  const production::BatchReport marched = production::run_batch_lockstep(
      {population.begin(),
       population.begin() + static_cast<std::ptrdiff_t>((last_block + 1) * kBlock)},
      service::lockstep_screen_plan());
  std::map<std::size_t, std::size_t> per_block;
  for (const auto& [unit, payload] : job.checkpoints) {
    const production::DeviceOutcome die =
        production::decode_device_checkpoint(parse_json(payload));
    EXPECT_EQ(die.seed, population[unit].seed) << "die " << unit;
    EXPECT_EQ(die.outcome.detail, marched.devices[unit].outcome.detail)
        << "die " << unit;
    ++per_block[unit / kBlock];
  }
  for (const auto& [block, dies] : per_block) {
    EXPECT_EQ(dies, kBlock) << "block " << block;
  }
}

/// The payload "type" of every record in the journal segments under `dir`.
std::vector<std::string> journal_record_types(const std::string& dir) {
  std::vector<std::string> types;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() <= 4 || name.compare(name.size() - 4, 4, ".wal") != 0) {
        continue;
      }
      std::ifstream in(dir + "/" + name);
      std::string line;
      while (std::getline(in, line)) {
        // "<crc32-hex> <payload>"
        types.push_back(parse_json(line.substr(9)).find("type")->as_string());
      }
    }
    ::closedir(d);
  }
  return types;
}

// One executor slot, one checkpoint record: a 5 x 32 + 3-die lockstep
// lot journaled the way JobManager wires unit_complete lands as 6
// records, one per lane block, and replays to every die's document
// byte for byte.
TEST(Durability, LockstepLotJournalsOneRecordPerBlock) {
  constexpr std::size_t kBlock = production::kLockstepBlockDies;
  const std::string dir = fresh_state_dir("lockstep_blocks");
  core::JobRequest req;
  req.kind = core::JobKind::kLockstepBatch;
  req.device_count = 5 * kBlock + 3;
  req.batch_seed = 41;
  req.threads = 2;

  std::mutex mu;  // unit_complete fires from engine worker threads
  std::map<std::size_t, std::string> reported;
  {
    service::JournalOptions jo;
    jo.state_dir = dir;
    service::Journal journal(jo);
    service::DispatchHooks hooks;
    hooks.unit_complete = [&](std::size_t total, service::SlotCheckpoints units,
                              service::SlotWritten written) {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto& [unit, checkpoint] : units) reported[unit] = checkpoint;
      }
      journal.append_checkpoints(1, total, std::move(units), std::move(written));
    };
    ASSERT_FALSE(service::dispatch(req, hooks).stopped);
  }
  ASSERT_EQ(reported.size(), req.device_count);

  const std::vector<std::string> types = journal_record_types(dir);
  EXPECT_EQ(std::count(types.begin(), types.end(), "checkpoint"), 6);
  const service::RecoveredState replayed = service::Journal::replay(dir);
  EXPECT_EQ(replayed.skipped_records, 0u);
  const service::RecoveredJob& job = replayed.jobs.at(1);
  EXPECT_EQ(job.checkpoint_total, req.device_count);
  EXPECT_EQ(job.checkpoints, reported);
}

// /metrics shows how the journal's writer keeps up: the seconds it spent
// in fsync(2) and in compactions, and its queue.
TEST(Durability, MetricsShowJournalTimingsAndBacklog) {
  ServiceFixture fx(durable_options(fresh_state_dir("journal_timings")));
  const std::uint64_t id = fx.submit(
      R"({"kind":"batch","device_count":2,"batch_seed":5,"tiers":["digital"],)"
      R"("threads":1})");
  ASSERT_EQ(fx.await_terminal(id).find("state")->as_string(), "succeeded");
  const JsonValue m = parse_json(fx.request("GET", "/metrics").body);
  const JsonValue* counters = m.find("counters");
  // The boot compaction's, then at least one group commit (a job this
  // small can queue its admit, checkpoints and result before the writer
  // wakes).
  EXPECT_GE(counters->find("journal_fsyncs")->as_u64(), 2u);
  EXPECT_GT(counters->find("journal_fsync_seconds")->as_double(), 0.0);
  EXPECT_EQ(counters->find("journal_compactions")->as_u64(), 0u);
  EXPECT_EQ(counters->find("journal_compaction_seconds")->as_double(), 0.0);
  EXPECT_EQ(counters->find("journal_backlog_waits")->as_u64(), 0u);
  EXPECT_EQ(m.find("gauges")->find("journal_backlog_bytes")->as_u64(), 0u);
}

// A unit counts in progress only once its checkpoint record is written,
// so a unit the daemon reported done survives a SIGKILL. Wired the way
// JobManager wires its hooks, over a journal whose writer is held inside
// the first block's write: dispatch returns with both blocks queued and
// no progress past the initial tick, and the ticks follow the writes.
TEST(Durability, ProgressCountsASlotOnlyOnceItsRecordIsWritten) {
  constexpr std::size_t kBlock = production::kLockstepBlockDies;
  const std::string dir = fresh_state_dir("progress_after_write");
  core::JobRequest req;
  req.kind = core::JobKind::kLockstepBatch;
  req.device_count = 2 * kBlock;
  req.batch_seed = 43;
  req.threads = 1;

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool released = false;
  std::mutex mu;  // progress ticks come from the journal's writer
  std::vector<std::size_t> ticks;

  service::JournalOptions jo;
  jo.state_dir = dir;
  bool first_write = true;
  jo.write_override = [&](int fd, const void* buf, std::size_t count) -> ssize_t {
    if (std::exchange(first_write, false)) {
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait_for(lock, std::chrono::minutes(1), [&] { return released; });
    }
    return ::write(fd, buf, count);
  };
  service::Journal journal(jo);
  service::DispatchHooks hooks;
  hooks.progress = [&](std::size_t done, std::size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    ticks.push_back(done);
  };
  hooks.unit_complete = [&](std::size_t total, service::SlotCheckpoints units,
                            service::SlotWritten written) {
    journal.append_checkpoints(1, total, std::move(units), std::move(written));
  };
  ASSERT_FALSE(service::dispatch(req, hooks).stopped);
  {
    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(ticks, std::vector<std::size_t>{0});
  }
  {
    const std::lock_guard<std::mutex> lock(gate_mu);
    released = true;
  }
  gate_cv.notify_all();
  journal.sync();
  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(ticks, (std::vector<std::size_t>{0, kBlock, 2 * kBlock}));
  EXPECT_EQ(service::Journal::replay(dir).jobs.at(1).checkpoints.size(),
            2 * kBlock);
}

// Recovery adopts the boot snapshot's jobs and drops the snapshot, so a
// restored report lives exactly as long as the retained job: once the
// byte budget evicts it, its buffer is freed.
TEST(Durability, RestoredReportIsFreedOnceEvicted) {
  const std::string dir = fresh_state_dir("restored_eviction");
  const core::JobRequest req = core::JobRequest::from_json_text(
      R"({"kind":"batch","device_count":1,"batch_seed":3,)"
      R"("tiers":["digital"],"threads":1})");
  std::uint64_t restored_id = 0;
  std::size_t charge = 0;  // one job's request plus report
  {
    service::JobManager manager(durable_options(dir));
    restored_id = manager.submit(req);
    const service::JobSnapshot done = await_job(manager, restored_id);
    ASSERT_EQ(done.state, service::JobState::kSucceeded);
    charge = manager.retained_bytes();
  }

  // Room for one such job, not two.
  service::JobManagerOptions o = durable_options(dir);
  o.retain_bytes = charge + charge / 2;
  service::JobManager manager(o);
  manager.recover_jobs();
  std::weak_ptr<const core::PackedText> restored;
  {
    const std::optional<service::JobSnapshot> snap = manager.get(restored_id);
    ASSERT_TRUE(snap.has_value());
    ASSERT_NE(snap->report_json, nullptr);
    restored = snap->report_json;
  }
  ASSERT_FALSE(restored.expired());

  const std::uint64_t next = manager.submit(req);
  ASSERT_EQ(await_job(manager, next).state, service::JobState::kSucceeded);
  EXPECT_FALSE(manager.get(restored_id).has_value());
  EXPECT_TRUE(restored.expired());
}

TEST(Durability, RecoveredJobWithUnknownPopulationFailsOnce) {
  const std::string dir = fresh_state_dir("unknown_population");
  const core::JobRequest req = core::JobRequest::from_json_text(
      R"({"kind":"lockstep_batch","population":"gone-lot"})");
  {
    service::JournalOptions jo;
    jo.state_dir = dir;
    jo.fsync_every_records = 1;
    service::Journal journal(jo);
    journal.append_admit(1, core::to_json(req));
  }
  {
    ServiceFixture fx(durable_options(dir));
    fx.manager.recover_jobs();
    // The population registry of the new life doesn't know "gone-lot":
    // the job fails with a structured error instead of wedging recovery.
    const JsonValue done = fx.await_terminal(1);
    EXPECT_EQ(done.find("state")->as_string(), "failed");
    ASSERT_NE(done.find("failure"), nullptr);
  }
  {
    // And the failure was journaled: the next restart sees a terminal
    // job, not a third attempt.
    ServiceFixture fx(durable_options(dir));
    fx.manager.recover_jobs();
    const JsonValue health = parse_json(fx.request("GET", "/healthz").body);
    EXPECT_EQ(health.find("recovery")->find("resumed_jobs")->as_u64(), 0u);
    const JsonValue status = parse_json(fx.request("GET", "/jobs/1").body);
    EXPECT_EQ(status.find("state")->as_string(), "failed");
  }
}

/// The job ids a replay of the state directory holds.
std::vector<std::uint64_t> journaled_ids(const std::string& dir) {
  std::vector<std::uint64_t> ids;
  for (const auto& [id, job] : service::Journal::replay(dir).jobs) ids.push_back(id);
  return ids;
}

/// The job ids the manager holds.
std::vector<std::uint64_t> held_ids(const service::JobManager& manager) {
  std::vector<std::uint64_t> ids;
  for (const service::JobSnapshot& snap : manager.list()) ids.push_back(snap.id);
  return ids;
}

// Jobs that recovery cannot adopt leave the journal at the first boot:
// a terminal and an interrupted job whose requests this daemon rejects,
// and a result and checkpoints that have no admit record.
TEST(Durability, BootForgetsReplayedJobsItCannotAdopt) {
  const std::string dir = fresh_state_dir("boot_forgets");
  const core::JobRequest kept = core::JobRequest::from_json_text(
      R"({"kind":"batch","device_count":1,"batch_seed":3,)"
      R"("tiers":["digital"],"threads":1})");
  const std::string outcome = R"({"pass":true,"detail":""})";
  {
    service::JournalOptions jo;
    jo.state_dir = dir;
    jo.fsync_every_records = 1;
    service::Journal journal(jo);
    journal.append_admit(1, R"({"kind":"no_such_kind"})");
    journal.append_result(1, "succeeded", outcome, "", "batch_report", "{}");
    journal.append_admit(2, R"({"kind":"no_such_kind"})");
    journal.append_checkpoint(2, 0, 4, "{}");
    journal.append_checkpoint(3, 0, 4, "{}");
    journal.append_result(4, "succeeded", outcome, "", "batch_report", "{}");
    journal.append_admit(5, core::to_json(kept));
    journal.append_result(5, "succeeded", outcome, "", "batch_report",
                          service::dispatch(kept).report_json);
  }
  ASSERT_EQ(journaled_ids(dir), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));

  service::JobManager manager(durable_options(dir));
  manager.recover_jobs();
  EXPECT_EQ(held_ids(manager), std::vector<std::uint64_t>{5});
  EXPECT_EQ(journaled_ids(dir), std::vector<std::uint64_t>{5});
  EXPECT_EQ(manager.journal_status().gauges.journal_segments, 1u);
  EXPECT_EQ(manager.journal_status().gauges.compactions, 1u);
}

// One owner for retention: a restart under a smaller budget evicts in
// the manager, and the journal drops exactly those jobs at boot. A boot
// with nothing to forget does no extra compaction.
TEST(Durability, RestartUnderASmallerBudgetKeepsTheJournalInStep) {
  const std::string dir = fresh_state_dir("smaller_budget");
  const core::JobRequest small = core::JobRequest::from_json_text(
      R"({"kind":"batch","device_count":1,"batch_seed":3,)"
      R"("tiers":["digital"],"threads":1})");
  std::size_t charge = 0;  // one job's request plus report
  {
    service::JobManager manager(durable_options(dir));
    manager.recover_jobs();
    EXPECT_EQ(manager.journal_status().gauges.journal_segments, 1u);
    EXPECT_EQ(manager.journal_status().gauges.compactions, 0u);
    for (int k = 0; k < 5; ++k) {
      const std::uint64_t id = manager.submit(small);
      ASSERT_EQ(await_job(manager, id).state, service::JobState::kSucceeded);
    }
    charge = manager.retained_bytes() / 5;
    EXPECT_EQ(held_ids(manager), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
    manager.drain();
  }
  EXPECT_EQ(journaled_ids(dir), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));

  service::JobManagerOptions o = durable_options(dir);
  o.retain_bytes = 2 * charge + charge / 2;  // two finished jobs
  service::JobManager manager(o);
  manager.recover_jobs();
  EXPECT_EQ(held_ids(manager), (std::vector<std::uint64_t>{4, 5}));
  EXPECT_EQ(journaled_ids(dir), held_ids(manager));
  EXPECT_EQ(manager.journal_status().gauges.journal_segments, 1u);
  EXPECT_EQ(manager.journal_status().gauges.compactions, 1u);
}

// Retention is a byte budget: every job charges its request, a finished
// job also its report. Terminal jobs go oldest first; jobs without a
// report (cancelled, failed) still charge their requests, so they stay
// bounded too; live jobs are never evicted, even past the budget.
TEST(JobManager, RetainedJobsStayWithinTheByteBudget) {
  const core::JobRequest small = core::JobRequest::from_json_text(
      R"({"kind":"batch","device_count":1,"batch_seed":3,)"
      R"("tiers":["digital"],"threads":1})");
  const std::size_t charge = core::to_json(small).size() +
                             service::dispatch(small).report_json.size();
  {
    service::JobManagerOptions o;
    o.workers = 1;
    o.retain_bytes = 3 * charge + charge / 2;  // three finished jobs
    service::JobManager manager(o);
    std::vector<std::uint64_t> ids;
    for (int k = 0; k < 6; ++k) {
      ids.push_back(manager.submit(small));
      ASSERT_EQ(await_job(manager, ids.back()).state,
                service::JobState::kSucceeded);
      EXPECT_LE(manager.retained_bytes(), o.retain_bytes) << "after job " << k;
      // The newest three survive; older ones went first.
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(manager.get(ids[i]).has_value(), i + 3 >= ids.size())
            << "job " << i << " after job " << k;
      }
    }
  }

  service::JobManagerOptions o;
  o.workers = 1;
  o.retain_bytes = 16u << 10;
  service::JobManager manager(o);
  const std::uint64_t blocker = manager.submit(core::JobRequest::from_json_text(
      R"({"kind":"batch","device_count":2000,"batch_seed":5,)"
      R"("full_spec":true,"threads":1})"));
  // Six queued jobs whose requests alone outgrow the budget: all live,
  // so all stay.
  std::vector<std::uint64_t> queued;
  for (int k = 0; k < 6; ++k) {
    core::JobRequest big = small;
    big.label = std::string(4000, static_cast<char>('a' + k));
    queued.push_back(manager.submit(big));
  }
  EXPECT_GT(manager.retained_bytes(), o.retain_bytes);
  for (const std::uint64_t id : queued) EXPECT_TRUE(manager.get(id).has_value());

  // Cancelled, they are terminal without a report; the next admission
  // evicts the oldest of them until the budget holds again.
  for (const std::uint64_t id : queued) ASSERT_TRUE(manager.cancel(id));
  const std::uint64_t last = manager.submit(small);
  EXPECT_LE(manager.retained_bytes(), o.retain_bytes);
  EXPECT_TRUE(manager.get(blocker).has_value());
  EXPECT_TRUE(manager.get(last).has_value());
  for (std::size_t i = 0; i < queued.size(); ++i) {
    EXPECT_EQ(manager.get(queued[i]).has_value(), i >= 3) << "cancelled job " << i;
  }
  manager.cancel(last);
  manager.cancel(blocker);
}

// A report larger than the whole budget is still fetchable once its job
// completes: the manager never evicts the most recently completed job,
// and the journal keeps what the manager keeps, so the overshoot is that
// one job's charge. It goes once a newer job completes.
TEST(JobManager, OversizedResultStaysFetchableUntilANewerJobCompletes) {
  const std::string dir = fresh_state_dir("oversized_result");
  service::JobManagerOptions o = durable_options(dir);
  o.workers = 1;
  o.retain_bytes = 4096;
  const core::JobRequest screen = core::JobRequest::from_json_text(
      R"({"kind":"lockstep_batch","device_count":64,"batch_seed":7,"threads":1})");
  std::uint64_t id = 0;
  std::string report;
  {
    service::JobManager manager(o);
    id = manager.submit(screen);
    const service::JobSnapshot done = await_job(manager, id);
    ASSERT_EQ(done.state, service::JobState::kSucceeded);
    ASSERT_NE(done.report_json, nullptr);
    report = done.report_json->text();
    ASSERT_GT(report.size(), o.retain_bytes);
    for (int poll = 0; poll < 3; ++poll) {
      const std::optional<service::JobSnapshot> snap = manager.get(id);
      ASSERT_TRUE(snap.has_value()) << "poll " << poll;
      ASSERT_NE(snap->report_json, nullptr);
      EXPECT_EQ(snap->report_json->text(), report);
    }
    EXPECT_EQ(manager.retained_bytes(), core::to_json(screen).size() + report.size());
  }

  const core::JobRequest small = core::JobRequest::from_json_text(
      R"({"kind":"batch","device_count":1,"batch_seed":3,)"
      R"("tiers":["digital"],"threads":1})");
  std::uint64_t newer = 0;
  {
    // The journal kept it too: a restart serves the same report.
    service::JobManager manager(o);
    manager.recover_jobs();
    const std::optional<service::JobSnapshot> restored = manager.get(id);
    ASSERT_TRUE(restored.has_value());
    ASSERT_NE(restored->report_json, nullptr);
    EXPECT_EQ(restored->report_json->text(), report);

    newer = manager.submit(small);
    ASSERT_EQ(await_job(manager, newer).state, service::JobState::kSucceeded);
    EXPECT_FALSE(manager.get(id).has_value());
    EXPECT_TRUE(manager.get(newer).has_value());
    EXPECT_LE(manager.retained_bytes(), o.retain_bytes);
  }
  // And the journal let it go with the manager.
  service::JobManager reopened(o);
  reopened.recover_jobs();
  EXPECT_FALSE(reopened.get(id).has_value());
  EXPECT_TRUE(reopened.get(newer).has_value());
}

/// Poll an in-process manager until job `id` has left the queue (10 s
/// deadline).
void await_started(const service::JobManager& manager, std::uint64_t id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::optional<service::JobSnapshot> snap = manager.get(id);
    if (snap && snap->state != service::JobState::kQueued) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "job " << id << " never left the queue";
}

// A soft drain (msbistd's SIGTERM path) stops admission but not the
// queue: it returns only once the running job and both queued ones have
// succeeded, and the journal then holds each result and ends with the
// clean-shutdown marker.
TEST(JobManager, SoftDrainRunsEveryQueuedJobToCompletion) {
  const std::string dir = fresh_state_dir("soft_drain");
  service::JobManagerOptions o = durable_options(dir);
  o.workers = 1;
  service::JobManager manager(o);
  std::vector<std::uint64_t> ids;
  ids.push_back(manager.submit(core::JobRequest::from_json_text(
      R"({"kind":"batch","device_count":100,"batch_seed":5,)"
      R"("full_spec":true,"threads":1})")));
  await_started(manager, ids.back());
  const core::JobRequest small = core::JobRequest::from_json_text(
      R"({"kind":"batch","device_count":1,"batch_seed":3,)"
      R"("tiers":["digital"],"threads":1})");
  ids.push_back(manager.submit(small));
  ids.push_back(manager.submit(small));
  EXPECT_EQ(manager.queue_depth(), 2u);

  manager.drain(/*hard=*/false);
  const service::RecoveredState replayed = service::Journal::replay(dir);
  EXPECT_TRUE(replayed.clean_shutdown);
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(manager.get(id)->state, service::JobState::kSucceeded) << "job " << id;
    ASSERT_EQ(replayed.jobs.count(id), 1u) << "job " << id;
    EXPECT_TRUE(replayed.jobs.at(id).has_result) << "job " << id;
    EXPECT_EQ(replayed.jobs.at(id).result_state, "succeeded") << "job " << id;
  }
}

// drain() waits for the queue itself, not only for busy slots: a job that
// no slot has taken yet when the drain begins still runs to completion.
TEST(JobManager, SoftDrainRunsAJobNoSlotHasTakenYet) {
  service::JobManagerOptions o;
  o.workers = 1;
  service::JobManager manager(o);
  const std::uint64_t id = manager.submit(core::JobRequest::from_json_text(
      R"({"kind":"batch","device_count":1,"batch_seed":3,)"
      R"("tiers":["digital"],"threads":1})"));
  manager.drain(/*hard=*/false);
  EXPECT_EQ(manager.get(id)->state, service::JobState::kSucceeded);
}

// Destroying the manager drains hard: the running job stops after its
// die in flight, and each queued job still goes to the slot, stop flag
// set, so every admitted job resolves and journals its result before
// the clean-shutdown marker.
TEST(JobManager, DestructorResolvesEveryQueuedJob) {
  const std::string dir = fresh_state_dir("destroy_queued");
  service::JobManagerOptions o = durable_options(dir);
  o.workers = 1;
  std::vector<std::uint64_t> ids;
  {
    service::JobManager manager(o);
    ids.push_back(manager.submit(core::JobRequest::from_json_text(
        R"({"kind":"batch","device_count":2000,"batch_seed":5,)"
        R"("full_spec":true,"threads":1})")));
    await_started(manager, ids.back());
    const core::JobRequest small = core::JobRequest::from_json_text(
        R"({"kind":"batch","device_count":1,"batch_seed":3,)"
        R"("tiers":["digital"],"threads":1})");
    for (int k = 0; k < 3; ++k) ids.push_back(manager.submit(small));
    EXPECT_EQ(manager.queue_depth(), 3u);
  }
  const service::RecoveredState replayed = service::Journal::replay(dir);
  EXPECT_TRUE(replayed.clean_shutdown);
  EXPECT_EQ(replayed.jobs.size(), ids.size());
  for (const std::uint64_t id : ids) {
    ASSERT_EQ(replayed.jobs.count(id), 1u) << "job " << id;
    const service::RecoveredJob& job = replayed.jobs.at(id);
    EXPECT_TRUE(job.has_result) << "job " << id;
    EXPECT_TRUE(job.result_state == "cancelled" || job.result_state == "succeeded")
        << "job " << id << " ended " << job.result_state;
  }
}

}  // namespace
