// service::Journal — the write-ahead job journal: CRC framing, replay,
// torn-tail tolerance, compaction across reopen, forgetting the jobs the
// JobManager drops, degraded-mode behavior under injected write
// failures, and the writer thread: which appends wait for it, the
// bounded queue, and compaction after the caller is released.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/crc32.h"
#include "core/error.h"
#include "core/job.h"
#include "production/batch.h"
#include "service/journal.h"

namespace {

using namespace msbist;
using service::Journal;
using service::JournalOptions;
using service::RecoveredState;

/// A fresh, empty state directory under the test temp root. Removes any
/// leftover segment files from a previous run of the same test.
std::string fresh_state_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/msbist_journal_" + name;
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

std::size_t segment_files(const std::string& dir) {
  std::size_t count = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string entry = e->d_name;
      if (entry.rfind("journal-", 0) == 0) ++count;
    }
    ::closedir(d);
  }
  return count;
}

void append_raw(const std::string& dir, const std::string& bytes) {
  std::ofstream out(dir + "/journal-000001.wal",
                    std::ios::binary | std::ios::app);
  out << bytes;
}

JournalOptions options_for(const std::string& dir) {
  JournalOptions o;
  o.state_dir = dir;
  o.fsync_every_records = 1;
  return o;
}

/// A one-shot gate: wait() blocks until open(). The wait is bounded, so
/// a journal that never lets a test reach open() fails the test instead
/// of hanging the suite; it never delays a passing run.
class Gate {
 public:
  void open() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// False when the gate stayed shut for a minute.
  bool wait() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::minutes(1), [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Stalls the journal's writer inside its `stall_at`-th write(2) since
/// open (1 = the first record's): `entered` opens once it is there, and
/// the write goes on — or fails with ENOSPC when `fail` — once `release`
/// opens.
struct StalledWrite {
  int stall_at = 1;
  bool fail = false;
  Gate entered;
  Gate release;
  std::atomic<int> writes{0};
};

JournalOptions stalled_options(const std::string& dir, StalledWrite& stall) {
  JournalOptions o = options_for(dir);
  o.write_override = [&stall](int fd, const void* buf,
                              std::size_t count) -> ssize_t {
    if (++stall.writes == stall.stall_at) {
      stall.entered.open();
      stall.release.wait();
      if (stall.fail) {
        errno = ENOSPC;
        return -1;
      }
    }
    return ::write(fd, buf, count);
  };
  return o;
}

/// A checkpoint document of about 4 kB.
const std::string& padded_checkpoint() {
  static const std::string doc = R"({"pad":")" + std::string(4000, 'x') + R"("})";
  return doc;
}

TEST(Crc32, KnownVectors) {
  // The standard CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(core::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(core::crc32(""), 0u);
  EXPECT_EQ(core::crc32_hex(0xCBF43926u), "cbf43926");
  EXPECT_EQ(core::crc32_hex(0x0000ABCDu), "0000abcd");
}

/// CRC-32 one bit at a time, with no table: the reference crc32() must
/// equal at every length and alignment.
std::uint32_t bitwise_crc32(std::string_view data, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char ch : data) {
    c ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, EqualsTheBitwiseReferenceAtEveryLengthAndOffset) {
  std::mt19937_64 rng(2718);
  std::string buffer(72, '\0');
  for (char& c : buffer) c = static_cast<char>(rng() & 0xFF);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::string_view piece =
          std::string_view(buffer).substr(offset, length);
      EXPECT_EQ(core::crc32(piece), bitwise_crc32(piece))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, RunningChecksumOfPiecesEqualsTheWhole) {
  const std::string text = R"({"type":"result","id":12,"report":{"pad":"xyz"}})";
  for (std::size_t split = 0; split <= text.size(); ++split) {
    const std::string a = text.substr(0, split);
    const std::string b = text.substr(split);
    EXPECT_EQ(core::crc32(b, core::crc32(a)), core::crc32(a + b)) << split;
  }
}

TEST(Journal, FrameIsChecksumSpacePayloadNewline) {
  const std::string line = Journal::frame(R"({"type":"clean_shutdown"})");
  ASSERT_GT(line.size(), 10u);
  EXPECT_EQ(line[8], ' ');
  EXPECT_EQ(line.back(), '\n');
  const std::string payload = line.substr(9, line.size() - 10);
  EXPECT_EQ(line.substr(0, 8), core::crc32_hex(core::crc32(payload)));
}

TEST(Journal, ReplayOfMissingDirectoryIsEmpty) {
  const RecoveredState state =
      Journal::replay(testing::TempDir() + "/msbist_journal_never_created");
  EXPECT_TRUE(state.jobs.empty());
  EXPECT_FALSE(state.clean_shutdown);
  EXPECT_EQ(state.skipped_records, 0u);
}

TEST(Journal, LifecycleRoundTripsThroughReplay) {
  const std::string dir = fresh_state_dir("lifecycle");
  {
    Journal j(options_for(dir));
    j.append_admit(7, R"({"kind":"batch","device_count":3})");
    j.append_checkpoint(7, 0, 3, R"({"die":0})");
    j.append_checkpoint(7, 2, 3, R"({"die":2})");
    j.append_admit(8, R"({"kind":"testability"})");
    j.append_result(8, "succeeded", R"({"pass":true,"detail":"ok"})", "",
                    "testability_report", R"({"kind":"testability_report"})");
    EXPECT_FALSE(j.degraded());
    EXPECT_GT(j.bytes(), 0u);
    EXPECT_EQ(j.segments(), 1u);
  }

  const RecoveredState state = Journal::replay(dir);
  EXPECT_EQ(state.skipped_records, 0u);
  EXPECT_FALSE(state.clean_shutdown);
  ASSERT_EQ(state.jobs.size(), 2u);

  const service::RecoveredJob& interrupted = state.jobs.at(7);
  EXPECT_EQ(interrupted.request_json, R"({"kind":"batch","device_count":3})");
  EXPECT_FALSE(interrupted.has_result);
  ASSERT_EQ(interrupted.checkpoints.size(), 2u);
  EXPECT_EQ(interrupted.checkpoints.at(0), R"({"die":0})");
  EXPECT_EQ(interrupted.checkpoints.at(2), R"({"die":2})");
  EXPECT_EQ(interrupted.checkpoint_total, 3u);

  const service::RecoveredJob& finished = state.jobs.at(8);
  EXPECT_TRUE(finished.has_result);
  EXPECT_EQ(finished.result_state, "succeeded");
  EXPECT_EQ(finished.outcome_json, R"({"pass":true,"detail":"ok"})");
  EXPECT_TRUE(finished.failure_json.empty());
  EXPECT_EQ(finished.report_kind, "testability_report");
  ASSERT_NE(finished.report_json, nullptr);
  EXPECT_EQ(finished.report_json->text(), R"({"kind":"testability_report"})");
  // A result clears the job's checkpoints: finished jobs need no resume.
  EXPECT_TRUE(finished.checkpoints.empty());
}

// A first boot is a state dir with no segment: not a shutdown of any
// kind. Every later boot knows whether the previous life drained.
TEST(Journal, FirstBootIsAStateDirWithNoSegment) {
  const std::string dir = fresh_state_dir("first_boot");
  {
    Journal j(options_for(dir));
    EXPECT_TRUE(j.recovered().first_boot);
    EXPECT_FALSE(j.recovered().clean_shutdown);
    j.append_clean_shutdown();
  }
  {
    // A clean drain, then a reboot.
    Journal j(options_for(dir));
    EXPECT_FALSE(j.recovered().first_boot);
    EXPECT_TRUE(j.recovered().clean_shutdown);
    j.append_admit(1, R"({"kind":"batch"})");
  }
  // A crash: no marker after the last record.
  const Journal j(options_for(dir));
  EXPECT_FALSE(j.recovered().first_boot);
  EXPECT_FALSE(j.recovered().clean_shutdown);
  EXPECT_FALSE(Journal::replay(dir).first_boot);
  EXPECT_TRUE(Journal::replay(dir + "/never_created").first_boot);
}

TEST(Journal, CleanShutdownMarkerOnlyCountsWhenLast) {
  const std::string dir = fresh_state_dir("clean_marker");
  {
    Journal j(options_for(dir));
    j.append_clean_shutdown();
  }
  EXPECT_TRUE(Journal::replay(dir).clean_shutdown);

  {
    Journal j(options_for(dir));
    j.append_admit(1, R"({"kind":"batch"})");
  }
  // A later admission means the shutdown was NOT the final word.
  EXPECT_FALSE(Journal::replay(dir).clean_shutdown);
}

TEST(Journal, TornTailAndGarbageAreSkippedNotFatal) {
  const std::string dir = fresh_state_dir("torn_tail");
  append_raw(dir, Journal::frame(R"({"type":"admit","id":1,"request":{}})"));
  append_raw(dir, Journal::frame(R"({"type":"state","id":1,"state":"running"})"));
  // A torn final record: the process died mid-write, so the line ends
  // without its tail (and its checksum cannot match what remains).
  const std::string torn =
      Journal::frame(R"({"type":"checkpoint","id":1,"unit":0,"total":9,"data":{}})");
  append_raw(dir, torn.substr(0, torn.size() / 2));

  RecoveredState state = Journal::replay(dir);
  EXPECT_EQ(state.skipped_records, 1u);
  ASSERT_EQ(state.jobs.size(), 1u);
  EXPECT_TRUE(state.jobs.at(1).checkpoints.empty());

  // Pile on every other corruption class: a bit-rotted payload under a
  // stale checksum, plain garbage, and a wrong-schema (but CRC-valid)
  // record. None of them may prevent the journal from OPENING. The
  // rotted line glues onto the unterminated torn tail (one merged bad
  // line), so three lines fail verification in total.
  std::string rotted = Journal::frame(R"({"type":"state","id":1,"state":"x"})");
  rotted[12] ^= 0x20;  // flip one payload bit; stored CRC now mismatches
  append_raw(dir, rotted);
  append_raw(dir, "not a journal line at all\n");
  append_raw(dir, Journal::frame(R"({"type":"from_the_future","id":1})"));

  Journal j(options_for(dir));
  EXPECT_EQ(j.recovered().skipped_records, 3u);
  EXPECT_FALSE(j.degraded());
  ASSERT_EQ(j.recovered().jobs.size(), 1u);
  EXPECT_EQ(j.recovered().jobs.at(1).request_json, "{}");

  // Boot compaction rewrote only the valid state: a second replay of the
  // same directory is now perfectly clean.
  EXPECT_EQ(Journal::replay(dir).skipped_records, 0u);
}

// A CRC-valid record can still carry numbers no journal writes (a hand
// edit, corruption under a matching checksum). A negative job id or unit
// index is skipped and counted like any malformed record — a checkpoint
// slot as a whole — instead of throwing out of replay, which kept the
// daemon from starting.
TEST(Journal, NegativeIndicesAreSkippedNotFatal) {
  const std::string dir = fresh_state_dir("negative_indices");
  append_raw(dir, Journal::frame(R"({"type":"admit","id":1,"request":{}})"));
  append_raw(dir, Journal::frame(R"({"type":"state","id":-1,"state":"running"})"));
  append_raw(dir, Journal::frame(
                      R"({"type":"checkpoint","id":1,"total":2,"units":[[0,{}],[-1,{}]]})"));
  const RecoveredState state = Journal::replay(dir);
  EXPECT_EQ(state.skipped_records, 2u);
  ASSERT_EQ(state.jobs.size(), 1u);
  EXPECT_TRUE(state.jobs.at(1).checkpoints.empty());

  Journal j(options_for(dir));
  EXPECT_FALSE(j.degraded());
  EXPECT_EQ(j.recovered().skipped_records, 2u);
}

// The boot compaction deletes the previous life's segments only once
// their rewrite is durable: a journal that degrades while rewriting
// leaves them for the next boot instead of losing every job.
TEST(Journal, FailedBootRewriteKeepsTheOldSegments) {
  const std::string dir = fresh_state_dir("boot_rewrite_fails");
  {
    Journal j(options_for(dir));
    j.append_admit(1, R"({"kind":"batch"})");
  }
  JournalOptions o = options_for(dir);
  o.write_override = [](int, const void*, std::size_t) -> ssize_t {
    errno = ENOSPC;
    return -1;
  };
  {
    Journal j(std::move(o));
    EXPECT_TRUE(j.degraded());
  }
  const RecoveredState state = Journal::replay(dir);
  ASSERT_EQ(state.jobs.count(1), 1u);
  EXPECT_EQ(state.jobs.at(1).request_json, R"({"kind":"batch"})");
}

TEST(Journal, ReopenCompactsToOneSegmentAndKeepsState) {
  const std::string dir = fresh_state_dir("compact");
  {
    Journal j(options_for(dir));
    j.append_admit(1, R"({"kind":"batch","device_count":4})");
    for (std::size_t unit = 0; unit < 4; ++unit) {
      // Supersede each checkpoint once: replay keeps the latest.
      j.append_checkpoint(1, unit, 4, R"({"try":1})");
      j.append_checkpoint(1, unit, 4, R"({"try":2})");
    }
  }
  {
    Journal j(options_for(dir));
    EXPECT_EQ(segment_files(dir), 1u);
    const service::RecoveredJob& job = j.recovered().jobs.at(1);
    ASSERT_EQ(job.checkpoints.size(), 4u);
    EXPECT_EQ(job.checkpoints.at(3), R"({"try":2})");
  }
  // The second open compacted again: still exactly one segment, and the
  // compacted rewrite is smaller than the full append history was.
  EXPECT_EQ(segment_files(dir), 1u);
}

TEST(Journal, OnlineCompactionRollsTheSegment) {
  const std::string dir = fresh_state_dir("online_compact");
  JournalOptions o = options_for(dir);
  o.max_segment_bytes = 256;  // force frequent compaction
  Journal j(o);
  j.append_admit(1, R"({"kind":"batch","device_count":64})");
  for (std::size_t unit = 0; unit < 64; ++unit) {
    j.append_checkpoint(1, unit, 64, R"({"payload":"xxxxxxxxxxxxxxxx"})");
  }
  // Checkpoint appends return once queued: wait until the writer has
  // written them and finished the compactions they made due.
  j.sync();
  EXPECT_FALSE(j.degraded());
  EXPECT_EQ(j.segments(), 1u);
  EXPECT_EQ(segment_files(dir), 1u);
  // Nothing lost to the rolls: every checkpoint is still in the table.
  // (Replay through a fresh journal would re-open the same dir; rely on
  // the in-memory recovered() of a reopen instead.)
  Journal reopened(options_for(dir));
  EXPECT_EQ(reopened.recovered().jobs.at(1).checkpoints.size(), 64u);
}

TEST(Journal, AppendedDocumentsReplayByteIdenticalThroughCompaction) {
  // Real engine documents: job requests, per-die checkpoints and a batch
  // report, with full-precision doubles. The journal's table stores them
  // as appended; the records on disk must replay to the same bytes, both
  // after online compactions (table rewrites) and after a reopen.
  const std::string dir = fresh_state_dir("typed_append");
  production::BatchConfig lot;
  lot.device_count = 3;
  lot.batch_seed = 5;
  lot.plan = production::TestPlan::bist_only();
  const auto pop = production::make_population(lot);
  std::vector<std::string> checkpoints;
  for (const production::DieSpec& die : pop) {
    checkpoints.push_back(production::encode_device_checkpoint(
        production::test_device(die, lot.plan)));
  }
  const std::string batch_report = core::to_json(production::run_batch(lot));

  core::JobRequest batch;
  batch.kind = core::JobKind::kBatch;
  batch.device_count = 3;
  batch.batch_seed = 5;
  core::JobRequest campaign;
  campaign.kind = core::JobKind::kFaultCampaign;
  campaign.circuit = "op1_follower";
  campaign.client_tag = "tag \"quoted\" \\ tab\t";
  const std::string requests[] = {core::to_json(batch), core::to_json(campaign)};
  const std::string failure =
      R"({"code":"bad_input","analysis":"recovery","detail":"x"})";

  JournalOptions o = options_for(dir);
  o.max_segment_bytes = 2048;  // several online compactions below
  std::size_t appended = 0;
  {
    Journal j(o);
    j.append_admit(1, requests[0]);
    for (int pass = 0; pass < 3; ++pass) {  // superseded twice
      for (std::size_t unit = 0; unit < checkpoints.size(); ++unit) {
        j.append_checkpoint(1, unit, checkpoints.size(), checkpoints[unit]);
        appended += checkpoints[unit].size();
      }
    }
    j.append_admit(2, requests[1]);
    const service::ReportBuffer shared =
        j.append_result(2, "succeeded", R"({"pass":true,"detail":"3/3"})", "",
                        "batch_report", batch_report);
    // The table keeps the buffer it returns, not a copy.
    EXPECT_EQ(shared.use_count(), 2);
    EXPECT_EQ(shared->text(), batch_report);
    j.append_admit(3, requests[0]);
    EXPECT_EQ(j.append_result(3, "failed", "null", failure), nullptr);
    appended += batch_report.size();
    EXPECT_FALSE(j.degraded());
    // Compaction dropped the superseded checkpoints.
    EXPECT_LT(j.bytes(), appended);
  }

  const auto check = [&](const RecoveredState& state, const char* when) {
    ASSERT_EQ(state.jobs.size(), 3u) << when;
    EXPECT_EQ(state.skipped_records, 0u) << when;
    const service::RecoveredJob& running = state.jobs.at(1);
    EXPECT_EQ(running.request_json, requests[0]) << when;
    ASSERT_EQ(running.checkpoints.size(), checkpoints.size()) << when;
    for (std::size_t unit = 0; unit < checkpoints.size(); ++unit) {
      EXPECT_EQ(running.checkpoints.at(unit), checkpoints[unit]) << when;
    }
    const service::RecoveredJob& done = state.jobs.at(2);
    EXPECT_EQ(done.request_json, requests[1]) << when;
    ASSERT_NE(done.report_json, nullptr) << when;
    EXPECT_EQ(done.report_json->text(), batch_report) << when;
    const service::RecoveredJob& failed = state.jobs.at(3);
    EXPECT_EQ(failed.failure_json, failure) << when;
    EXPECT_EQ(failed.outcome_json, "null") << when;
    EXPECT_EQ(failed.report_json, nullptr) << when;
  };
  check(Journal::replay(dir), "after online compaction");
  {
    Journal reopened(o);
    check(reopened.recovered(), "at reopen");
  }
  check(Journal::replay(dir), "after boot compaction");
}

// The journal keeps what the JobManager keeps: a forgotten job's report
// buffer is released at once, the job leaves the log at the next
// compaction, and every job not forgotten — the live one included —
// stays, with the newest result still replayed last.
TEST(Journal, ForgottenJobsLeaveTheLogAtTheNextCompaction) {
  const std::string dir = fresh_state_dir("forget");
  const JournalOptions o = options_for(dir);
  {
    Journal j(o);
    std::weak_ptr<const core::PackedText> first_report;
    for (std::uint64_t id = 1; id <= 4; ++id) {
      j.append_admit(id, R"({"kind":"testability"})");
      const service::ReportBuffer buffer =
          j.append_result(id, "succeeded", R"({"pass":true,"detail":""})", "",
                          "testability_report", R"({"pass":true})");
      if (id == 1) first_report = buffer;
    }
    j.append_admit(5, R"({"kind":"batch"})");  // live
    j.forget(1);
    j.forget(2);
    EXPECT_TRUE(first_report.expired());
    // Nothing is rewritten until a compaction.
    EXPECT_EQ(Journal::replay(dir).jobs.size(), 5u);
    j.compact();
    EXPECT_EQ(j.segments(), 1u);
    EXPECT_EQ(segment_files(dir), 1u);
  }
  const auto check = [](const RecoveredState& state, const char* when) {
    EXPECT_EQ(state.jobs.count(1), 0u) << when;
    EXPECT_EQ(state.jobs.count(2), 0u) << when;
    EXPECT_EQ(state.jobs.count(3), 1u) << when;
    EXPECT_EQ(state.jobs.count(4), 1u) << when;
    EXPECT_EQ(state.jobs.count(5), 1u) << when;
    EXPECT_EQ(state.last_completed, 4u) << when;
  };
  check(Journal::replay(dir), "after compact()");
  { Journal reopened(o); }
  check(Journal::replay(dir), "after the boot compaction");
}

// Online compaction is amortized: a rewrite waits until more bytes have
// been appended than the previous rewrite wrote, so rewriting every
// retained report costs at most twice what was appended. (Compacting
// every max_segment_bytes of appends rewrote every retained report each
// time: quadratic in the number of reports.)
TEST(Journal, CompactionWritesAtMostTwiceWhatWasAppended) {
  const std::string dir = fresh_state_dir("amortized_compaction");
  JournalOptions o = options_for(dir);
  // The first write of each append call is its record; every other write
  // is compaction rewriting the table.
  bool next_is_record = false;
  std::size_t appended = 0;
  std::size_t rewritten = 0;
  o.write_override = [&](int fd, const void* buf, std::size_t count) -> ssize_t {
    const ssize_t n = ::write(fd, buf, count);
    if (n > 0) (next_is_record ? appended : rewritten) += static_cast<std::size_t>(n);
    next_is_record = false;
    return n;
  };
  Journal j(o);
  const std::string request = R"({"kind":"lockstep_batch","device_count":4096})";
  const std::string body(600'000, 'x');
  for (std::uint64_t id = 1; id <= 40; ++id) {
    next_is_record = true;
    j.append_admit(id, request);
    next_is_record = true;
    j.append_result(id, "succeeded", R"({"pass":true,"detail":""})", "",
                    "batch_report", R"({"pad":")" + body + R"("})");
    // A compaction the result made due runs on the writer after the
    // result's caller is released; let it finish, so the flag set next
    // marks the next record's write.
    j.sync();
  }
  EXPECT_FALSE(j.degraded());
  EXPECT_GT(j.compactions(), 0u);
  EXPECT_GT(rewritten, 0u);
  EXPECT_LE(rewritten, 2 * appended + o.max_segment_bytes)
      << "appended " << appended << " bytes, rewrote " << rewritten;
}

TEST(Journal, WriteFailureDegradesInsteadOfThrowing) {
  const std::string dir = fresh_state_dir("degrade");
  JournalOptions o = options_for(dir);
  int writes_allowed = 2;
  o.write_override = [&writes_allowed](int fd, const void* buf,
                                       std::size_t count) -> ssize_t {
    if (writes_allowed-- <= 0) {
      errno = ENOSPC;
      return -1;
    }
    return ::write(fd, buf, count);
  };
  Journal j(std::move(o));
  EXPECT_FALSE(j.degraded());

  j.append_admit(1, R"({"kind":"batch"})");
  j.append_admit(2, R"({"kind":"batch"})");
  j.append_admit(3, R"({"kind":"batch"})");  // the disk is now "full"
  EXPECT_TRUE(j.degraded());
  EXPECT_EQ(j.degraded_events(), 1u);
  EXPECT_EQ(j.segments(), 0u);

  // Post-degrade appends are silent no-ops — never a crash, never a
  // second warning — but a result's report is still packed for the
  // caller to retain.
  const service::ReportBuffer report = j.append_result(
      1, "succeeded", R"({"pass":true,"detail":""})", "", "batch_report", "{}");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->text(), "{}");
  j.append_clean_shutdown();
  j.sync();
  EXPECT_EQ(j.degraded_events(), 1u);
}

TEST(Journal, ShortWriteAlsoDegrades) {
  const std::string dir = fresh_state_dir("short_write");
  JournalOptions o = options_for(dir);
  bool failed_once = false;
  o.write_override = [&failed_once](int fd, const void* buf,
                                    std::size_t count) -> ssize_t {
    if (failed_once) return 0;  // EOF-style short write
    failed_once = true;
    return ::write(fd, buf, count);
  };
  Journal j(std::move(o));
  j.append_admit(1, R"({"kind":"batch"})");
  j.append_admit(2, R"({"kind":"batch"})");
  EXPECT_TRUE(j.degraded());
  EXPECT_EQ(j.degraded_events(), 1u);
}

// The writer thread. Each stall below is a write the test holds shut, so
// what returns while the writer is stuck is decided by the journal, not
// by timing.

TEST(Journal, CheckpointAppendReturnsWhileTheWriterIsStalled) {
  const std::string dir = fresh_state_dir("stalled_checkpoint");
  StalledWrite stall;
  Journal j(stalled_options(dir, stall));
  std::atomic<int> written{0};
  j.append_checkpoints(1, 2, {{0, R"({"die":0})"}}, [&written] { ++written; });
  ASSERT_TRUE(stall.entered.wait());  // the writer is inside that write
  j.append_checkpoints(1, 2, {{1, R"({"die":1})"}}, [&written] { ++written; });
  EXPECT_EQ(written.load(), 0);
  EXPECT_EQ(j.bytes(), 0u);
  EXPECT_GT(j.backlog_bytes(), 0u);

  stall.release.open();
  j.sync();
  EXPECT_EQ(written.load(), 2);
  EXPECT_EQ(j.backlog_bytes(), 0u);
  EXPECT_EQ(Journal::replay(dir).jobs.at(1).checkpoints.size(), 2u);
}

TEST(Journal, AdmitAndResultReturnOnlyOnceWrittenAndSynced) {
  const std::string dir = fresh_state_dir("synced_appends");
  StalledWrite stall;
  Journal j(stalled_options(dir, stall));
  j.append_checkpoint(1, 0, 1, "{}");
  ASSERT_TRUE(stall.entered.wait());

  const std::string request = R"({"kind":"batch"})";
  std::atomic<bool> admitted{false};
  std::thread admit([&] {
    j.append_admit(2, request);
    admitted = true;
  });
  // The admit is queued behind the stalled checkpoint: it cannot return.
  while (j.backlog_bytes() < 2 + request.size()) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  const std::uint64_t fsyncs = j.fsyncs();
  stall.release.open();
  admit.join();
  EXPECT_GT(j.fsyncs(), fsyncs);
  EXPECT_EQ(Journal::replay(dir).jobs.at(2).request_json, request);

  // With the writer free: written and fsynced by the time it returns.
  const std::uint64_t before = j.fsyncs();
  j.append_result(2, "succeeded", R"({"pass":true,"detail":""})", "",
                  "batch_report", "{}");
  EXPECT_EQ(j.fsyncs(), before + 1);
  EXPECT_TRUE(Journal::replay(dir).jobs.at(2).has_result);
}

TEST(Journal, AppendsBlockOnAFullBacklogAndResumeWhenTheWriterDrains) {
  const std::string dir = fresh_state_dir("full_backlog");
  StalledWrite stall;
  Journal j(stalled_options(dir, stall));
  const std::string& doc = padded_checkpoint();
  std::size_t unit = 0;
  j.append_checkpoint(1, unit++, 1000, doc);
  ASSERT_TRUE(stall.entered.wait());
  // Up to the bound, no append waits.
  while (j.backlog_bytes() + doc.size() <= Journal::kMaxBacklogBytes) {
    j.append_checkpoint(1, unit++, 1000, doc);
  }
  EXPECT_EQ(j.backlog_waits(), 0u);

  // One more does not fit: it waits until the writer drains, which the
  // opener lets it do only once the journal counts the wait.
  std::atomic<bool> appended{false};
  std::thread opener([&] {
    while (j.backlog_waits() == 0 && !appended) std::this_thread::yield();
    stall.release.open();
  });
  j.append_checkpoint(1, unit++, 1000, doc);
  appended = true;
  opener.join();
  EXPECT_EQ(j.backlog_waits(), 1u);
  EXPECT_LE(j.backlog_bytes(), Journal::kMaxBacklogBytes);

  j.sync();
  EXPECT_EQ(j.backlog_bytes(), 0u);
  EXPECT_EQ(Journal::replay(dir).jobs.at(1).checkpoints.size(), unit);
}

TEST(Journal, DegradedJournalNeverBlocksAnAppender) {
  const std::string dir = fresh_state_dir("degraded_backlog");
  StalledWrite stall;
  stall.fail = true;  // the stalled write fails once released
  Journal j(stalled_options(dir, stall));
  const std::string& doc = padded_checkpoint();
  std::size_t unit = 0;
  j.append_checkpoint(1, unit++, 1000, doc);
  ASSERT_TRUE(stall.entered.wait());
  // Queued next: a record whose `written` holds the writer once the
  // journal has degraded and dropped it, then records up to the bound.
  Gate dropped;
  Gate resume;
  j.append_checkpoints(1, 1000, {{unit++, doc}}, [&] {
    dropped.open();
    resume.wait();
  });
  while (j.backlog_bytes() + doc.size() <= Journal::kMaxBacklogBytes) {
    j.append_checkpoint(1, unit++, 1000, doc);
  }
  // An appender waiting on the full queue is let go by the failure.
  std::atomic<bool> waited{false};
  std::thread waiter([&] {
    j.append_checkpoint(1, 999, 1000, doc);
    waited = true;
  });
  std::thread failer([&] {
    while (j.backlog_waits() == 0 && !waited) std::this_thread::yield();
    stall.release.open();
  });
  waiter.join();
  failer.join();
  EXPECT_EQ(j.backlog_waits(), 1u);
  ASSERT_TRUE(dropped.wait());
  EXPECT_TRUE(j.degraded());

  // The writer is held with a full queue behind it, yet every append
  // returns at once: nothing is queued any more, and a checkpoint's
  // `written` runs on the appending thread. (The resumer lets the writer
  // go should an append wait after all, so a regression fails, not
  // hangs.)
  std::atomic<bool> appended{false};
  std::thread resumer([&] {
    while (j.backlog_waits() == 1 && !appended) std::this_thread::yield();
    resume.open();
  });
  const std::string big = R"({"pad":")" + std::string(Journal::kMaxBacklogBytes, 'x') + R"("})";
  std::thread::id written_on;
  j.append_checkpoints(1, 1000, {{unit++, big}}, [&written_on] {
    written_on = std::this_thread::get_id();
  });
  j.append_admit(2, R"({"kind":"batch"})");
  const service::ReportBuffer report = j.append_result(
      2, "succeeded", R"({"pass":true,"detail":""})", "", "batch_report", big);
  j.append_clean_shutdown();
  j.compact();
  j.sync();
  appended = true;
  resumer.join();
  EXPECT_EQ(j.backlog_waits(), 1u);
  EXPECT_EQ(written_on, std::this_thread::get_id());
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->text(), big);
  EXPECT_EQ(j.degraded_events(), 1u);
}

// The writer is held inside the first record's `written` while the rest
// queue behind it, and let go just before the journal is destroyed: the
// destructor still writes every queued record.
TEST(Journal, DestructorWritesEveryQueuedRecord) {
  const std::string dir = fresh_state_dir("destructor_drains");
  {
    Gate held;
    Gate resume;
    Journal j(options_for(dir));
    j.append_checkpoints(1, 50, {{0, R"({"die":0})"}}, [&] {
      held.open();
      resume.wait();
    });
    ASSERT_TRUE(held.wait());
    for (std::size_t unit = 1; unit < 50; ++unit) {
      j.append_checkpoint(1, unit, 50, R"({"die":)" + std::to_string(unit) + "}");
    }
    EXPECT_GT(j.backlog_bytes(), 0u);
    resume.open();
  }
  const RecoveredState state = Journal::replay(dir);
  EXPECT_EQ(state.skipped_records, 0u);
  ASSERT_EQ(state.jobs.at(1).checkpoints.size(), 50u);
  EXPECT_EQ(state.jobs.at(1).checkpoints.at(49), R"({"die":49})");
}

// The result that crosses the compaction threshold is released first;
// the writer compacts afterwards, holding later records back meanwhile.
TEST(Journal, ResultCrossingTheThresholdReturnsBeforeTheCompaction) {
  const std::string dir = fresh_state_dir("compaction_after_release");
  StalledWrite stall;
  stall.stall_at = 3;  // admit, result, then the compaction's first line
  JournalOptions o = stalled_options(dir, stall);
  o.max_segment_bytes = 100;  // the admit stays under it, the result not
  Journal j(o);
  j.append_admit(1, R"({"kind":"batch"})");
  const service::ReportBuffer report =
      j.append_result(1, "succeeded", R"({"pass":true,"detail":""})", "",
                      "batch_report", R"({"pad":")" + std::string(200, 'x') + R"("})");
  EXPECT_EQ(j.compactions(), 0u);
  ASSERT_TRUE(stall.entered.wait());  // the compaction is under way now
  EXPECT_EQ(j.compactions(), 0u);
  stall.release.open();
  j.sync();
  EXPECT_EQ(j.compactions(), 1u);
  EXPECT_EQ(segment_files(dir), 1u);
  const RecoveredState state = Journal::replay(dir);
  ASSERT_EQ(state.jobs.count(1), 1u);
  EXPECT_EQ(state.jobs.at(1).report_json->text(), report->text());
}

// Everything JobManager::journal_status() reads for /metrics and
// /healthz returns while the writer sits in a stalled write, and so does
// forget(), which the JobManager calls under its own lock.
TEST(Journal, StatusReadsAndForgetDoNotWaitForAStalledWrite) {
  const std::string dir = fresh_state_dir("status_while_stalled");
  StalledWrite stall;
  Journal j(stalled_options(dir, stall));
  j.append_checkpoint(1, 0, 1, "{}");
  ASSERT_TRUE(stall.entered.wait());
  EXPECT_FALSE(j.degraded());
  EXPECT_EQ(j.degraded_events(), 0u);
  EXPECT_EQ(j.bytes(), 0u);
  EXPECT_EQ(j.segments(), 1u);
  EXPECT_EQ(j.fsyncs(), 1u);  // the boot compaction's
  EXPECT_GE(j.fsync_seconds(), 0.0);
  EXPECT_EQ(j.compactions(), 0u);
  EXPECT_EQ(j.compaction_seconds(), 0.0);
  EXPECT_EQ(j.backlog_bytes(), 2u);
  EXPECT_EQ(j.backlog_waits(), 0u);
  EXPECT_FALSE(j.recovered().clean_shutdown);
  j.forget(7);
  stall.release.open();
}

TEST(Journal, UnwritableStateDirThrowsStructuredInternal) {
  // A path under a regular file can never become a directory.
  const std::string file = testing::TempDir() + "/msbist_journal_blocker";
  { std::ofstream out(file); out << "x"; }
  JournalOptions o;
  o.state_dir = file + "/nested";
  try {
    Journal j(std::move(o));
    FAIL() << "expected core::SolverError";
  } catch (const core::SolverError& e) {
    EXPECT_EQ(e.code(), core::ErrorCode::kInternal);
  }
}

}  // namespace
