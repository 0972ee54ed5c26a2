#include "helpers.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0}, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(800, 0.99), 8u);
  EXPECT_EQ(tail_percentile(1000), 0.99);
  EXPECT_EQ(tail_percentile(800), 0.95);  // p99 leaves only 8 above it
  EXPECT_EQ(tail_percentile(10500), 0.999);
  EXPECT_EQ(tail_percentile(205), 0.95);
  EXPECT_EQ(tail_percentile(105), 0.90);
  EXPECT_EQ(tail_percentile(20), 0.50);
  EXPECT_FALSE(tail_percentile(19).has_value());
  EXPECT_FALSE(tail_percentile(0).has_value());
}

TEST(ProcStatus, ParsesVmHwm) {
  const char* status =
      "Name:\tmsbistd\nVmPeak:\t  600000 kB\nVmHWM:\t  495012 kB\n"
      "VmRSS:\t  101 kB\n";
  EXPECT_EQ(parse_vmhwm_kb(status), 495012u);
  EXPECT_EQ(parse_status_kb(status, "VmRSS"), 101u);
  EXPECT_FALSE(parse_vmhwm_kb("Name:\tx\nVmHWMx:\t1 kB\n").has_value());
  EXPECT_FALSE(parse_vmhwm_kb("VmHWM:\tlots\n").has_value());
  EXPECT_FALSE(parse_vmhwm_kb("").has_value());
}

TEST(ProcStat, SumsUtimeAndStime) {
  // Fields 14 and 15 are 250 and 31; the command name holds ") (" to
  // show fields are counted from the last ')'.
  const char* stat =
      "4242 (ms) (bistd) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 31 0 0 "
      "20 0 9 0 12345 1000000 2000 18446744073709551615\n";
  EXPECT_EQ(parse_stat_cpu_ticks(stat), 281u);
  EXPECT_FALSE(parse_stat_cpu_ticks("4242 (msbistd) S 1 2 3").has_value());
  EXPECT_FALSE(parse_stat_cpu_ticks("no parenthesis").has_value());
}

TEST(MetricName, AcceptsOnlyTheMetricAlphabet) {
  EXPECT_TRUE(valid_metric_name("service.http.self_ms"));
  EXPECT_TRUE(valid_metric_name("job_latency_p50_ms"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("with space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

}  // namespace
}  // namespace perfbench
