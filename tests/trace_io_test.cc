/**
 * @file
 * Trace CSV persistence tests: round-trip fidelity, quoting, malformed
 * input rejection, and file I/O.
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "workload/trace_io.h"

namespace tetri::workload {
namespace {

TEST(TraceIoTest, RoundTripPreservesEveryField)
{
  TraceSpec spec;
  spec.num_requests = 50;
  spec.mix = ResolutionMix::Skewed();
  auto original = BuildTrace(spec);

  auto replayed = TraceFromCsv(TraceToCsv(original));
  ASSERT_EQ(replayed.requests.size(), original.requests.size());
  for (std::size_t i = 0; i < original.requests.size(); ++i) {
    const auto& a = original.requests[i];
    const auto& b = replayed.requests[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arrival_us, b.arrival_us);
    EXPECT_EQ(a.deadline_us, b.deadline_us);
    EXPECT_EQ(a.resolution, b.resolution);
    EXPECT_EQ(a.num_steps, b.num_steps);
    EXPECT_EQ(a.prompt, b.prompt);
  }
}

TEST(TraceIoTest, PromptsWithCommasAndQuotesSurvive)
{
  Trace trace;
  TraceRequest req;
  req.id = 0;
  req.arrival_us = 10;
  req.deadline_us = 20;
  req.resolution = costmodel::Resolution::k512;
  req.num_steps = 5;
  req.prompt = "a \"quoted\" fox, with commas, and more";
  trace.requests.push_back(req);

  auto replayed = TraceFromCsv(TraceToCsv(trace));
  ASSERT_EQ(replayed.requests.size(), 1u);
  EXPECT_EQ(replayed.requests[0].prompt, req.prompt);
}

TEST(TraceIoTest, EmptyTraceRoundTrips)
{
  Trace trace;
  auto replayed = TraceFromCsv(TraceToCsv(trace));
  EXPECT_TRUE(replayed.requests.empty());
}

TEST(TraceIoTest, FileRoundTrip)
{
  TraceSpec spec;
  spec.num_requests = 10;
  auto original = BuildTrace(spec);
  const std::string path = "/tmp/tetri_trace_io_test.csv";
  ASSERT_TRUE(SaveTrace(original, path));
  auto loaded = LoadTrace(path);
  ASSERT_EQ(loaded.requests.size(), 10u);
  EXPECT_EQ(loaded.requests[3].prompt, original.requests[3].prompt);
  std::remove(path.c_str());
}

TEST(TraceIoDeathTest, MalformedRowIsFatal)
{
  EXPECT_DEATH(
      TraceFromCsv("id,arrival_us,deadline_us,resolution,num_steps,"
                   "prompt\n1,2,3\n"),
      "fields");
}

TEST(TraceIoDeathTest, UnknownResolutionIsFatal)
{
  EXPECT_DEATH(
      TraceFromCsv("id,arrival_us,deadline_us,resolution,num_steps,"
                   "prompt\n1,0,100,333x333,5,\"p\"\n"),
      "unknown resolution");
}

TEST(TraceIoDeathTest, InconsistentDeadlineIsFatal)
{
  EXPECT_DEATH(
      TraceFromCsv("id,arrival_us,deadline_us,resolution,num_steps,"
                   "prompt\n1,100,50,256x256,5,\"p\"\n"),
      "inconsistent");
}

TEST(TraceIoDeathTest, OutOfOrderArrivalIsFatal)
{
  EXPECT_DEATH(
      TraceFromCsv("id,arrival_us,deadline_us,resolution,num_steps,"
                   "prompt\n1,500,900,256x256,5,\"p\"\n"
                   "2,100,900,256x256,5,\"p\"\n"),
      "arrives before the row above it");
}

}  // namespace
}  // namespace tetri::workload
