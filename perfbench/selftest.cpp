// Tests of the benchmark's own machinery: the allocation counter, span
// self time and allocation attribution, and the percentile arithmetic.
#include <gtest/gtest.h>

#include <new>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "spans.h"

namespace pb = perfbench;

namespace {

// Direct operator new calls, unlike new-expressions, may not be elided.
void* volatile g_sink = nullptr;

void allocate_and_free(std::size_t bytes) {
  g_sink = ::operator new(bytes);
  ::operator delete(g_sink);
}

TEST(AllocCount, CountsCallsAndBytes) {
  const pb::AllocTotals before = pb::alloc_totals();
  allocate_and_free(1000);
  allocate_and_free(24);
  const pb::AllocTotals delta = pb::alloc_totals() - before;
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.bytes, 1024u);
}

TEST(AllocCount, CountsArrayAlignedAndNothrowForms) {
  const pb::AllocTotals before = pb::alloc_totals();
  g_sink = ::operator new[](100);
  ::operator delete[](g_sink);
  g_sink = ::operator new(256, std::align_val_t{64});
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g_sink) % 64, 0u);
  ::operator delete(g_sink, std::align_val_t{64});
  g_sink = ::operator new(8, std::nothrow);
  ::operator delete(g_sink);
  const pb::AllocTotals delta = pb::alloc_totals() - before;
  EXPECT_EQ(delta.count, 3u);
  EXPECT_EQ(delta.bytes, 364u);
}

TEST(AllocCount, SumsEveryThread) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  const pb::AllocTotals before = pb::alloc_totals();
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        void* p = ::operator new(64);
        ::operator delete(p);
      }
    });
  for (std::thread& t : threads) t.join();
  const pb::AllocTotals delta = pb::alloc_totals() - before;
  // std::thread start-up allocates a little of its own.
  EXPECT_GE(delta.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_LE(delta.count,
            static_cast<std::uint64_t>(kThreads * kPerThread + 4 * kThreads));
  EXPECT_GE(delta.bytes, static_cast<std::uint64_t>(kThreads * kPerThread * 64));
}

TEST(Spans, SelfTimeIsDurationMinusDirectChildren) {
  pb::SpanRecorder rec;
  rec.set_armed(true);
  {
    pb::SpanScope outer(rec, "outer");
    {
      pb::SpanScope a(rec, "child");
      pb::SpanScope grand(rec, "grandchild");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    {
      pb::SpanScope b(rec, "child");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(rec.spans().size(), 4u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, 1);
  EXPECT_EQ(rec.spans()[3].parent, 0);

  const std::vector<pb::Span>& s = rec.spans();
  auto ns = [&](std::size_t i) { return s[i].end_ns - s[i].start_ns; };
  const std::vector<double> outer_self = rec.self_ms("outer");
  ASSERT_EQ(outer_self.size(), 1u);
  // Grandchildren are not subtracted from the outer span.
  EXPECT_DOUBLE_EQ(outer_self[0],
                   static_cast<double>(ns(0) - ns(1) - ns(3)) / 1e6);
  EXPECT_GE(outer_self[0], 2.0);
  const std::vector<double> child_self = rec.self_ms("child");
  ASSERT_EQ(child_self.size(), 2u);
  EXPECT_DOUBLE_EQ(child_self[0], static_cast<double>(ns(1) - ns(2)) / 1e6);
  EXPECT_DOUBLE_EQ(child_self[1], static_cast<double>(ns(3)) / 1e6);
  EXPECT_TRUE(rec.self_ms("absent").empty());
}

TEST(Spans, DisarmedRecorderRecordsNothing) {
  pb::SpanRecorder rec;
  {
    pb::SpanScope span(rec, "work");
  }
  EXPECT_TRUE(rec.spans().empty());
}

TEST(Spans, AttributesAllocationsToTheEnclosingSpans) {
  pb::SpanRecorder rec;
  rec.reserve(16);
  rec.set_armed(true);
  (void)rec.intern("outer");
  (void)rec.intern("inner");
  {
    pb::SpanScope outer(rec, "outer");
    allocate_and_free(100);
    pb::SpanScope inner(rec, "inner");
    allocate_and_free(512);
  }
  ASSERT_EQ(rec.allocs("inner").size(), 1u);
  EXPECT_EQ(rec.allocs("inner")[0].count, 1u);
  EXPECT_EQ(rec.allocs("inner")[0].bytes, 512u);
  EXPECT_EQ(rec.allocs("outer")[0].count, 2u);
  EXPECT_EQ(rec.allocs("outer")[0].bytes, 612u);
}

TEST(Spans, OutOfOrderCloseThrows) {
  pb::SpanRecorder rec;
  rec.set_armed(true);
  const std::size_t a = rec.open(rec.intern("a"));
  rec.open(rec.intern("b"));
  EXPECT_THROW(rec.close(a), std::logic_error);
}

TEST(Spans, ChromeTraceNamesEverySpan) {
  pb::SpanRecorder rec;
  rec.set_armed(true);
  {
    pb::SpanScope span(rec, "isp.expose");
  }
  const std::string json = rec.chrome_trace_json();
  EXPECT_NE(json.find("\"name\":\"isp.expose\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(pb::percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 0.99), 3.97);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(pb::median({5.0, 1.0, 3.0}), 3.0);
}

TEST(Percentile, MatchesPythonQuantilesInclusive) {
  // statistics.quantiles(range(1, 11), n=4, method="inclusive")
  // == [3.25, 5.5, 7.75]
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 0.25), 3.25);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 0.50), 5.5);
  EXPECT_DOUBLE_EQ(pb::percentile(v, 0.75), 7.75);
}

TEST(Percentile, EdgeCases) {
  EXPECT_DOUBLE_EQ(pb::percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(pb::percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(pb::relative_range({}), 0.0);
  EXPECT_DOUBLE_EQ(pb::relative_range({9.0, 10.0, 11.0}), 0.2);
  EXPECT_DOUBLE_EQ(pb::relative_range({0.0, 0.0}), 0.0);
}

}  // namespace
