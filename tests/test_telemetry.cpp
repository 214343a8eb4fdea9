// Live telemetry registry (DESIGN.md §16): lock-free per-thread lanes,
// log-bucketed histograms, snapshot/merge semantics, the disabled-path
// no-perturbation guarantee, and the HTTP exporter round-trip.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/metric_names.hpp"
#include "common/telemetry.hpp"
#include "linalg/gemm.hpp"
#include "obs/exporter.hpp"
#include "parallel/thread_team.hpp"

namespace obs = xfci::obs;
namespace m = xfci::obs::metric;

namespace {

// Local specs: tests exercise registry mechanics, not the production
// metric surface (which lives in metric_names.hpp and is covered by the
// `telemetry` lint rule).
constexpr m::MetricSpec kTestCounter{"xfci_test_events_total", "events"};
constexpr m::MetricSpec kTestGauge{"xfci_test_level", "level"};
constexpr m::MetricSpec kTestHist{"xfci_test_latency_seconds", "latency"};

TEST(Telemetry, DisabledHandlesDropWrites) {
  obs::Registry reg;  // disabled until set_enabled(true)
  obs::Counter c = reg.counter(kTestCounter);
  obs::Gauge g = reg.gauge(kTestGauge);
  obs::Histogram h = reg.histogram(kTestHist);
  c.inc(5);
  g.set(3.0);
  h.observe(0.01);
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.find(kTestCounter.name)->value, 0u);
  EXPECT_EQ(snap.find(kTestGauge.name)->gauge, 0.0);
  EXPECT_EQ(snap.find(kTestHist.name)->count, 0u);
}

TEST(Telemetry, DefaultConstructedHandlesAreInert) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  c.inc();
  g.add(1.0);
  h.observe(1.0);  // must not crash
}

TEST(Telemetry, RegistrationDeduplicates) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Counter a = reg.counter(kTestCounter, {{m::kLabelStage, "x"}});
  obs::Counter b = reg.counter(kTestCounter, {{m::kLabelStage, "x"}});
  obs::Counter other = reg.counter(kTestCounter, {{m::kLabelStage, "y"}});
  a.inc(2);
  b.inc(3);
  other.inc(7);
  EXPECT_EQ(reg.num_metrics(), 2u);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find(kTestCounter.name, {{m::kLabelStage, "x"}})->value,
            5u);
  EXPECT_EQ(snap.find(kTestCounter.name, {{m::kLabelStage, "y"}})->value,
            7u);
}

// The heart of the lane design: concurrent increments from a real thread
// team must be exact, not approximate — each thread owns its cells.
TEST(Telemetry, ConcurrentIncrementsAreExact) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Counter c = reg.counter(kTestCounter);
  obs::Histogram h = reg.histogram(kTestHist);
  constexpr std::size_t kOps = 100000;
  xfci::pv::ThreadTeam team(4);
  team.for_dynamic(kOps, [&](std::size_t i, std::size_t) {
    c.inc();
    if (i % 100 == 0) h.observe(1e-5);
  });
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find(kTestCounter.name)->value, kOps);
  EXPECT_EQ(snap.find(kTestHist.name)->count, kOps / 100);
}

TEST(Telemetry, GaugeAddIsExactForIntegers) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Gauge g = reg.gauge(kTestGauge);
  constexpr std::size_t kOps = 20000;
  xfci::pv::ThreadTeam team(4);
  team.for_dynamic(kOps, [&](std::size_t, std::size_t) { g.add(1.0); });
  team.for_dynamic(kOps / 2,
                   [&](std::size_t, std::size_t) { g.add(-1.0); });
  EXPECT_EQ(reg.snapshot().find(kTestGauge.name)->gauge,
            static_cast<double>(kOps - kOps / 2));
}

TEST(Telemetry, HistogramBucketBoundaries) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Histogram h = reg.histogram(kTestHist);
  const std::vector<double>& bounds = obs::histogram_bounds();
  ASSERT_EQ(bounds.size(), obs::kHistogramBounds);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
  EXPECT_DOUBLE_EQ(bounds[1], 2e-6);

  h.observe(1e-6);        // == bound 0: le semantics, lands in bucket 0
  h.observe(1.5e-6);      // (bound0, bound1]: bucket 1
  h.observe(bounds[5]);   // == bound 5: bucket 5
  h.observe(0.0);         // below everything: bucket 0
  h.observe(bounds.back() * 2.0);  // beyond the last bound: overflow

  const obs::Snapshot snap = reg.snapshot();
  const obs::SnapshotMetric* hist = snap.find(kTestHist.name);
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->buckets.size(), obs::kHistogramBounds + 1);
  EXPECT_EQ(hist->buckets[0], 2u);
  EXPECT_EQ(hist->buckets[1], 1u);
  EXPECT_EQ(hist->buckets[5], 1u);
  EXPECT_EQ(hist->buckets.back(), 1u);
  EXPECT_EQ(hist->count, 5u);
  EXPECT_NEAR(hist->sum,
              1e-6 + 1.5e-6 + bounds[5] + 0.0 + bounds.back() * 2.0, 1e-12);
}

obs::Snapshot make_snapshot(std::uint64_t events, double level,
                            std::uint64_t slow) {
  obs::Registry reg;
  reg.set_enabled(true);
  reg.counter(kTestCounter).inc(events);
  reg.gauge(kTestGauge).set(level);
  obs::Histogram h = reg.histogram(kTestHist);
  for (std::uint64_t i = 0; i < slow; ++i) h.observe(0.5);
  return reg.snapshot();
}

TEST(Telemetry, MergeIsAssociativeAndCommutative) {
  const obs::Snapshot a = make_snapshot(1, 5.0, 2);
  const obs::Snapshot b = make_snapshot(10, 3.0, 0);
  const obs::Snapshot c = make_snapshot(100, 4.0, 7);

  const obs::Snapshot left = obs::merge(obs::merge(a, b), c);
  const obs::Snapshot right = obs::merge(a, obs::merge(b, c));
  ASSERT_EQ(left.metrics.size(), right.metrics.size());
  for (std::size_t i = 0; i < left.metrics.size(); ++i) {
    EXPECT_EQ(left.metrics[i].name, right.metrics[i].name);
    EXPECT_EQ(left.metrics[i].value, right.metrics[i].value);
    EXPECT_EQ(left.metrics[i].buckets, right.metrics[i].buckets);
    EXPECT_EQ(left.metrics[i].count, right.metrics[i].count);
    EXPECT_EQ(left.metrics[i].gauge, right.metrics[i].gauge);
  }
  EXPECT_EQ(left.find(kTestCounter.name)->value, 111u);
  EXPECT_EQ(left.find(kTestGauge.name)->gauge, 5.0);  // gauges take max
  EXPECT_EQ(left.find(kTestHist.name)->count, 9u);

  const obs::Snapshot ab = obs::merge(a, b);
  const obs::Snapshot ba = obs::merge(b, a);
  EXPECT_EQ(ab.find(kTestCounter.name)->value,
            ba.find(kTestCounter.name)->value);
  EXPECT_EQ(ab.find(kTestHist.name)->buckets,
            ba.find(kTestHist.name)->buckets);
}

TEST(Telemetry, MergeUnionsDisjointSeries) {
  obs::Registry ra;
  ra.set_enabled(true);
  ra.counter(kTestCounter, {{m::kLabelStage, "a"}}).inc(1);
  obs::Registry rb;
  rb.set_enabled(true);
  rb.counter(kTestCounter, {{m::kLabelStage, "b"}}).inc(2);
  const obs::Snapshot merged = obs::merge(ra.snapshot(), rb.snapshot());
  ASSERT_EQ(merged.metrics.size(), 2u);
  EXPECT_EQ(merged.find(kTestCounter.name, {{m::kLabelStage, "a"}})->value,
            1u);
  EXPECT_EQ(merged.find(kTestCounter.name, {{m::kLabelStage, "b"}})->value,
            2u);
}

TEST(Telemetry, JsonAndPrometheusRenderDeterministically) {
  const obs::Snapshot snap = make_snapshot(3, 2.5, 1);
  const std::string j1 = obs::telemetry_json(snap, 123.25);
  const std::string j2 = obs::telemetry_json(snap, 123.25);
  EXPECT_EQ(j1, j2);
  EXPECT_NE(j1.find("\"schema\":\"xfci-telemetry-v1\""), std::string::npos);
  EXPECT_NE(j1.find("\"wall_unix_seconds\":123.25"), std::string::npos);

  const std::string text = obs::prometheus_text(snap);
  EXPECT_EQ(text, obs::prometheus_text(snap));
  EXPECT_NE(text.find("# TYPE xfci_test_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("xfci_test_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 1"), std::string::npos);
}

// Snapshots race the writers by design; counters must only ever grow
// between successive snapshots.  Run under tsan this is also the data
// race stress for the lane protocol.
TEST(Telemetry, SnapshotsAreMonotonicUnderConcurrentWrites) {
  obs::Registry reg;
  reg.set_enabled(true);
  obs::Counter c = reg.counter(kTestCounter);
  obs::Histogram h = reg.histogram(kTestHist);
  std::uint64_t last_value = 0;
  std::uint64_t last_count = 0;
  bool monotonic = true;
  xfci::pv::ThreadTeam team(4);
  team.for_dynamic(4, [&](std::size_t index, std::size_t) {
    if (index == 0) {
      // One index snapshots in a loop while the others write.
      for (int i = 0; i < 200; ++i) {
        const obs::Snapshot snap = reg.snapshot();
        const std::uint64_t v = snap.find(kTestCounter.name)->value;
        const std::uint64_t n = snap.find(kTestHist.name)->count;
        if (v < last_value || n < last_count) monotonic = false;
        last_value = v;
        last_count = n;
      }
    } else {
      for (int i = 0; i < 50000; ++i) {
        c.inc();
        h.observe(1e-4);
      }
    }
  });
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(reg.snapshot().find(kTestCounter.name)->value, 3u * 50000u);
}

// The global-registry no-perturbation contract, at the layer that is
// instrumented the deepest: gemm must produce bitwise-identical output
// whether telemetry is enabled or not.
TEST(Telemetry, EnabledTelemetryDoesNotPerturbGemm) {
  const bool was_enabled = xfci::obs::telemetry().enabled();
  constexpr std::size_t kDim = 64;
  std::vector<double> a(kDim * kDim), b(kDim * kDim);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.25 * static_cast<double>(i % 17) - 1.0;
    b[i] = 0.125 * static_cast<double>(i % 23) - 0.5;
  }
  std::vector<double> c_off(kDim * kDim, 0.0), c_on(kDim * kDim, 0.0);

  xfci::obs::telemetry().set_enabled(false);
  xfci::linalg::gemm(false, false, kDim, kDim, kDim, 1.0, a.data(), kDim,
                     b.data(), kDim, 0.0, c_off.data(), kDim);
  xfci::obs::telemetry().set_enabled(true);
  xfci::linalg::gemm(false, false, kDim, kDim, kDim, 1.0, a.data(), kDim,
                     b.data(), kDim, 0.0, c_on.data(), kDim);
  xfci::obs::telemetry().set_enabled(was_enabled);

  EXPECT_EQ(0, std::memcmp(c_off.data(), c_on.data(),
                           c_off.size() * sizeof(double)));
  // The enabled pass must have shown up in the global registry.
  const obs::Snapshot global = xfci::obs::telemetry().snapshot();
  const obs::SnapshotMetric* calls = global.find(m::kGemmCalls.name);
  ASSERT_NE(calls, nullptr);
  EXPECT_GE(calls->value, 1u);
}

// ----------------------------------------------------------- exporter --

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(Exporter, ServesMetricsHealthAndSnapshot) {
  obs::Registry reg;
  reg.set_enabled(true);
  reg.counter(kTestCounter).inc(42);
  bool healthy = true;
  obs::ExporterOptions opt;
  opt.port = 0;  // ephemeral
  opt.healthy = [&healthy] { return healthy; };
  obs::Exporter exporter(reg, std::move(opt));
  ASSERT_GT(exporter.port(), 0);

  const std::string metrics = http_get(exporter.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("xfci_test_events_total 42"), std::string::npos);

  EXPECT_NE(http_get(exporter.port(), "/healthz").find("200 OK"),
            std::string::npos);
  healthy = false;
  EXPECT_NE(http_get(exporter.port(), "/healthz").find("503"),
            std::string::npos);

  const std::string snap = http_get(exporter.port(), "/snapshot.json");
  EXPECT_NE(snap.find("xfci-telemetry-v1"), std::string::npos);

  EXPECT_NE(http_get(exporter.port(), "/nope").find("404"),
            std::string::npos);
  exporter.stop();
}

TEST(Exporter, WritesFinalSnapshotFileOnStop) {
  obs::Registry reg;
  reg.set_enabled(true);
  reg.counter(kTestCounter).inc(7);
  const std::string path =
      ::testing::TempDir() + "/xfci_test_telemetry_snap.json";
  {
    obs::ExporterOptions opt;
    opt.snapshot_path = path;
    obs::Exporter exporter(reg, std::move(opt));
  }  // destructor stops and writes the final snapshot
  FILE* fh = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fh, nullptr);
  char buf[4096];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, fh);
  std::fclose(fh);
  buf[n] = '\0';
  const std::string doc(buf);
  EXPECT_NE(doc.find("xfci-telemetry-v1"), std::string::npos);
  EXPECT_NE(doc.find("xfci_test_events_total"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Exporter, StartTelemetryHonoursWantedFlag) {
  // Not wanted: no exporter, registry untouched.
  EXPECT_EQ(obs::start_telemetry(false, 0, ""), nullptr);
  // Out-of-range port is a contract violation even when not wanted.
  EXPECT_THROW((void)obs::start_telemetry(false, 65536, ""), xfci::Error);
}

}  // namespace
