#pragma once
// Structured tracing: per-track span/instant event recording with a
// Chrome-trace-event JSON sink (loads in Perfetto / chrome://tracing).
//
// Design (DESIGN.md §11):
//
//  * A Tracer owns one append-only event lane per *track*.  A track maps
//    to a Chrome "tid": one per simulated MSP rank (or pool worker in
//    the threads backend) plus one control track for driver/solver-side
//    spans.  Concurrent emitters never share a track — rank bodies in
//    for_ranks() are rank-disjoint, pool stages are worker-id-disjoint,
//    and the control track is only written between parallel regions —
//    so recording is lock-free by construction: a plain vector append
//    with no atomics on the hot path.
//
//  * Timestamps are doubles in the *owning backend's clock domain*:
//    simulated seconds in the simulated backend (traces are
//    deterministic and snapshot-testable), wall seconds since backend
//    construction in the threads backend.  The Tracer never
//    reads a clock itself; backends install one via set_clock() for
//    control-track emitters (solver iterations, sigma dispatch).
//
//  * Runs partition a trace file into Chrome "pid"s: a bench sweep calls
//    begin_run() per row so rows with independent clocks do not share a
//    timeline.  Single-run drivers never need to call it.
//
//  * Disabled tracing is free: a Tracer that was never enable()d drops
//    events behind one predicted branch, and a no-flag run is
//    bitwise-identical to an untraced one: tracing only *observes*
//    clocks, it never charges them.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace xfci::obs {

/// One recorded event.  `args` is a pre-rendered JSON object ("{...}")
/// or empty; rendering at emission keeps the sink a pure serializer.
struct TraceEvent {
  enum class Phase : char { kSpan = 'X', kInstant = 'i' };
  std::string name;
  const char* category = "";
  Phase phase = Phase::kSpan;
  double t0 = 0.0;  // seconds in the emitting backend's clock domain
  double t1 = 0.0;  // == t0 for instants
  std::uint32_t run = 0;
  std::string args;
};

/// Renders a span/instant args payload: trace_args({{"E", -75.4}}) ->
/// R"({"E":-75.4})".  Values go through the deterministic json_number.
std::string trace_args(
    std::initializer_list<std::pair<const char*, double>> kv);

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// True once enable() has been called; every emission site checks this
  /// first so a null/disabled tracer costs one branch.
  bool enabled() const { return enabled_; }

  /// Turns recording on and guarantees at least `num_tracks` lanes.
  /// Grows but never shrinks or clears, so a backend attaching mid-trace
  /// (bench sweeps reuse one Tracer across backends) keeps prior events.
  void enable(std::size_t num_tracks);

  /// Starts a new run (Chrome pid); subsequent events and track names
  /// belong to it.  Returns the run id.  Without any begin_run() call
  /// all events land in an implicit run 0 named "run".
  std::uint32_t begin_run(std::string name);

  /// Human-readable track label for the current run ("rank 3",
  /// "worker 0", "driver").
  void name_track(std::size_t track, std::string name);

  /// The control track (driver/solver-side spans).  Set by the backend
  /// in set_tracer(); emitters between parallel regions use it.
  void set_control_track(std::size_t track) { control_ = track; }
  std::size_t control_track() const { return control_; }

  /// Clock for control-track emitters that have no rank context (solver
  /// iterations).  Backends install their own domain: simulated elapsed
  /// seconds or wall seconds.
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }
  double now() const { return clock_ ? clock_() : 0.0; }

  /// Records a completed span [t0, t1] on `track`.  Safe to call
  /// concurrently with emissions on *other* tracks (see header comment);
  /// never call for the same track from two threads at once.
  void span(std::size_t track, const char* category, std::string name,
            double t0, double t1, std::string args = {});

  /// Records a zero-duration instant event at `t` on `track`.
  void instant(std::size_t track, const char* category, std::string name,
               double t, std::string args = {});

  std::size_t num_tracks() const { return lanes_.size(); }
  const std::vector<TraceEvent>& events(std::size_t track) const;
  std::size_t total_events() const;

  /// The full Chrome-trace-event document ({"traceEvents":[...]}).
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

 private:
  // Concurrency contract (capability-negative, DESIGN.md §13): the Tracer
  // deliberately owns no mutex.  Two access classes share the object:
  //  * The lock-free append path — span()/instant() — is safe because
  //    concurrent emitters never share a track (rank bodies are rank-
  //    disjoint, pool stages worker-disjoint, the control track written
  //    only between regions), so each lane has at most one writer.
  //  * The lane/run registry — enable(), begin_run(), name_track(),
  //    set_clock(), the readers and the JSON sink — mutates or walks
  //    every lane and is therefore driver-thread-only, called strictly
  //    outside parallel regions (backends do this in set_tracer()).
  // A mutex on the append path would serialize the very workers the trace
  // is measuring; the track-disjointness invariant is the capability here,
  // and it is enforced by construction in the Ddi backends.

  // One lane per track, cache-line separated so concurrent appends to
  // neighbouring lanes do not false-share.
  struct alignas(64) Lane {
    std::vector<TraceEvent> events;
  };
  struct Run {
    std::uint32_t id = 0;
    std::string name;
    std::vector<std::string> track_names;  // indexed by track, may be short
  };
  Run& current_run();

  bool enabled_ = false;
  std::vector<Lane> lanes_;
  std::vector<Run> runs_;
  std::size_t control_ = 0;
  std::function<double()> clock_;
};

}  // namespace xfci::obs
