#include "common/trace.hpp"

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace xfci::obs {

std::string trace_args(
    std::initializer_list<std::pair<const char*, double>> kv) {
  JsonWriter w;
  w.begin_object();
  for (const auto& [k, v] : kv) {
    w.key(k);
    w.num(v);
  }
  w.end_object();
  return w.take();
}

void Tracer::enable(std::size_t num_tracks) {
  enabled_ = true;
  if (lanes_.size() < num_tracks) lanes_.resize(num_tracks);
}

Tracer::Run& Tracer::current_run() {
  if (runs_.empty()) runs_.push_back({0, "run", {}});
  return runs_.back();
}

std::uint32_t Tracer::begin_run(std::string name) {
  const std::uint32_t id =
      runs_.empty() ? 0 : runs_.back().id + 1;
  runs_.push_back({id, std::move(name), {}});
  return id;
}

void Tracer::name_track(std::size_t track, std::string name) {
  Run& run = current_run();
  if (run.track_names.size() <= track) run.track_names.resize(track + 1);
  run.track_names[track] = std::move(name);
}

void Tracer::span(std::size_t track, const char* category, std::string name,
                  double t0, double t1, std::string args) {
  if (!enabled_ || track >= lanes_.size()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = category;
  ev.phase = TraceEvent::Phase::kSpan;
  ev.t0 = t0;
  ev.t1 = t1;
  ev.run = runs_.empty() ? 0 : runs_.back().id;
  ev.args = std::move(args);
  lanes_[track].events.push_back(std::move(ev));
}

void Tracer::instant(std::size_t track, const char* category,
                     std::string name, double t, std::string args) {
  if (!enabled_ || track >= lanes_.size()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = category;
  ev.phase = TraceEvent::Phase::kInstant;
  ev.t0 = t;
  ev.t1 = t;
  ev.run = runs_.empty() ? 0 : runs_.back().id;
  ev.args = std::move(args);
  lanes_[track].events.push_back(std::move(ev));
}

const std::vector<TraceEvent>& Tracer::events(std::size_t track) const {
  XFCI_REQUIRE(track < lanes_.size(), "Tracer::events: track out of range");
  return lanes_[track].events;
}

std::size_t Tracer::total_events() const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) n += lane.events.size();
  return n;
}

std::string Tracer::chrome_trace_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  // Metadata first: one process per run, one named thread per track.
  // Unnamed runs/tracks fall back to Chrome's numeric labels.
  for (const Run& run : runs_) {
    w.begin_object();
    w.key("name").str("process_name");
    w.key("ph").str("M");
    w.key("pid").uint(run.id);
    w.key("tid").uint(0);
    w.key("args").begin_object().key("name").str(run.name).end_object();
    w.end_object();
    for (std::size_t t = 0; t < run.track_names.size(); ++t) {
      if (run.track_names[t].empty()) continue;
      w.begin_object();
      w.key("name").str("thread_name");
      w.key("ph").str("M");
      w.key("pid").uint(run.id);
      w.key("tid").uint(t);
      w.key("args")
          .begin_object()
          .key("name")
          .str(run.track_names[t])
          .end_object();
      w.end_object();
      // Keep ranks above workers above the control track in the UI.
      w.begin_object();
      w.key("name").str("thread_sort_index");
      w.key("ph").str("M");
      w.key("pid").uint(run.id);
      w.key("tid").uint(t);
      w.key("args").begin_object().key("sort_index").uint(t).end_object();
      w.end_object();
    }
  }
  for (std::size_t track = 0; track < lanes_.size(); ++track) {
    for (const TraceEvent& ev : lanes_[track].events) {
      w.begin_object();
      w.key("name").str(ev.name);
      w.key("cat").str(*ev.category ? ev.category : "default");
      if (ev.phase == TraceEvent::Phase::kSpan) {
        w.key("ph").str("X");
        w.key("ts").num(ev.t0 * 1e6);  // Chrome timestamps are microseconds
        w.key("dur").num((ev.t1 - ev.t0) * 1e6);
      } else {
        w.key("ph").str("i");
        w.key("s").str("t");  // thread-scoped instant
        w.key("ts").num(ev.t0 * 1e6);
      }
      w.key("pid").uint(ev.run);
      w.key("tid").uint(track);
      if (!ev.args.empty()) w.key("args").raw(ev.args);
      w.end_object();
    }
  }
  w.end_array();
  w.key("displayTimeUnit").str("ms");
  w.end_object();
  return w.take();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  write_text_file(path, chrome_trace_json());
}

}  // namespace xfci::obs
