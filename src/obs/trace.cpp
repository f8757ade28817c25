#include "obs/trace.hpp"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "obs/json_out.hpp"

namespace aqm::obs {

const char* to_string(TraceCategory c) {
  switch (c) {
    case TraceCategory::Engine: return "engine";
    case TraceCategory::Net: return "net";
    case TraceCategory::Orb: return "orb";
    case TraceCategory::Os: return "os";
    case TraceCategory::Quo: return "quo";
    case TraceCategory::App: return "app";
    case TraceCategory::Pipeline: return "pipeline";
  }
  return "?";
}

TraceRecorder::TraceRecorder(std::uint32_t categories) : categories_(categories) {}

std::uint16_t TraceRecorder::track(std::string_view name) {
  const auto it = track_index_.find(name);
  if (it != track_index_.end()) return it->second;
  assert(track_names_.size() < 0xffff && "track id space exhausted");
  const auto idx = static_cast<std::uint16_t>(track_names_.size());
  track_names_.emplace_back(name);
  track_index_.emplace(std::string(name), idx);
  return idx;
}

const char* TraceRecorder::intern(std::string_view s) {
  const auto it = intern_index_.find(s);
  if (it != intern_index_.end()) return it->second;
  interned_.push_back(std::make_unique<std::string>(s));
  const char* p = interned_.back()->c_str();
  intern_index_.emplace(std::string(s), p);
  return p;
}

void TraceRecorder::push(TraceCategory cat, TracePhase phase, const char* name,
                         std::uint16_t track, std::int64_t ts_ns, std::int64_t dur_ns,
                         std::uint64_t id, std::initializer_list<TraceArg> args) {
  if (!wants(cat)) return;
  if (chunks_.empty() || chunks_[active_]->n == kChunkEvents) {
    if (!chunks_.empty() && active_ + 1 < chunks_.size() &&
        chunks_[active_ + 1]->n == 0) {
      ++active_;  // recycled chunk from a previous clear()
    } else if (ring_chunks_ != 0 && chunks_.size() >= ring_chunks_) {
      // Flight-recorder ring: reclaim the oldest chunk wholesale.
      active_ = (active_ + 1) % chunks_.size();
      Chunk& victim = *chunks_[active_];
      overwritten_ += victim.n;
      total_ -= victim.n;
      victim.n = 0;
    } else {
      chunks_.push_back(std::make_unique<Chunk>());
      active_ = chunks_.size() - 1;
    }
  }
  Chunk& c = *chunks_[active_];
  TraceEvent& e = c.ev[c.n++];
  ++total_;
  e.name = name;
  e.phase = phase;
  e.track = track;
  e.cat = cat;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.id = id;
  e.argc = 0;
  for (const TraceArg& a : args) {
    if (e.argc == e.args.size()) break;
    e.args[e.argc++] = a;
  }
}

void TraceRecorder::clear() {
  for (auto& chunk : chunks_) chunk->n = 0;
  active_ = 0;
  total_ = 0;
  current_ = 0;
  overwritten_ = 0;
}

namespace {

const char* phase_code(TracePhase p) {
  switch (p) {
    case TracePhase::Complete: return "X";
    case TracePhase::Instant: return "i";
    case TracePhase::AsyncBegin: return "b";
    case TracePhase::AsyncEnd: return "e";
    case TracePhase::Counter: return "C";
  }
  return "i";
}

}  // namespace

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  detail::JsonOut out(os);
  out << "{\"traceEvents\":[\n"
      << R"({"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"aqm-sim"}})";
  for (std::size_t t = 0; t < track_names_.size(); ++t) {
    out << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << t
        << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    out.str(track_names_[t]) << "}}";
  }
  // Chrome timestamps are microseconds; emit with nanosecond precision.
  const auto micros = [&out](std::int64_t ns) {
    char buf[40];
    const int n = std::snprintf(buf, sizeof buf, "%" PRId64 ".%03d", ns / 1000,
                                static_cast<int>(ns % 1000));
    out << std::string_view(buf, static_cast<std::size_t>(n));
  };
  for_each([&](const TraceEvent& e) {
    out << ",\n{\"ph\":\"" << phase_code(e.phase) << "\",\"pid\":1,\"tid\":" << e.track
        << ",\"ts\":";
    micros(e.ts_ns);
    if (e.phase == TracePhase::Complete) {
      out << ",\"dur\":";
      micros(e.dur_ns);
    }
    out << ",\"cat\":\"" << to_string(e.cat) << "\",\"name\":";
    out.str(e.name != nullptr ? e.name : "?");
    if (e.phase == TracePhase::Instant) out << ",\"s\":\"t\"";
    if (e.id != 0 || e.phase == TracePhase::AsyncBegin || e.phase == TracePhase::AsyncEnd) {
      out << ",\"id\":\"" << e.id << '"';
    }
    if (e.argc > 0) {
      out << ",\"args\":{";
      for (std::uint8_t i = 0; i < e.argc; ++i) {
        if (i > 0) out << ',';
        out.key(e.args[i].key) << e.args[i].value;
      }
      out << '}';
    }
    out << '}';
  });
  out << "\n]}\n";
}

bool TraceRecorder::write_chrome_json_file(const std::string& path) const {
  return detail::write_file(path, [this](std::ostream& os) { write_chrome_json(os); });
}

}  // namespace aqm::obs
