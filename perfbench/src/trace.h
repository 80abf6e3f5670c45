/**
 * @file
 * In-memory span recorder of the traced run. Spans are recorded from
 * the benchmark's own code around calls into the library (and from the
 * timings the library hands back in its result records), kept in
 * memory, and written once at the end as Chrome trace-event JSON
 * (chrome://tracing, Perfetto). Disabled, record() is a branch.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Tick = Clock::time_point;

/** Milliseconds between two ticks. */
inline double
msBetween(Tick a, Tick b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** A tick offset from `t` by `ms` milliseconds. */
inline Tick
plusMs(Tick t, double ms)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
}

/** One recorded span. */
struct Span
{
    std::string name;
    Tick start;
    Tick end;
    std::uint64_t id = 0;      ///< this span (1-based)
    std::uint64_t parent = 0;  ///< causing span, 0 = root
    std::uint64_t request = 0; ///< spans of one request share it
};

/** Thread-safe span store. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record a span; @return its id (0 when disabled). */
    std::uint64_t
    record(std::string name, Tick start, Tick end,
           std::uint64_t parent = 0, std::uint64_t request = 0)
    {
        if (!enabled_)
            return 0;
        std::lock_guard<std::mutex> lock(mutex_);
        const std::uint64_t id = spans_.size() + 1;
        spans_.push_back({std::move(name), start, end, id, parent,
                          request});
        return id;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

    /**
     * Write every span as a Chrome "X" (complete) event: one track per
     * request, timestamps in microseconds from `origin`, parent and
     * span ids in args. @return false when the file cannot be written.
     */
    bool
    writeChromeTrace(const std::string &path, Tick origin) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        std::lock_guard<std::mutex> lock(mutex_);
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const double ts = std::chrono::duration<double, std::micro>(
                                  s.start - origin)
                                  .count();
            const double dur = std::chrono::duration<double, std::micro>(
                                   s.end - s.start)
                                   .count();
            out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.request
                << ",\"ts\":" << ts << ",\"dur\":" << dur
                << ",\"args\":{\"id\":" << s.id
                << ",\"parent\":" << s.parent
                << ",\"request\":" << s.request << "}}";
        }
        out << "\n],\"displayTimeUnit\":\"ms\"}\n";
        return static_cast<bool>(out);
    }

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
