#include "spans.hh"

#include <fstream>

#include "common/json.hh"

namespace perfbench
{

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

SpanRecorder::SpanRecorder(bool on) : on_(on), origin_(Clock::now()) {}

SpanRecorder::Scope::Scope(SpanRecorder &rec, const char *name)
    : rec_(rec), start_(Clock::now())
{
    if (!rec_.on_)
        return;
    Span s;
    s.name = name;
    s.parent = rec_.open_;
    s.startS = seconds(rec_.origin_, start_);
    rec_.spans_.push_back(std::move(s));
    idx_ = static_cast<int>(rec_.spans_.size()) - 1;
    rec_.open_ = idx_;
}

SpanRecorder::Scope::~Scope()
{
    if (idx_ < 0)
        return;
    Span &s = rec_.spans_[idx_];
    s.endS = seconds(rec_.origin_, Clock::now());
    if (s.parent >= 0)
        rec_.spans_[s.parent].childS += s.endS - s.startS;
    rec_.open_ = s.parent;
}

double
SpanRecorder::Scope::elapsed() const
{
    return seconds(start_, Clock::now());
}

std::map<std::string, double>
SpanRecorder::selfByLayer() const
{
    std::map<std::string, double> out;
    for (const Span &s : spans_) {
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out[layer] += (s.endS - s.startS) - s.childS;
    }
    return out;
}

double
SpanRecorder::total(const std::string &name) const
{
    double t = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name)
            t += s.endS - s.startS;
    }
    return t;
}

std::size_t
SpanRecorder::count(const std::string &name) const
{
    std::size_t n = 0;
    for (const Span &s : spans_)
        n += s.name == name;
    return n;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\""
           << capart::jsonEscape(s.name)
           << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
           << "\"ts\":";
        capart::jsonWriteNumber(os, s.startS * 1e6);
        os << ",\"dur\":";
        capart::jsonWriteNumber(os, (s.endS - s.startS) * 1e6);
        os << ",\"args\":{\"self_us\":";
        capart::jsonWriteNumber(os, (s.endS - s.startS - s.childS) * 1e6);
        os << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
