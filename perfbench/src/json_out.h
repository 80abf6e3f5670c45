/**
 * @file
 * A minimal ordered JSON object builder for the benchmark's output
 * lines. Numbers print with full precision (as measured); non-finite
 * numbers print as null.
 */

#ifndef PERFBENCH_JSON_OUT_H
#define PERFBENCH_JSON_OUT_H

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

namespace perfbench {

class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double value)
    {
        std::ostringstream v;
        if (std::isfinite(value)) {
            v.precision(17);
            v << value;
        } else {
            v << "null";
        }
        return raw(key, v.str());
    }

    JsonObject &
    integer(const std::string &key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }

    JsonObject &
    boolean(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }

    JsonObject &
    str(const std::string &key, const std::string &value)
    {
        std::string q = "\"";
        for (char c : value) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c;
        }
        return raw(key, q + "\"");
    }

    JsonObject &
    obj(const std::string &key, const JsonObject &value)
    {
        return raw(key, value.text());
    }

    /** Insert pre-rendered JSON text. */
    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
        return *this;
    }

    bool empty() const { return body_.empty(); }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

} // namespace perfbench

#endif // PERFBENCH_JSON_OUT_H
