#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace capart
{

namespace
{

/** Recursive-descent parser over the document text. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    std::optional<Json>
    parse()
    {
        std::optional<Json> v = value();
        skipWs();
        if (!v || pos_ != s_.size())
            return std::nullopt;
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    std::optional<std::string>
    string()
    {
        if (!consume('"'))
            return std::nullopt;
        std::string out;
        while (pos_ < s_.size()) {
            // Append the run up to the next quote or escape in one call.
            std::size_t end = pos_;
            while (end < s_.size() && s_[end] != '"' && s_[end] != '\\')
                ++end;
            out.append(s_, pos_, end - pos_);
            pos_ = end;
            if (pos_ == s_.size())
                break;
            const char c = s_[pos_++];
            if (c == '"')
                return out;
            // c is a backslash.
            if (pos_ >= s_.size())
                return std::nullopt;
            const char esc = s_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    return std::nullopt;
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = s_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return std::nullopt;
                }
                // Escaped names in our documents are ASCII control
                // characters; anything wider encodes as UTF-8.
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                return std::nullopt;
            }
        }
        return std::nullopt; // unterminated
    }

    /** The object or array at pos_; value() bounds the nesting. */
    std::optional<Json>
    container()
    {
        if (s_[pos_++] == '{') {
            Json obj = Json::object();
            skipWs();
            if (consume('}'))
                return obj;
            while (true) {
                std::optional<std::string> key = string();
                if (!key || !consume(':'))
                    return std::nullopt;
                std::optional<Json> v = value();
                if (!v)
                    return std::nullopt;
                obj.obj.emplace_back(std::move(*key), std::move(*v));
                if (consume(','))
                    continue;
                if (consume('}'))
                    return obj;
                return std::nullopt;
            }
        }
        Json arr = Json::array();
        skipWs();
        if (consume(']'))
            return arr;
        while (true) {
            std::optional<Json> v = value();
            if (!v)
                return std::nullopt;
            arr.arr.push_back(std::move(*v));
            if (consume(','))
                continue;
            if (consume(']'))
                return arr;
            return std::nullopt;
        }
    }

    std::optional<Json>
    value()
    {
        skipWs();
        if (pos_ >= s_.size())
            return std::nullopt;
        const char c = s_[pos_];
        if (c == '{' || c == '[') {
            if (depth_ == Json::kMaxDepth)
                return std::nullopt;
            ++depth_;
            std::optional<Json> v = container();
            --depth_;
            return v;
        }
        if (c == '"') {
            std::optional<std::string> s = string();
            if (!s)
                return std::nullopt;
            return Json(std::move(*s));
        }
        if (c == 't')
            return literal("true") ? std::optional<Json>(Json(true))
                                   : std::nullopt;
        if (c == 'f')
            return literal("false") ? std::optional<Json>(Json(false))
                                    : std::nullopt;
        if (c == 'n')
            return literal("null") ? std::optional<Json>(Json())
                                   : std::nullopt;
        // Number: delegate to strtod over the longest plausible span.
        const char *start = s_.c_str() + pos_;
        char *end = nullptr;
        const double d = std::strtod(start, &end);
        if (end == start || !std::isfinite(d))
            return std::nullopt;
        pos_ += static_cast<std::size_t>(end - start);
        return Json(d);
    }

    const std::string &s_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0; //!< containers open around pos_
};

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
jsonWriteNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        os << "null";
        return;
    }
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::abs(v) < 1e15) {
        os << static_cast<long long>(v);
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g",
                  std::numeric_limits<double>::max_digits10, v);
    os << buf;
}

bool
Json::has(const std::string &key) const
{
    for (const auto &[k, v] : obj) {
        if (k == key)
            return true;
    }
    return false;
}

const Json &
Json::at(const std::string &key) const
{
    static const Json null;
    for (const auto &[k, v] : obj) {
        if (k == key)
            return v;
    }
    return null;
}

Json &
Json::set(const std::string &key, Json v)
{
    kind = Kind::Obj;
    for (auto &[k, existing] : obj) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    obj.emplace_back(key, std::move(v));
    return *this;
}

Json &
Json::push(Json v)
{
    kind = Kind::Arr;
    arr.push_back(std::move(v));
    return *this;
}

double
Json::asNum(double fallback) const
{
    return kind == Kind::Num ? num : fallback;
}

std::string
Json::asStr(const std::string &fallback) const
{
    return kind == Kind::Str ? str : fallback;
}

bool
Json::asBool(bool fallback) const
{
    return kind == Kind::Bool ? boolean : fallback;
}

void
Json::write(std::ostream &os) const
{
    switch (kind) {
      case Kind::Null:
        os << "null";
        break;
      case Kind::Bool:
        os << (boolean ? "true" : "false");
        break;
      case Kind::Num:
        jsonWriteNumber(os, num);
        break;
      case Kind::Str:
        os << '"' << jsonEscape(str) << '"';
        break;
      case Kind::Arr: {
        os << '[';
        bool first = true;
        for (const Json &v : arr) {
            if (!first)
                os << ',';
            first = false;
            v.write(os);
        }
        os << ']';
        break;
      }
      case Kind::Obj: {
        os << '{';
        bool first = true;
        for (const auto &[k, v] : obj) {
            if (!first)
                os << ',';
            first = false;
            os << '"' << jsonEscape(k) << "\":";
            v.write(os);
        }
        os << '}';
        break;
      }
    }
}

std::string
Json::dump() const
{
    std::ostringstream oss;
    write(oss);
    return oss.str();
}

std::optional<Json>
Json::parse(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace capart
