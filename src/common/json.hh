/**
 * @file
 * Minimal JSON value, parser, and writer.
 *
 * Just enough JSON for the repository's machine-readable side files —
 * the run ledger (src/obs/run_ledger), the structured log sink
 * (common/logging), and the regression reports (src/report). Objects
 * preserve insertion order so emitted documents are deterministic and
 * diff cleanly. Strict on structure (trailing garbage fails the
 * parse), permissive on nothing; numbers are doubles (callers that
 * need exact 64-bit integers store them as strings).
 */

#ifndef CAPART_COMMON_JSON_HH
#define CAPART_COMMON_JSON_HH

#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace capart
{

/** One JSON value; a tagged union over the seven JSON shapes. */
struct Json
{
    enum class Kind
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    /** Insertion-ordered members (linear lookup; records are small). */
    std::vector<std::pair<std::string, Json>> obj;

    Json() = default;
    explicit Json(bool b) : kind(Kind::Bool), boolean(b) {}
    explicit Json(double d) : kind(Kind::Num), num(d) {}
    explicit Json(std::string s) : kind(Kind::Str), str(std::move(s)) {}
    explicit Json(const char *s) : kind(Kind::Str), str(s) {}

    static Json array() { Json j; j.kind = Kind::Arr; return j; }
    static Json object() { Json j; j.kind = Kind::Obj; return j; }

    bool isNull() const { return kind == Kind::Null; }
    bool isObj() const { return kind == Kind::Obj; }
    bool isArr() const { return kind == Kind::Arr; }

    /** True when this is an object with member @p key. */
    bool has(const std::string &key) const;

    /**
     * Member @p key of an object, or a shared null value when absent
     * (so lookups chain without null checks: `j.at("a").at("b")`).
     */
    const Json &at(const std::string &key) const;

    /** Append/overwrite member @p key (makes this an object). */
    Json &set(const std::string &key, Json v);

    /** Append an element (makes this an array). */
    Json &push(Json v);

    // Typed accessors with defaults for absent/mismatched values.
    double asNum(double fallback = 0.0) const;
    std::string asStr(const std::string &fallback = "") const;
    bool asBool(bool fallback = false) const;

    /**
     * Serialize compactly (no whitespace). Doubles print with
     * max_digits10 so values round-trip through parse().
     */
    void write(std::ostream &os) const;
    std::string dump() const;

    /**
     * Deepest array/object nesting parse() accepts. The parser
     * recurses once per level, so a bound keeps hostile on-disk bytes
     * (a megabyte of `[`) from overflowing the stack; the repository's
     * own documents nest a handful of levels.
     */
    static constexpr unsigned kMaxDepth = 512;

    /**
     * Parse a complete document; nullopt on any syntax error or on
     * nesting deeper than kMaxDepth.
     */
    static std::optional<Json> parse(const std::string &text);
};

/** Escape @p s for inclusion inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Write a double the way Json::write does (round-trip precision). */
void jsonWriteNumber(std::ostream &os, double v);

} // namespace capart

#endif // CAPART_COMMON_JSON_HH
