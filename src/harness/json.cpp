#include "src/harness/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/log.hpp"

namespace bowsim::harness {

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        fatal("json: asBool on a non-bool value");
    return bool_;
}

std::int64_t
Json::asInt() const
{
    if (type_ == Type::Int)
        return int_;
    // [-2^63, 2^63): the int64 range, exactly representable as doubles.
    if (type_ == Type::Double && double_ == std::trunc(double_) &&
        double_ >= -0x1p63 && double_ < 0x1p63)
        return static_cast<std::int64_t>(double_);
    if (type_ == Type::Double)
        fatal("json: asInt on a non-integer or out-of-range number");
    fatal("json: asInt on a non-number value");
}

double
Json::asDouble() const
{
    if (type_ == Type::Double)
        return double_;
    if (type_ == Type::Int)
        return static_cast<double>(int_);
    fatal("json: asDouble on a non-number value");
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        fatal("json: asString on a non-string value");
    return string_;
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return items_.size();
    if (type_ == Type::Object)
        return members_.size();
    fatal("json: size() on a scalar value");
}

Json &
Json::push(Json value)
{
    if (type_ != Type::Array)
        fatal("json: push on a non-array value");
    items_.push_back(std::move(value));
    return *this;
}

Json &
Json::set(const std::string &key, Json value)
{
    if (type_ != Type::Object)
        fatal("json: set on a non-object value");
    for (auto &kv : members_) {
        if (kv.first == key) {
            kv.second = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

bool
Json::has(const std::string &key) const
{
    if (type_ != Type::Object)
        return false;
    for (const auto &kv : members_) {
        if (kv.first == key)
            return true;
    }
    return false;
}

const Json &
Json::at(const std::string &key) const
{
    if (type_ != Type::Object)
        fatal("json: at(\"", key, "\") on a non-object value");
    for (const auto &kv : members_) {
        if (kv.first == key)
            return kv.second;
    }
    fatal("json: missing key '", key, "'");
}

const Json &
Json::at(std::size_t index) const
{
    if (type_ != Type::Array)
        fatal("json: at(", index, ") on a non-array value");
    if (index >= items_.size())
        fatal("json: index ", index, " out of range (size ", items_.size(),
              ")");
    return items_[index];
}

namespace {

void
escapeInto(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
numberInto(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; emit null like most emitters do.
        out += "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    // Trim to the shortest representation that round-trips.
    for (int prec = 1; prec < 17; ++prec) {
        char shorter[32];
        std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
        if (std::strtod(shorter, nullptr) == v) {
            out += shorter;
            return;
        }
    }
    out += buf;
}

}  // namespace

void
Json::dumpTo(std::string &out, unsigned indent, unsigned depth) const
{
    const std::string pad =
        indent ? "\n" + std::string(indent * (depth + 1), ' ') : "";
    const std::string padEnd =
        indent ? "\n" + std::string(indent * depth, ' ') : "";
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int: {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(int_));
        out += buf;
        break;
      }
      case Type::Double:
        numberInto(out, double_);
        break;
      case Type::String:
        escapeInto(out, string_);
        break;
      case Type::Array:
        if (items_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ',';
            out += pad;
            items_[i].dumpTo(out, indent, depth + 1);
        }
        out += padEnd;
        out += ']';
        break;
      case Type::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ',';
            out += pad;
            escapeInto(out, members_[i].first);
            out += indent ? ": " : ":";
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        out += padEnd;
        out += '}';
        break;
    }
}

std::string
Json::dump(unsigned indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

class Parser {
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    parse()
    {
        Json v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fatal("json: trailing characters at offset ", pos_);
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fatal("json: unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fatal("json: expected '", c, "' at offset ", pos_, ", got '",
                  text_[pos_], "'");
        ++pos_;
    }

    bool
    consume(const char *literal)
    {
        std::size_t n = std::char_traits<char>::length(literal);
        if (text_.compare(pos_, n, literal) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Json(parseString());
          case 't':
            if (consume("true"))
                return Json(true);
            fatal("json: bad literal at offset ", pos_);
          case 'f':
            if (consume("false"))
                return Json(false);
            fatal("json: bad literal at offset ", pos_);
          case 'n':
            if (consume("null"))
                return Json();
            fatal("json: bad literal at offset ", pos_);
          default:
            return parseNumber();
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fatal("json: unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fatal("json: unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fatal("json: truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fatal("json: bad \\u escape");
                }
                // Basic-multilingual-plane only; encode as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fatal("json: bad escape '\\", e, "'");
            }
        }
    }

    Json
    parseNumber()
    {
        // RFC 8259 shape first: -? (0 | [1-9][0-9]*) (. [0-9]+)?
        // ([eE] [+-]? [0-9]+)?. from_chars follows strtod and would
        // also take "01", ".5", "1." and "1.e3".
        const std::size_t start = pos_;
        auto digits = [this] {
            const std::size_t from = pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
            return pos_ - from;
        };
        auto at = [this](char a, char b) {
            return pos_ < text_.size() &&
                   (text_[pos_] == a || text_[pos_] == b);
        };
        if (at('-', '-'))
            ++pos_;
        const std::size_t int_start = pos_;
        const std::size_t int_digits = digits();
        bool ok = int_digits == 1 ||
                  (int_digits > 1 && text_[int_start] != '0');
        bool integral = true;
        if (ok && at('.', '.')) {
            ++pos_;
            integral = false;
            ok = digits() > 0;
        }
        if (ok && at('e', 'E')) {
            ++pos_;
            integral = false;
            if (at('+', '-'))
                ++pos_;
            ok = digits() > 0;
        }
        if (!ok)
            fatal("json: bad number at offset ", start);
        // An integer too large for int64 is kept as a double; a double
        // out of range is malformed.
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        if (integral) {
            std::int64_t v = 0;
            const auto [ptr, ec] = std::from_chars(first, last, v);
            if (ec == std::errc() && ptr == last)
                return Json(v);
            if (ec != std::errc::result_out_of_range)
                fatal("json: bad number at offset ", start);
        }
        double d = 0.0;
        const auto [ptr, ec] = std::from_chars(first, last, d);
        if (ec != std::errc() || ptr != last)
            fatal("json: bad number at offset ", start);
        return Json(d);
    }

    Json
    parseArray()
    {
        expect('[');
        Json arr = Json::array();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(parseValue());
            char c = peek();
            ++pos_;
            if (c == ']')
                return arr;
            if (c != ',')
                fatal("json: expected ',' or ']' at offset ", pos_ - 1);
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json obj = Json::object();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            std::string key = parseString();
            expect(':');
            obj.set(key, parseValue());
            char c = peek();
            ++pos_;
            if (c == '}')
                return obj;
            if (c != ',')
                fatal("json: expected ',' or '}' at offset ", pos_ - 1);
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

}  // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).parse();
}

}  // namespace bowsim::harness
