#include "sim/json.hh"

#include <cctype>
#include <cstdlib>

#include "sim/logging.hh"

namespace tlr
{

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

namespace
{

/** Deepest object/array nesting accepted. The parser recurses once per
 *  level, so hostile input such as 200,000 '[' would otherwise
 *  overflow the stack; the repo's own documents nest a handful of
 *  levels deep. */
constexpr unsigned maxJsonDepth = 256;

class Parser
{
  public:
    Parser(const std::string &text, std::string &err)
        : s_(text), err_(err)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != s_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        err_ = strfmt("json error at offset %zu: %s", pos_, what.c_str());
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= s_.size())
            return fail("unexpected end of input");
        char c = s_[pos_];
        if (c == '{' || c == '[') {
            if (depth_ == maxJsonDepth)
                return fail(strfmt("nesting deeper than %u levels",
                                   maxJsonDepth));
            ++depth_;
            bool ok = c == '{' ? parseObject(out) : parseArray(out);
            --depth_;
            return ok;
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return parseNumber(out);
        return parseLiteral(out);
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (consume('}'))
            return true;
        for (;;) {
            skipWs();
            std::string key;
            if (pos_ >= s_.size() || s_[pos_] != '"')
                return fail("expected object key string");
            if (!parseString(key))
                return false;
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after object key");
            skipWs();
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.members.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            skipWs();
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.elements.push_back(std::move(v));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < s_.size()) {
            char c = s_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                break;
            char e = s_[pos_++];
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
                // Keep it simple: the repo never emits \u escapes, so
                // pass the sequence through verbatim.
                out += "\\u";
                for (int i = 0; i < 4 && pos_ < s_.size(); ++i)
                    out += s_[pos_++];
                break;
              }
              default:
                return fail("bad string escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const char *start = s_.c_str() + pos_;
        char *end = nullptr;
        double v = std::strtod(start, &end);
        if (end == start)
            return fail("malformed number");
        out.kind = JsonValue::Kind::Number;
        out.number = v;
        pos_ += static_cast<size_t>(end - start);
        return true;
    }

    bool
    parseLiteral(JsonValue &out)
    {
        if (s_.compare(pos_, 4, "true") == 0) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            pos_ += 4;
            return true;
        }
        if (s_.compare(pos_, 5, "false") == 0) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            pos_ += 5;
            return true;
        }
        if (s_.compare(pos_, 4, "null") == 0) {
            out.kind = JsonValue::Kind::Null;
            pos_ += 4;
            return true;
        }
        return fail("unexpected token");
    }

    const std::string &s_;
    std::string &err_;
    size_t pos_ = 0;
    unsigned depth_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &err)
{
    out = JsonValue{};
    Parser p(text, err);
    return p.parse(out);
}

} // namespace tlr
