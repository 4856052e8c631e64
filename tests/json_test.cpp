#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "json/json.hpp"

namespace bifrost::json {
namespace {

Value must_parse(const std::string& text) {
  auto r = parse(text);
  EXPECT_TRUE(r.ok()) << r.error_message();
  return std::move(r).value();
}

TEST(JsonParse, Literals) {
  EXPECT_TRUE(must_parse("null").is_null());
  EXPECT_TRUE(must_parse("true").as_bool());
  EXPECT_FALSE(must_parse("false").as_bool());
}

TEST(JsonParse, Numbers) {
  EXPECT_DOUBLE_EQ(must_parse("0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(must_parse("-12").as_number(), -12.0);
  EXPECT_DOUBLE_EQ(must_parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(must_parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(must_parse("-2.5E-2").as_number(), -0.025);
}

TEST(JsonParse, Strings) {
  EXPECT_EQ(must_parse(R"("hi")").as_string(), "hi");
  EXPECT_EQ(must_parse(R"("a\"b\\c\/d")").as_string(), "a\"b\\c/d");
  EXPECT_EQ(must_parse(R"("tab\there")").as_string(), "tab\there");
  EXPECT_EQ(must_parse(R"("A")").as_string(), "A");
  EXPECT_EQ(must_parse(R"("é")").as_string(), "\xc3\xa9");  // é UTF-8
}

TEST(JsonParse, Arrays) {
  const Value v = must_parse("[1, 2, [3]]");
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.as_array()[0].as_number(), 1.0);
  EXPECT_TRUE(v.as_array()[2].is_array());
  EXPECT_TRUE(must_parse("[]").as_array().empty());
}

TEST(JsonParse, Objects) {
  const Value v = must_parse(R"({"a": 1, "b": {"c": true}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.get_number("a"), 1.0);
  const Value* b = v.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->get_bool("c"));
  EXPECT_TRUE(must_parse("{}").as_object().empty());
}

TEST(JsonParse, WhitespaceTolerated) {
  EXPECT_TRUE(must_parse(" \n\t {\"a\" : [ 1 , 2 ] } \r\n").is_object());
}

TEST(JsonParse, RejectsTrailingGarbage) {
  EXPECT_FALSE(parse("1 2").ok());
  EXPECT_FALSE(parse("{} x").ok());
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_FALSE(parse("").ok());
  EXPECT_FALSE(parse("{").ok());
  EXPECT_FALSE(parse("[1,").ok());
  EXPECT_FALSE(parse(R"({"a" 1})").ok());
  EXPECT_FALSE(parse(R"({"a":})").ok());
  EXPECT_FALSE(parse(R"("unterminated)").ok());
  EXPECT_FALSE(parse("tru").ok());
  EXPECT_FALSE(parse("-").ok());
  EXPECT_FALSE(parse(R"("\q")").ok());
  EXPECT_FALSE(parse(R"("\u12g4")").ok());
  EXPECT_FALSE(parse("[1,]").ok());
  EXPECT_FALSE(parse(R"({"a":1,})").ok());
}

TEST(JsonDump, CompactRoundTrip) {
  const std::string text =
      R"({"arr":[1,2,3],"bool":true,"nested":{"x":null},"str":"s"})";
  const Value v = must_parse(text);
  EXPECT_EQ(v.dump(), text);
  EXPECT_EQ(must_parse(v.dump()), v);
}

TEST(JsonDump, IntegersPrintWithoutDecimals) {
  EXPECT_EQ(Value(42).dump(), "42");
  EXPECT_EQ(Value(-3).dump(), "-3");
  EXPECT_EQ(Value(2.5).dump(), "2.5");
  EXPECT_EQ(Value(0).dump(), "0");
  EXPECT_EQ(Value(-0.0).dump(), "-0");
  // Integral values print exactly as printf's "%.0f" does.
  for (const double d : {1.0, -1.0, 86460000000000.0, -86460000000000.0,
                         999999999999999.0, -999999999999999.0,
                         4503599627370496.0, 1e15, 1e300}) {
    char expected[400];
    std::snprintf(expected, sizeof expected,
                  std::abs(d) < 1e15 ? "%.0f" : "%.17g", d);
    EXPECT_EQ(Value(d).dump(), expected) << expected;
  }
}

TEST(JsonDump, EscapesControlCharacters) {
  EXPECT_EQ(Value(std::string("a\nb")).dump(), R"("a\nb")");
  EXPECT_EQ(Value(std::string("q\"q")).dump(), R"("q\"q")");
  EXPECT_EQ(Value(std::string("\x01")).dump(), "\"\\u0001\"");
}

TEST(JsonDump, PrettyIndents) {
  const Value v = must_parse(R"({"a":[1],"b":2})");
  const std::string pretty = v.dump_pretty();
  EXPECT_NE(pretty.find("{\n"), std::string::npos);
  EXPECT_NE(pretty.find("  \"a\""), std::string::npos);
  EXPECT_EQ(must_parse(pretty), v);
}

TEST(JsonDump, ObjectKeysSorted) {
  Object obj;
  obj["zebra"] = 1;
  obj["alpha"] = 2;
  EXPECT_EQ(Value(std::move(obj)).dump(), R"({"alpha":2,"zebra":1})");
}

TEST(JsonValue, AccessorsAndFallbacks) {
  const Value v = must_parse(R"({"s":"str","n":5,"b":true})");
  EXPECT_EQ(v.get_string("s"), "str");
  EXPECT_EQ(v.get_string("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(v.get_number("n"), 5.0);
  EXPECT_DOUBLE_EQ(v.get_number("s", -1.0), -1.0);  // type mismatch
  EXPECT_TRUE(v.get_bool("b"));
  EXPECT_FALSE(v.get_bool("n", false));
  EXPECT_EQ(v.find("nope"), nullptr);
  EXPECT_EQ(Value(1).find("x"), nullptr);  // non-object find
}

TEST(JsonValue, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(1.0).is_number());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(Array{}).is_array());
  EXPECT_TRUE(Value(Object{}).is_object());
}

TEST(JsonValue, DeepEquality) {
  EXPECT_EQ(must_parse(R"({"a":[1,{"b":2}]})"),
            must_parse(R"({ "a" : [ 1, { "b" : 2 } ] })"));
  EXPECT_FALSE(must_parse("[1]") == must_parse("[2]"));
}

TEST(JsonParse, DeeplyNested) {
  std::string text;
  for (int i = 0; i < 60; ++i) text += "[";
  text += "1";
  for (int i = 0; i < 60; ++i) text += "]";
  EXPECT_TRUE(parse(text).ok());
}

// Round-trip sweep across representative documents.
class JsonRoundTrip : public testing::TestWithParam<const char*> {};

TEST_P(JsonRoundTrip, ParseDumpParseIsIdentity) {
  const Value first = must_parse(GetParam());
  const Value second = must_parse(first.dump());
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(
    Docs, JsonRoundTrip,
    testing::Values("null", "true", "-0.5", R"("string with \"escape\"")",
                    "[]", "{}", "[null,true,1,\"x\",[],{}]",
                    R"({"nested":{"deep":{"deeper":[1,2,3]}}})",
                    R"({"unicode":"über"})",
                    R"({"status":"success","data":{"value":42.5}})"));

}  // namespace
}  // namespace bifrost::json
