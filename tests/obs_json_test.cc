// The one JSON writer (src/obs/json): separator placement in both layouts,
// number formats, nesting, empty containers, escaping, line breaks, and the
// file helper. The at-exit dumps built on it are exercised end to end by the
// cli_trace_smoke and cli_serve_smoke entries.
#include "src/obs/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace gmorph {
namespace {

// {"name": "x", "n": [1, 2.5, true], "empty": {}} in the given layout.
std::string SmallDocument(obs::JsonLayout layout) {
  obs::JsonWriter w(layout);
  w.BeginObject().Key("name").String("x").Key("n").BeginArray();
  w.Int(1).Number(2.5).Bool(true).EndArray();
  w.Key("empty").BeginObject().EndObject().EndObject();
  return w.Take();
}

TEST(ObsJsonWriterTest, CompactLayoutPlacesBareSeparators) {
  EXPECT_EQ(SmallDocument(obs::kCompactJson), R"({"name":"x","n":[1,2.5,true],"empty":{}})");
}

TEST(ObsJsonWriterTest, SpacedLayoutPlacesSpacedSeparators) {
  EXPECT_EQ(SmallDocument(obs::kSpacedJson),
            R"({"name": "x", "n": [1, 2.5, true], "empty": {}})");
}

TEST(ObsJsonWriterTest, NumberPrintsSixSignificantDigits) {
  obs::JsonWriter w(obs::kCompactJson);
  w.BeginArray().Number(1234567.0).Number(0.1234567).Number(3.0).Number(-4.05e-7);
  w.Number(0.0).EndArray();
  EXPECT_EQ(w.Take(), "[1.23457e+06,0.123457,3,-4.05e-07,0]");
}

TEST(ObsJsonWriterTest, FixedPrintsTheCallersPrecision) {
  obs::JsonWriter w(obs::kSpacedJson);
  w.BeginArray().Fixed(1.0 / 3.0, 3).Fixed(12.0, 0).Fixed(-1.5, 2).Fixed(1234567.0, 1);
  w.EndArray();
  EXPECT_EQ(w.Take(), "[0.333, 12, -1.50, 1234567.0]");
}

TEST(ObsJsonWriterTest, IntegersPrintInDecimalAtEveryWidth) {
  obs::JsonWriter w(obs::kCompactJson);
  w.BeginArray().Int(-3).Int(int64_t{1} << 40).Int(std::numeric_limits<uint64_t>::max());
  w.Int(size_t{65536}).EndArray();
  EXPECT_EQ(w.Take(), "[-3,1099511627776,18446744073709551615,65536]");
}

TEST(ObsJsonWriterTest, NestsAndEmptyContainers) {
  obs::JsonWriter w(obs::kCompactJson);
  w.BeginArray().BeginArray().EndArray().BeginObject().EndObject();
  w.BeginArray().BeginObject().Key("a").BeginObject().Key("b").BeginArray().EndArray();
  w.EndObject().EndObject().EndArray().EndArray();
  EXPECT_EQ(w.Take(), R"([[],{},[{"a":{"b":[]}}]])");

  obs::JsonWriter empty(obs::kSpacedJson);
  EXPECT_EQ(empty.BeginObject().EndObject().Take(), "{}");
}

TEST(ObsJsonWriterTest, EscapesKeysAndStrings) {
  obs::JsonWriter w(obs::kCompactJson);
  w.BeginObject().Key("k\"1").String("a\"b\\c\nd\te\rf\x01g\x1f").EndObject();
  EXPECT_EQ(w.Take(), R"({"k\"1":"a\"b\\c\nd\te\rf\u0001g\u001f"})");
}

TEST(ObsJsonWriterTest, EscapesEveryByteOfMalformedUtf8) {
  obs::JsonWriter w(obs::kCompactJson);
  // A lone continuation byte, a 3-byte sequence cut short, and '/' in an
  // overlong 2-byte form, between a well-formed é and →.
  w.String("\xc3\xa9 \x80 \xe2\x82x \xc0\xaf \xe2\x86\x92");
  EXPECT_EQ(w.Take(), "\"\xc3\xa9 \\u0080 \\u00e2\\u0082x \\u00c0\\u00af \xe2\x86\x92\"");
}

TEST(ObsJsonWriterTest, RawInsertsARenderedValue) {
  obs::JsonWriter w(obs::kSpacedJson);
  w.BeginObject().Key("snapshot").Raw(R"({"counters":{}})").Key("n").Int(2).EndObject();
  EXPECT_EQ(w.Take(), R"({"snapshot": {"counters":{}}, "n": 2})");
}

TEST(ObsJsonWriterTest, LineBreakGoesAfterTheCommaAndBeforeTheClose) {
  obs::JsonWriter w(obs::kCompactJson);
  w.BeginObject().Key("rows").BeginArray();
  for (int i = 1; i <= 2; ++i) {
    w.LineBreak().BeginObject().Key("i").Int(i).EndObject();
  }
  w.LineBreak().EndArray().Key("unit").String("ms").EndObject();
  EXPECT_EQ(w.Take(), "{\"rows\":[\n{\"i\":1},\n{\"i\":2}\n],\"unit\":\"ms\"}");

  obs::JsonWriter empty(obs::kCompactJson);
  EXPECT_EQ(empty.BeginArray().LineBreak().EndArray().Take(), "[\n]");
}

TEST(ObsJsonWriterTest, WriteJsonFileWritesTheTextVerbatim) {
  const std::string path = ::testing::TempDir() + "/obs_json_file.json";
  ASSERT_TRUE(obs::WriteJsonFile(path, "{\"a\":1}\n"));
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "{\"a\":1}\n");
  std::remove(path.c_str());
  EXPECT_FALSE(obs::WriteJsonFile(::testing::TempDir() + "/no/such/dir/x.json", "{}"));
}

}  // namespace
}  // namespace gmorph
