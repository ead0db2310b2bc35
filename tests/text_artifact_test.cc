// The shared text-artifact helpers every artifact reader and writer uses:
// whole-token numbers, token and field splitting, the fingerprint line, the
// record reader, the atomic writer, the cache-dir resolver and FNV-1a.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/text_artifact.h"

namespace gmorph {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "gmorph_text_artifact_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(TextArtifactTest, ParseNumberTakesWholeTokensInRange) {
  int64_t i64 = 7;
  EXPECT_TRUE(ParseNumber("-12", &i64));
  EXPECT_EQ(i64, -12);
  for (const char* bad : {"", "+3", " 3", "3 ", "3x", "0x10", "1.5", "9223372036854775808"}) {
    EXPECT_FALSE(ParseNumber(bad, &i64)) << bad;
  }
  EXPECT_FALSE(ParseNumber("0", &i64, 1));
  EXPECT_FALSE(ParseNumber("256", &i64, 0, 255));
  EXPECT_EQ(i64, -12);  // failures leave the output alone

  int i = 0;
  EXPECT_TRUE(ParseNumber("2147483647", &i));
  EXPECT_FALSE(ParseNumber("3000000000", &i));
  EXPECT_FALSE(ParseNumber("2.5", &i));

  double d = 0.0;
  EXPECT_TRUE(ParseNumber("1e-3", &d));
  EXPECT_DOUBLE_EQ(d, 1e-3);
  EXPECT_TRUE(ParseNumber("nan", &d));
  EXPECT_FALSE(ParseNumber("1e400", &d));
  EXPECT_FALSE(ParseNumber("0x1p3", &d));
  float f = 0.0f;
  EXPECT_TRUE(ParseNumber("1e-40", &f));  // subnormal floats round-trip
  EXPECT_FALSE(ParseNumber("1e300", &f));
}

TEST(TextArtifactTest, TokensAndFields) {
  const std::vector<std::string_view> tokens = SplitTokens("  entry\tm=8  flag k=a=b \r");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "entry");
  EXPECT_EQ(tokens[3], "k=a=b");
  EXPECT_TRUE(SplitTokens(" \t").empty());

  const Field kv = SplitField(tokens[1]);
  EXPECT_EQ(kv.key, "m");
  EXPECT_EQ(kv.value, "8");
  const Field bare = SplitField(tokens[2]);
  EXPECT_EQ(bare.key, "flag");
  EXPECT_TRUE(bare.value.empty());
  EXPECT_EQ(SplitField(tokens[3]).value, "a=b");
}

TEST(TextArtifactTest, FingerprintLineClassification) {
  const std::string fp = "0123456789abcdef";
  EXPECT_EQ(CheckFingerprintLine("fingerprint " + fp, fp), FingerprintCheck::kMatch);
  EXPECT_EQ(CheckFingerprintLine("fingerprint fedcba9876543210", fp),
            FingerprintCheck::kMismatch);
  for (const char* bad : {"fingerprint zz", "fingerprint 0123456789abcdeg", "fingerprint",
                          "fingerprint  0123456789abcdef", "fingerprintx0123456789abcdef"}) {
    EXPECT_EQ(CheckFingerprintLine(bad, fp), FingerprintCheck::kMalformed) << bad;
  }
}

TEST(TextArtifactTest, ReaderSkipsCommentsAndReportsHeaderProblems) {
  constexpr LineArtifact kArtifact{kTuneDbArtifact, "tune", "tuning DB"};
  const std::string path = TempPath("reader.txt");
  std::ofstream(path) << "gmorph-tunedb v1\n# comment\n\nfirst\n  \nsecond";
  DiagnosticList diags;
  LineRecordReader reader(path, kArtifact, diags);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.line(), "first");
  EXPECT_EQ(reader.where(), "line 4");
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.line(), "  ");  // only empty lines are blank
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.line(), "second");
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(diags.empty());

  const auto rule_for = [&](const std::string& content) {
    const std::string p = TempPath("reader_bad.txt");
    std::ofstream(p, std::ios::trunc) << content;
    DiagnosticList d;
    LineRecordReader r(p, kArtifact, d);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.Next());
    return d.items().empty() ? std::string() : d.items().front().rule_id;
  };
  EXPECT_EQ(rule_for(""), "tune.header");
  EXPECT_EQ(rule_for("gmorph-quant v1\n"), "tune.header");
  EXPECT_EQ(rule_for("gmorph-tunedb v2\n"), "tune.version");
  DiagnosticList missing;
  EXPECT_FALSE(LineRecordReader(TempPath("absent.txt"), kArtifact, missing).ok());
  EXPECT_TRUE(missing.HasRule("tune.open"));
}

TEST(TextArtifactTest, WriteFileAtomicallyReplacesOnlyOnSuccess) {
  const std::string dir = TempPath("atomic_dir");
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/nested/out.txt";
  ASSERT_TRUE(WriteFileAtomically(path, [](std::ostream& out) { out << "first\n"; }));
  EXPECT_EQ(ReadFile(path), "first\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // A failed write leaves the previous file and no tmp residue behind.
  std::string error;
  EXPECT_FALSE(WriteFileAtomically(
      path, [](std::ostream& out) { out.setstate(std::ios::badbit); }, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(ReadFile(path), "first\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Renaming over a directory fails the same way.
  std::filesystem::create_directories(dir + "/taken");
  EXPECT_FALSE(WriteFileAtomically(dir + "/taken", [](std::ostream& out) { out << "x"; }));
  EXPECT_FALSE(std::filesystem::exists(dir + "/taken.tmp"));
  std::filesystem::remove_all(dir);
}

// An empty GMORPH_CACHE_DIR counts as unset: taken verbatim, it would put the
// bench harness's checkpoints and transcripts at the filesystem root.
TEST(TextArtifactTest, ResolveCacheDirTreatsEmptyAsUnset) {
  const char* saved = std::getenv("GMORPH_CACHE_DIR");
  const std::string restore = saved != nullptr ? saved : "";
  unsetenv("GMORPH_CACHE_DIR");
  EXPECT_EQ(ResolveCacheDir(), "gmorph_bench_cache");
  setenv("GMORPH_CACHE_DIR", "", 1);
  EXPECT_EQ(ResolveCacheDir(), "gmorph_bench_cache");
  setenv("GMORPH_CACHE_DIR", "/tmp/gmorph_cache_test", 1);
  EXPECT_EQ(ResolveCacheDir(), "/tmp/gmorph_cache_test");
  EXPECT_EQ(ResolveCacheDir("explicit"), "explicit");
  if (saved != nullptr) {
    setenv("GMORPH_CACHE_DIR", restore.c_str(), 1);
  } else {
    unsetenv("GMORPH_CACHE_DIR");
  }
}

TEST(TextArtifactTest, Fnv1aMatchesReferenceVectors) {
  EXPECT_EQ(Fnv1aHash(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1aHash("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1aHash("foobar"), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace gmorph
