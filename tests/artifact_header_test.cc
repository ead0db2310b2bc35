// The shared "gmorph-<kind> vN" artifact header helper: formatting, strict
// per-spec checking (the loaders and linters), and generic parsing (the
// driver's kind sniffer).
#include <gtest/gtest.h>

#include "src/common/artifact_header.h"

namespace gmorph {
namespace {

TEST(ArtifactHeaderTest, FormatsKindAndVersion) {
  EXPECT_EQ(ArtifactHeaderLine(kPlanArtifact), "gmorph-plan v1");
  EXPECT_EQ(ArtifactHeaderLine(kTuneDbArtifact), "gmorph-tunedb v1");
  EXPECT_EQ(ArtifactHeaderLine(kQuantRecipeArtifact), "gmorph-quant v1");
  EXPECT_EQ(ArtifactHeaderLine(kEvalCacheArtifact), "gmorph-evalcache v1");
  EXPECT_EQ(ArtifactHeaderLine(kCheckpointArtifact), "gmorph-checkpoint v1");
}

TEST(ArtifactHeaderTest, CheckAcceptsExactHeader) {
  EXPECT_EQ(CheckArtifactHeaderLine("gmorph-plan v1", kPlanArtifact), HeaderCheck::kOk);
  EXPECT_EQ(CheckArtifactHeaderLine("gmorph-checkpoint v1", kCheckpointArtifact),
            HeaderCheck::kOk);
}

TEST(ArtifactHeaderTest, CheckDistinguishesMissingFromWrongVersion) {
  EXPECT_EQ(CheckArtifactHeaderLine("", kPlanArtifact), HeaderCheck::kMissing);
  EXPECT_EQ(CheckArtifactHeaderLine("not a header", kPlanArtifact), HeaderCheck::kMissing);
  EXPECT_EQ(CheckArtifactHeaderLine("gmorph-tunedb v1", kPlanArtifact), HeaderCheck::kMissing);
  EXPECT_EQ(CheckArtifactHeaderLine("gmorph-plan v2", kPlanArtifact),
            HeaderCheck::kWrongVersion);
  EXPECT_EQ(CheckArtifactHeaderLine("gmorph-plan", kPlanArtifact), HeaderCheck::kWrongVersion);
  EXPECT_EQ(CheckArtifactHeaderLine("gmorph-plan vX", kPlanArtifact),
            HeaderCheck::kWrongVersion);
}

TEST(ArtifactHeaderTest, CheckRequiresAKindWordBoundary) {
  // "gmorph-plans v1" must not match the "gmorph-plan" spec.
  EXPECT_EQ(CheckArtifactHeaderLine("gmorph-plans v1", kPlanArtifact), HeaderCheck::kMissing);
}

TEST(ArtifactHeaderTest, ParseRecoversKindAndVersion) {
  std::string kind;
  int version = 0;
  ASSERT_TRUE(ParseArtifactHeaderLine("gmorph-plan v1", &kind, &version));
  EXPECT_EQ(kind, "gmorph-plan");
  EXPECT_EQ(version, 1);
  ASSERT_TRUE(ParseArtifactHeaderLine("gmorph-evalcache v12 trailing junk", &kind, &version));
  EXPECT_EQ(kind, "gmorph-evalcache");
  EXPECT_EQ(version, 12);
}

TEST(ArtifactHeaderTest, ParseRejectsNonHeaders) {
  std::string kind;
  int version = 0;
  EXPECT_FALSE(ParseArtifactHeaderLine("", &kind, &version));
  EXPECT_FALSE(ParseArtifactHeaderLine("benchmark = 1", &kind, &version));
  EXPECT_FALSE(ParseArtifactHeaderLine("gmorph-plan", &kind, &version));
  EXPECT_FALSE(ParseArtifactHeaderLine("gmorph-plan vX", &kind, &version));
  EXPECT_FALSE(ParseArtifactHeaderLine("plan v1", &kind, &version));
}

}  // namespace
}  // namespace gmorph
