// Registry-vs-docs drift guard: every sketch kind and adversary kind
// registered in the global registries must be documented (as an inline
// `key` code span) in docs/registry.md. Runs as an ordinary unit test so
// CI fails the moment a new kind lands without documentation.
//
// The docs path is injected by CMake as RS_SOURCE_DIR (the repository
// root), so the test works from any build directory.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attacklab/adversary_registry.h"
#include "core/big_uint.h"
#include "gtest/gtest.h"
#include "obs/catalog.h"
#include "pipeline/sketch_registry.h"
#include "wire/codec.h"

namespace robust_sampling {
namespace {

std::string ReadDoc(const std::string& relative) {
  const std::string path = std::string(RS_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string ReadRegistryDoc() { return ReadDoc("docs/registry.md"); }

// `key` must appear as an inline code span — the convention every
// registry table in docs/registry.md uses.
bool DocumentsKey(const std::string& doc, const std::string& key) {
  return doc.find("`" + key + "`") != std::string::npos;
}

TEST(DocsDriftTest, EverySketchKindIsDocumented) {
  const std::string doc = ReadRegistryDoc();
  ASSERT_FALSE(doc.empty());
  // int64_t registers the full built-in set (samplers + kll + the three
  // frequency summaries); double and BigUint register subsets of it.
  for (const auto& kind : SketchRegistry<int64_t>::Global().Kinds()) {
    EXPECT_TRUE(DocumentsKey(doc, kind))
        << "sketch kind '" << kind
        << "' is registered but not documented in docs/registry.md";
  }
}

TEST(DocsDriftTest, EveryAdversaryKindIsDocumented) {
  const std::string doc = ReadRegistryDoc();
  ASSERT_FALSE(doc.empty());
  for (const auto& kind : AdversaryRegistry<int64_t>::Global().Kinds()) {
    EXPECT_TRUE(DocumentsKey(doc, kind))
        << "adversary kind '" << kind
        << "' is registered but not documented in docs/registry.md";
  }
  for (const auto& kind : AdversaryRegistry<BigUint>::Global().Kinds()) {
    EXPECT_TRUE(DocumentsKey(doc, kind)) << kind;
  }
}

// The capability matrix must stay in step with the capability enum: each
// capability column keyword appears in the doc.
TEST(DocsDriftTest, CapabilityMatrixCoversTheCapabilityEnum) {
  const std::string doc = ReadRegistryDoc();
  for (const char* name : {"SampleView", "Quantile", "EstimateFrequency",
                           "HeavyHitters", "SerializeTo", "DeserializeFrom"}) {
    EXPECT_TRUE(doc.find(name) != std::string::npos)
        << "capability '" << name << "' missing from docs/registry.md";
  }
}

// Every metric in the obs catalog must be documented in
// docs/observability.md — same inline-code-span convention as the
// registry doc.
TEST(DocsDriftTest, EveryRegisteredMetricIsDocumented) {
  const std::string doc = ReadDoc("docs/observability.md");
  ASSERT_FALSE(doc.empty());
  const auto descriptors = obs::AllMetricDescriptors();
  ASSERT_GE(descriptors.size(), 20u);
  for (const auto& d : descriptors) {
    EXPECT_TRUE(DocumentsKey(doc, d.name))
        << "metric '" << d.name
        << "' is registered but not documented in docs/observability.md";
  }
}

// docs/wire.md's current-frame block must name the version the writers
// emit, so a format bump cannot leave the doc describing the old frame.
TEST(DocsDriftTest, WireDocNamesTheCurrentFrameVersion) {
  const std::string doc = ReadDoc("docs/wire.md");
  const std::string version = std::to_string(wire::kWireFormatCurrent);
  const std::string intro =
      "The current frame is **wire format v" + version + "**";
  const size_t at = doc.find(intro);
  ASSERT_NE(at, std::string::npos)
      << "docs/wire.md does not say: " << intro;
  const size_t open = doc.find("```", at);
  ASSERT_NE(open, std::string::npos) << "no frame block after: " << intro;
  const size_t close = doc.find("```", open + 3);
  ASSERT_NE(close, std::string::npos) << "unclosed frame block";
  const std::string block = doc.substr(open, close - open);
  EXPECT_NE(block.find("format version varint (= " + version + ")"),
            std::string::npos)
      << "docs/wire.md's current-frame block names another version:\n"
      << block;
}

}  // namespace
}  // namespace robust_sampling
