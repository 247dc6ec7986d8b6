// Seeded mutation of --cache-dir objects. Each cached object of a corpus build
// has its payload flipped, truncated or spliced (tests/mutate.h) and its
// checksum resealed, so the mutant gets past the checksum to
// DeserializeObjectFile; then the program is rebuilt from the cache.
//
// Contract: no mutant crashes the build. A mutant the reader rejects is a miss,
// and the rebuild links exactly the clean image. A mutant it accepts is a
// well-formed object, possibly of a different program (a flipped constant is
// still a constant): its build either succeeds with an image the VM verifier
// accepts, or fails with diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "src/clack/corpus.h"
#include "src/driver/build_cache.h"
#include "src/driver/knitc.h"
#include "src/support/hash.h"
#include "src/vm/verify.h"
#include "tests/mutate.h"

namespace knit {
namespace {

constexpr size_t kMagicSize = 8;
constexpr size_t kChecksumSize = 8;

std::string ReadBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteBytes(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// `file` with its payload replaced by `payload` and the checksum recomputed.
std::string Reseal(const std::string& file, const std::string& payload) {
  std::string out = file.substr(0, kMagicSize) + payload;
  const uint64_t checksum = HashBytes(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((checksum >> (8 * i)) & 0xFF));
  }
  return out;
}

struct Rebuild {
  bool ok = false;
  int misses = 0;
  uint64_t fingerprint = 0;
  std::string diagnostics;
  std::string verify_error;  // the load-time verifier's verdict on a built image
};

Rebuild BuildFromCache(const std::string& dir) {
  KnitcOptions options;
  options.opt_level = 2;
  options.cache_dir = dir;
  Diagnostics diags;
  KnitPipeline pipeline(options);
  Result<LinkedImage> built = pipeline.Build(ClackKnit(), ClackSources(), "ClackRouter", diags);
  Rebuild rebuild;
  rebuild.ok = built.ok();
  rebuild.misses = pipeline.metrics().CacheMisses();
  rebuild.diagnostics = diags.ToString();
  if (built.ok()) {
    rebuild.fingerprint = FingerprintImage(built.value().image);
    rebuild.verify_error = VerifyImage(built.value().image).error;
  }
  return rebuild;
}

TEST(CacheFuzz, MutatedCachedObjectsAreRecompiledOrBuiltCleanly) {
  const std::string dir = ::testing::TempDir() + "knit-cache-fuzz-test";
  std::filesystem::remove_all(dir);
  const Rebuild clean = BuildFromCache(dir);
  ASSERT_TRUE(clean.ok) << clean.diagnostics;

  std::vector<std::filesystem::path> objects;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    objects.push_back(entry.path());
  }
  ASSERT_EQ(static_cast<int>(objects.size()), clean.misses);
  std::sort(objects.begin(), objects.end());

  std::mt19937 rng(20261019);
  int rejected = 0;
  int accepted = 0;
  for (const std::filesystem::path& object : objects) {
    const std::string original = ReadBytes(object);
    ASSERT_GT(original.size(), kMagicSize + kChecksumSize);
    const std::string payload =
        original.substr(kMagicSize, original.size() - kMagicSize - kChecksumSize);
    for (int mutant = 0; mutant < 12; ++mutant) {
      const std::string mutated = Reseal(original, Mutate(payload, mutant % 3, rng));
      WriteBytes(object, mutated);
      ObjectFile read;
      const bool readable = DeserializeObjectFile(mutated, &read);
      const Rebuild rebuild = BuildFromCache(dir);
      const std::string label = object.filename().string() + " mutant " + std::to_string(mutant);
      if (!readable) {
        ++rejected;
        EXPECT_EQ(rebuild.misses, 1) << label;
        EXPECT_TRUE(rebuild.ok) << label << ": " << rebuild.diagnostics;
        EXPECT_EQ(rebuild.fingerprint, clean.fingerprint) << label;
      } else {
        ++accepted;
        EXPECT_TRUE(rebuild.ok || !rebuild.diagnostics.empty()) << label;
      }
      EXPECT_EQ(rebuild.verify_error, "") << label;
      WriteBytes(object, original);
    }
  }
  EXPECT_GT(rejected, 0);
  const Rebuild restored = BuildFromCache(dir);
  EXPECT_EQ(restored.misses, 0);
  EXPECT_EQ(restored.fingerprint, clean.fingerprint);
  std::printf("%zu objects: %d mutants rejected, %d accepted\n", objects.size(), rejected,
              accepted);
}

}  // namespace
}  // namespace knit
