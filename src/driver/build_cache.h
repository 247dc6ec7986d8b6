// Content-addressed artifact cache for the compile stage of the Knit pipeline
// (src/driver/pipeline.h).
//
// Keys are FNV-64 digests over everything that can influence the compiled object:
// the unit's source text (transitive #include closure through the in-memory
// SourceMap), the resolved codegen options, and — for flatten groups — the member
// instance paths, rename maps, and flatten options (see UnitCacheKey /
// GroupCacheKey in pipeline.cc for the exact recipe). Values are finished
// pre-objcopy ObjectFiles: the per-instance duplicate/rename/localize pass is
// cheap and always re-runs, so rewiring a configuration never invalidates the
// cached base objects.
//
// The cache is in-memory by default (what tests use); giving it a directory makes
// every entry also persist as `knit-<16 hex>.kobj`, so warm rebuilds survive
// process restarts. All methods are thread-safe: compile tasks running under the
// executor probe and fill the cache concurrently.
#ifndef SRC_DRIVER_BUILD_CACHE_H_
#define SRC_DRIVER_BUILD_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "src/obj/object.h"

namespace knit {

class BuildCache {
 public:
  BuildCache() = default;
  // `dir` is created if missing; "" keeps the cache purely in memory.
  explicit BuildCache(std::string dir);

  // True (and fills *out) when `key` is present in memory or on disk.
  bool Lookup(uint64_t key, ObjectFile* out);

  void Store(uint64_t key, const ObjectFile& object);

  const std::string& dir() const { return dir_; }
  size_t size() const;

 private:
  std::string PathFor(uint64_t key) const;

  mutable std::mutex mutex_;
  std::string dir_;
  std::map<uint64_t, ObjectFile> memory_;
};

// On-disk object format: versioned and checksummed, so a stale, truncated or
// corrupt file reads as a miss. A file whose checksum holds but whose object is
// not well formed (an index outside what it indexes, or two symbols of one
// name) is a miss too.
std::string SerializeObjectFile(const ObjectFile& object);
bool DeserializeObjectFile(const std::string& bytes, ObjectFile* out);

}  // namespace knit

#endif  // SRC_DRIVER_BUILD_CACHE_H_
