// Seeded text mutation for the fuzz tests: byte flips, truncations and
// splices of a valid input.
#ifndef TESTS_MUTATE_H_
#define TESTS_MUTATE_H_

#include <algorithm>
#include <random>
#include <string>

namespace knit {

// One mutation of `text`, chosen by `kind` (0 flip, 1 truncation, 2 splice).
inline std::string Mutate(const std::string& text, int kind, std::mt19937& rng) {
  std::string out = text;
  if (out.empty()) {
    return out;
  }
  switch (kind) {
    case 0: {
      size_t at = rng() % out.size();
      out[at] = static_cast<char>(out[at] ^ (1 + rng() % 255));
      break;
    }
    case 1:
      out.resize(rng() % out.size());
      break;
    default: {
      // Copy a short run of bytes (a token or a few) to another position.
      size_t from = rng() % out.size();
      size_t length = std::min<size_t>(1 + rng() % 24, out.size() - from);
      size_t to = rng() % (out.size() + 1);
      out.insert(to, text.substr(from, length));
      break;
    }
  }
  return out;
}

}  // namespace knit

#endif  // TESTS_MUTATE_H_
