// ASCII character classes for the hand-written lexers: the "C" locale's
// isspace, isalpha/'_', isalnum/'_', isdigit and isxdigit as one table lookup.
#ifndef SRC_SUPPORT_CHAR_CLASS_H_
#define SRC_SUPPORT_CHAR_CLASS_H_

#include <array>
#include <cstdint>

namespace knit {

enum CharClass : uint8_t {
  kSpaceChar = 1,
  kIdentStart = 2,  // a letter or '_'
  kIdentChar = 4,   // a letter, a digit or '_'
  kDigitChar = 8,
  kHexDigitChar = 16,
};

constexpr std::array<uint8_t, 256> MakeCharClasses() {
  std::array<uint8_t, 256> classes{};
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    classes[static_cast<unsigned char>(c)] = kSpaceChar;
  }
  for (int c = 0; c < 256; ++c) {
    bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    bool digit = c >= '0' && c <= '9';
    if (alpha || c == '_') {
      classes[c] |= kIdentStart | kIdentChar;
    }
    if (digit) {
      classes[c] |= kIdentChar | kDigitChar | kHexDigitChar;
    }
    if ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')) {
      classes[c] |= kHexDigitChar;
    }
  }
  return classes;
}

inline constexpr std::array<uint8_t, 256> kCharClasses = MakeCharClasses();

// True when `c` is in any of the classes in `classes`.
inline bool IsCharClass(char c, uint8_t classes) {
  return (kCharClasses[static_cast<unsigned char>(c)] & classes) != 0;
}

}  // namespace knit

#endif  // SRC_SUPPORT_CHAR_CLASS_H_
