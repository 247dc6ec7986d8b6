#include "src/support/strings.h"

#include <cctype>
#include <charconv>

namespace knit {

std::string Join(const std::vector<std::string>& parts, std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += separator;
    }
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(std::string_view text, char separator) {
  std::vector<std::string> out;
  if (text.empty()) {
    return out;
  }
  size_t start = 0;
  while (true) {
    size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

bool ParseInt(std::string_view text, long long min, long long max, long long& out) {
  long long value = 0;
  auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || error != std::errc() || end != text.data() + text.size() ||
      value < min || value > max) {
    return false;
  }
  out = value;
  return true;
}

bool IsIdentifier(std::string_view text) {
  if (text.empty()) {
    return false;
  }
  if (std::isalpha(static_cast<unsigned char>(text[0])) == 0 && text[0] != '_') {
    return false;
  }
  for (char c : text.substr(1)) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return true;
}

std::string WithThousands(long long value) {
  bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(value) : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) {
      out += ',';
    }
    out += *it;
    ++count;
  }
  if (negative) {
    out += '-';
  }
  return std::string(out.rbegin(), out.rend());
}

}  // namespace knit
