// Small string helpers used across the toolchain.
#ifndef SRC_SUPPORT_STRINGS_H_
#define SRC_SUPPORT_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace knit {

// Joins the elements of `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts, std::string_view separator);

// Splits on a single character; never returns empty trailing element for a trailing
// separator-free string ("a,b" -> {"a","b"}, "" -> {}).
std::vector<std::string> Split(std::string_view text, char separator);

// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// True for [A-Za-z_][A-Za-z0-9_]*.
bool IsIdentifier(std::string_view text);

// Parses the whole of `text` as a base-10 integer within [min, max]. Returns
// false, leaving `out` untouched, on an empty, malformed (sign other than a
// leading '-', whitespace, trailing characters) or out-of-range value.
bool ParseInt(std::string_view text, long long min, long long max, long long& out);

// Formats an integer with thousands separators ("109464" -> "109,464") for report
// tables.
std::string WithThousands(long long value);

}  // namespace knit

#endif  // SRC_SUPPORT_STRINGS_H_
