// Lexer for the Knit linking language. Produces the full token vector up front;
// Knit sources are small, so there is no need for streaming.
#ifndef SRC_KNITLANG_LEXER_H_
#define SRC_KNITLANG_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/knitlang/token.h"
#include "src/support/diagnostics.h"
#include "src/support/result.h"

namespace knit {

// Tokenizes `source`; the tokens borrow it. `file_name` is used for locations.
// Reports lexical errors (bad characters, unterminated strings/comments, unknown
// escapes) into `diags` and fails.
Result<std::vector<Token>> LexKnit(std::string_view source, const std::string& file_name,
                                   Diagnostics& diags);

// The contents of a string whose raw body is `raw` (a kString token's text), with
// escapes decoded. The lexer has already rejected unknown escapes.
std::string DecodeKnitString(std::string_view raw);

}  // namespace knit

#endif  // SRC_KNITLANG_LEXER_H_
