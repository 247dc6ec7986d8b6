// Token stream for the Knit linking language.
#ifndef SRC_KNITLANG_TOKEN_H_
#define SRC_KNITLANG_TOKEN_H_

#include <cstdint>
#include <string_view>

namespace knit {

enum class TokenKind : uint8_t {
  kIdent,     // identifiers, including the contextual words
  kString,    // "..."
  kLBrace,    // {
  kRBrace,    // }
  kLBracket,  // [
  kRBracket,  // ]
  kLParen,    // (
  kRParen,    // )
  kComma,     // ,
  kSemi,      // ;
  kColon,     // :
  kDot,       // .
  kPlus,      // +
  kEq,        // =
  kLess,      // <
  kLessEq,    // <=
  kArrowLeft, // <-
  kEnd,       // end of input
};

const char* TokenKindName(TokenKind kind);

// The words the parser gives meaning to. They are contextual: a kIdent token
// carries its word code, and where any name is allowed a word is a name.
enum class KnitWord : uint8_t {
  kNone,
  kBundletype,
  kFlags,
  kUnit,
  kProperty,
  kType,
  kImports,
  kExports,
  kDepends,
  kFiles,
  kRename,
  kInitializer,
  kFinalizer,
  kLink,
  kConstraints,
  kFlatten,
  kNeeds,
  kWith,
  kTo,
  kFor,
  kAs,
};

const char* KnitWordSpelling(KnitWord word);

// A token borrows the lexed text: `text` is an identifier's spelling or a
// string's raw body between the quotes (see DecodeKnitString).
struct Token {
  TokenKind kind = TokenKind::kEnd;
  KnitWord word = KnitWord::kNone;
  int line = 0;
  int column = 0;
  std::string_view text;

  bool Is(KnitWord w) const { return kind == TokenKind::kIdent && word == w; }
};

}  // namespace knit

#endif  // SRC_KNITLANG_TOKEN_H_
