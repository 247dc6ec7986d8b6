// MiniC lexer with a miniature preprocessor: `#include "file"` is resolved through a
// caller-provided virtual file system with include-once semantics. No macros — the
// corpus uses enum constants instead (the paper's Knit likewise leaves cpp to the C
// compiler; our MiniC is preprocessor-free by design).
//
// Tokens are small and borrow the source: every keyword and punctuator is an enum
// code, identifiers and string literals are views into the lexed text, and a
// position is a file index plus line and column. The sources must outlive the
// tokens; the parser copies what the AST keeps.
#ifndef SRC_MINIC_CLEXER_H_
#define SRC_MINIC_CLEXER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/diagnostics.h"
#include "src/support/result.h"

namespace knit {

// Maps file name -> contents. The whole toolchain works on in-memory sources.
using SourceMap = std::map<std::string, std::string>;

// Read access to a SourceMap, optionally with one more file laid over it: a
// hot-swap replacement lexes its own text and the running build's #includes
// through a view instead of a copy of the build's map. The map, the overlay's
// name and its text must outlive the view.
class SourceView {
 public:
  SourceView(const SourceMap& sources) : sources_(&sources) {}  // NOLINT: a map is a view
  SourceView(const SourceMap& sources, const std::string& name, const std::string& text)
      : sources_(&sources), overlay_name_(&name), overlay_text_(&text) {}

  // The contents of `file` (the overlay shadows the map), or null.
  const std::string* Find(const std::string& file) const {
    if (overlay_name_ != nullptr && file == *overlay_name_) {
      return overlay_text_;
    }
    auto it = sources_->find(file);
    return it == sources_->end() ? nullptr : &it->second;
  }

 private:
  const SourceMap* sources_;
  const std::string* overlay_name_ = nullptr;
  const std::string* overlay_text_ = nullptr;
};

// One code per token kind, keyword and punctuator.
enum class CTok : uint8_t {
  kIdent,    // text is the spelling
  kIntLit,   // int_value
  kCharLit,  // int_value
  kStrLit,   // text is the raw body between the quotes (see DecodeCString)
  kEnd,
  // Keywords.
  kVoid,
  kChar,
  kInt,
  kUnsigned,
  kStruct,
  kTypedef,
  kEnum,
  kStatic,
  kExtern,
  kIf,
  kElse,
  kWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
  kSizeof,
  // Punctuators.
  kShlAssign,  // <<=
  kShrAssign,  // >>=
  kEllipsis,   // ...
  kArrow,      // ->
  kInc,        // ++
  kDec,        // --
  kShl,        // <<
  kShr,        // >>
  kLe,         // <=
  kGe,         // >=
  kEq,         // ==
  kNe,         // !=
  kAndAnd,     // &&
  kOrOr,       // ||
  kAddAssign,  // +=
  kSubAssign,  // -=
  kMulAssign,  // *=
  kDivAssign,  // /=
  kModAssign,  // %=
  kAndAssign,  // &=
  kOrAssign,   // |=
  kXorAssign,  // ^=
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kSemi,
  kComma,
  kDot,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kLess,
  kGreater,
  kAssign,  // =
  kNot,     // !
  kTilde,
  kAmp,
  kPipe,
  kCaret,
  kQuestion,
  kColon,
};

// The source spelling of a keyword or punctuator code ("" for the other kinds).
const char* CTokSpelling(CTok code);

struct CToken {
  CTok kind = CTok::kEnd;
  uint32_t file = 0;  // index into the lexed file names (see LexC)
  int line = 0;       // 1-based; 0 on the end token
  int column = 0;
  std::string_view text;
  long long int_value = 0;
};

// Tokenizes `file` from `sources`, following #include "..." directives (each included
// file is lexed at most once per call). Errors go to diags. The tokens borrow
// `sources`. When `files` is given, it receives the names CToken::file indexes, in
// first-lexed order (`file` first).
Result<std::vector<CToken>> LexC(const SourceView& sources, const std::string& file,
                                 Diagnostics& diags, std::vector<std::string>* files = nullptr);

// Tokenizes a bare string (no includes possible); every token's file index is 0,
// naming `name`. The tokens borrow `source`.
Result<std::vector<CToken>> LexCString(std::string_view source, const std::string& name,
                                       Diagnostics& diags);

// The contents of a string literal whose raw body is `raw` (a kStrLit token's
// text), with escapes decoded. The lexer has already warned about unknown escapes.
std::string DecodeCString(std::string_view raw);

}  // namespace knit

#endif  // SRC_MINIC_CLEXER_H_
