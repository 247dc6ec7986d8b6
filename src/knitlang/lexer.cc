#include "src/knitlang/lexer.h"

#include <iterator>

#include "src/support/char_class.h"

namespace knit {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent:
      return "identifier";
    case TokenKind::kString:
      return "string";
    case TokenKind::kLBrace:
      return "'{'";
    case TokenKind::kRBrace:
      return "'}'";
    case TokenKind::kLBracket:
      return "'['";
    case TokenKind::kRBracket:
      return "']'";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kSemi:
      return "';'";
    case TokenKind::kColon:
      return "':'";
    case TokenKind::kDot:
      return "'.'";
    case TokenKind::kPlus:
      return "'+'";
    case TokenKind::kEq:
      return "'='";
    case TokenKind::kLess:
      return "'<'";
    case TokenKind::kLessEq:
      return "'<='";
    case TokenKind::kArrowLeft:
      return "'<-'";
    case TokenKind::kEnd:
      return "end of input";
  }
  return "token";
}

const char* KnitWordSpelling(KnitWord word) {
  static constexpr const char* kSpellings[] = {
      "",        "bundletype", "flags",       "unit",      "property", "type",  "imports",
      "exports", "depends",    "files",       "rename",    "initializer", "finalizer", "link",
      "constraints", "flatten", "needs",     "with",      "to",       "for",   "as",
  };
  static_assert(std::size(kSpellings) == static_cast<size_t>(KnitWord::kAs) + 1);
  return kSpellings[static_cast<size_t>(word)];
}

namespace {

KnitWord WordOf(std::string_view text) {
  auto is = [&](KnitWord word) { return text == KnitWordSpelling(word) ? word : KnitWord::kNone; };
  switch (text[0]) {
    case 'a':
      return is(KnitWord::kAs);
    case 'b':
      return is(KnitWord::kBundletype);
    case 'c':
      return is(KnitWord::kConstraints);
    case 'd':
      return is(KnitWord::kDepends);
    case 'e':
      return is(KnitWord::kExports);
    case 'f':
      if (text.size() == 5) {
        KnitWord word = is(KnitWord::kFlags);
        return word != KnitWord::kNone ? word : is(KnitWord::kFiles);
      }
      return text.size() == 3 ? is(KnitWord::kFor)
                              : (text.size() == 7 ? is(KnitWord::kFlatten)
                                                  : is(KnitWord::kFinalizer));
    case 'i':
      return text.size() == 7 ? is(KnitWord::kImports) : is(KnitWord::kInitializer);
    case 'l':
      return is(KnitWord::kLink);
    case 'n':
      return is(KnitWord::kNeeds);
    case 'p':
      return is(KnitWord::kProperty);
    case 'r':
      return is(KnitWord::kRename);
    case 't':
      return text.size() == 2 ? is(KnitWord::kTo) : is(KnitWord::kType);
    case 'u':
      return is(KnitWord::kUnit);
    case 'w':
      return is(KnitWord::kWith);
    default:
      return KnitWord::kNone;
  }
}

class Lexer {
 public:
  Lexer(std::string_view source, const std::string& file_name, Diagnostics& diags)
      : source_(source), file_(file_name), diags_(diags) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    tokens.reserve(source_.size() / 4 + 8);
    while (true) {
      if (!SkipTrivia()) {
        return Result<std::vector<Token>>::Failure();
      }
      const int column = Column();
      if (AtEnd()) {
        tokens.push_back(Token{TokenKind::kEnd, KnitWord::kNone, line_, column, {}});
        return tokens;
      }
      char c = Peek();
      if (IsCharClass(c, kIdentStart)) {
        size_t start = pos_;
        while (!AtEnd() && IsCharClass(Peek(), kIdentChar)) {
          ++pos_;
        }
        std::string_view text = source_.substr(start, pos_ - start);
        tokens.push_back(Token{TokenKind::kIdent, WordOf(text), line_, column, text});
        continue;
      }
      if (c == '"') {
        Result<Token> token = LexString();
        if (!token.ok()) {
          return Result<std::vector<Token>>::Failure();
        }
        tokens.push_back(token.value());
        continue;
      }
      TokenKind kind;
      switch (c) {
        case '{':
          kind = TokenKind::kLBrace;
          break;
        case '}':
          kind = TokenKind::kRBrace;
          break;
        case '[':
          kind = TokenKind::kLBracket;
          break;
        case ']':
          kind = TokenKind::kRBracket;
          break;
        case '(':
          kind = TokenKind::kLParen;
          break;
        case ')':
          kind = TokenKind::kRParen;
          break;
        case ',':
          kind = TokenKind::kComma;
          break;
        case ';':
          kind = TokenKind::kSemi;
          break;
        case ':':
          kind = TokenKind::kColon;
          break;
        case '.':
          kind = TokenKind::kDot;
          break;
        case '+':
          kind = TokenKind::kPlus;
          break;
        case '=':
          kind = TokenKind::kEq;
          break;
        case '<':
          if (PeekAt(1) == '=') {
            kind = TokenKind::kLessEq;
            ++pos_;
          } else if (PeekAt(1) == '-') {
            kind = TokenKind::kArrowLeft;
            ++pos_;
          } else {
            kind = TokenKind::kLess;
          }
          break;
        default:
          diags_.Error(Here(), std::string("unexpected character '") + c + "' in Knit source");
          return Result<std::vector<Token>>::Failure();
      }
      ++pos_;
      tokens.push_back(Token{kind, KnitWord::kNone, line_, column, {}});
    }
  }

 private:
  bool AtEnd() const { return pos_ >= source_.size(); }
  char Peek() const { return source_[pos_]; }
  char PeekAt(size_t offset) const {
    return pos_ + offset < source_.size() ? source_[pos_ + offset] : '\0';
  }

  // Steps over the current character, which may be a newline.
  void Advance() {
    if (source_[pos_] == '\n') {
      ++line_;
      line_start_ = pos_ + 1;
    }
    ++pos_;
  }

  int Column() const { return static_cast<int>(pos_ - line_start_) + 1; }
  SourceLoc Here() const { return SourceLoc{file_, line_, Column()}; }

  // Skips whitespace and comments. Returns false on an unterminated block comment.
  bool SkipTrivia() {
    while (!AtEnd()) {
      char c = Peek();
      if (IsCharClass(c, kSpaceChar)) {
        Advance();
        continue;
      }
      if (c == '/' && PeekAt(1) == '/') {
        while (!AtEnd() && Peek() != '\n') {
          ++pos_;
        }
        continue;
      }
      if (c == '/' && PeekAt(1) == '*') {
        SourceLoc start = Here();
        pos_ += 2;
        while (!AtEnd() && !(Peek() == '*' && PeekAt(1) == '/')) {
          Advance();
        }
        if (AtEnd()) {
          diags_.Error(start, "unterminated block comment");
          return false;
        }
        pos_ += 2;
        continue;
      }
      break;
    }
    return true;
  }

  // A string token whose text is the raw body; only the escapes \n \t \" \\ are
  // allowed.
  Result<Token> LexString() {
    const int line = line_;
    const int column = Column();
    auto unterminated = [&] {
      diags_.Error(SourceLoc{file_, line, column}, "unterminated string literal");
      return Result<Token>::Failure();
    };
    size_t body = ++pos_;  // opening quote
    while (true) {
      if (AtEnd() || Peek() == '\n') {
        return unterminated();
      }
      char c = source_[pos_++];
      if (c == '"') {
        return Token{TokenKind::kString, KnitWord::kNone, line, column,
                     source_.substr(body, pos_ - 1 - body)};
      }
      if (c == '\\') {
        if (AtEnd()) {
          return unterminated();
        }
        char escaped = Peek();
        Advance();
        if (escaped != 'n' && escaped != 't' && escaped != '"' && escaped != '\\') {
          diags_.Error(Here(), std::string("unknown escape '\\") + escaped + "' in string");
          return Result<Token>::Failure();
        }
      }
    }
  }

  std::string_view source_;
  const std::string& file_;
  Diagnostics& diags_;
  size_t pos_ = 0;
  int line_ = 1;
  size_t line_start_ = 0;  // offset of the current line's first byte
};

}  // namespace

Result<std::vector<Token>> LexKnit(std::string_view source, const std::string& file_name,
                                   Diagnostics& diags) {
  return Lexer(source, file_name, diags).Run();
}

std::string DecodeKnitString(std::string_view raw) {
  std::string text;
  text.reserve(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '\\' && i + 1 < raw.size()) {
      char escaped = raw[++i];
      text += escaped == 'n' ? '\n' : (escaped == 't' ? '\t' : escaped);
    } else {
      text += raw[i];
    }
  }
  return text;
}

}  // namespace knit
