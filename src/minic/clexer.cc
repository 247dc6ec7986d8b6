#include "src/minic/clexer.h"

#include <iterator>
#include <set>

#include "src/support/char_class.h"

namespace knit {
namespace {

// Keyword code of an identifier spelling, or kIdent.
CTok KeywordOf(std::string_view word) {
  switch (word[0]) {
    case 'b':
      return word == "break" ? CTok::kBreak : CTok::kIdent;
    case 'c':
      if (word == "char") {
        return CTok::kChar;
      }
      return word == "continue" ? CTok::kContinue : CTok::kIdent;
    case 'e':
      if (word == "else") {
        return CTok::kElse;
      }
      if (word == "enum") {
        return CTok::kEnum;
      }
      return word == "extern" ? CTok::kExtern : CTok::kIdent;
    case 'f':
      return word == "for" ? CTok::kFor : CTok::kIdent;
    case 'i':
      if (word == "int") {
        return CTok::kInt;
      }
      return word == "if" ? CTok::kIf : CTok::kIdent;
    case 'r':
      return word == "return" ? CTok::kReturn : CTok::kIdent;
    case 's':
      if (word == "struct") {
        return CTok::kStruct;
      }
      if (word == "static") {
        return CTok::kStatic;
      }
      return word == "sizeof" ? CTok::kSizeof : CTok::kIdent;
    case 't':
      return word == "typedef" ? CTok::kTypedef : CTok::kIdent;
    case 'u':
      return word == "unsigned" ? CTok::kUnsigned : CTok::kIdent;
    case 'v':
      return word == "void" ? CTok::kVoid : CTok::kIdent;
    case 'w':
      return word == "while" ? CTok::kWhile : CTok::kIdent;
    default:
      return CTok::kIdent;
  }
}

// The punctuator starting with `c` (followed by `c1`, `c2`) by maximal munch, and
// its length; kEnd when `c` starts none.
CTok MunchPunct(char c, char c1, char c2, size_t& length) {
  length = 1;
  auto assign_or = [&](CTok with_eq, CTok alone) {
    if (c1 == '=') {
      length = 2;
      return with_eq;
    }
    return alone;
  };
  auto doubled_or = [&](CTok doubled, CTok with_eq, CTok alone) {
    if (c1 == c) {
      length = 2;
      return doubled;
    }
    return assign_or(with_eq, alone);
  };
  switch (c) {
    case '<':
    case '>': {
      bool left = c == '<';
      if (c1 == c) {
        length = c2 == '=' ? 3 : 2;
        if (c2 == '=') {
          return left ? CTok::kShlAssign : CTok::kShrAssign;
        }
        return left ? CTok::kShl : CTok::kShr;
      }
      return left ? assign_or(CTok::kLe, CTok::kLess) : assign_or(CTok::kGe, CTok::kGreater);
    }
    case '.':
      if (c1 == '.' && c2 == '.') {
        length = 3;
        return CTok::kEllipsis;
      }
      return CTok::kDot;
    case '-':
      if (c1 == '>') {
        length = 2;
        return CTok::kArrow;
      }
      return doubled_or(CTok::kDec, CTok::kSubAssign, CTok::kMinus);
    case '+':
      return doubled_or(CTok::kInc, CTok::kAddAssign, CTok::kPlus);
    case '&':
      return doubled_or(CTok::kAndAnd, CTok::kAndAssign, CTok::kAmp);
    case '|':
      return doubled_or(CTok::kOrOr, CTok::kOrAssign, CTok::kPipe);
    case '=':
      return assign_or(CTok::kEq, CTok::kAssign);
    case '!':
      return assign_or(CTok::kNe, CTok::kNot);
    case '*':
      return assign_or(CTok::kMulAssign, CTok::kStar);
    case '/':
      return assign_or(CTok::kDivAssign, CTok::kSlash);
    case '%':
      return assign_or(CTok::kModAssign, CTok::kPercent);
    case '^':
      return assign_or(CTok::kXorAssign, CTok::kCaret);
    case '(':
      return CTok::kLParen;
    case ')':
      return CTok::kRParen;
    case '{':
      return CTok::kLBrace;
    case '}':
      return CTok::kRBrace;
    case '[':
      return CTok::kLBracket;
    case ']':
      return CTok::kRBracket;
    case ';':
      return CTok::kSemi;
    case ',':
      return CTok::kComma;
    case '~':
      return CTok::kTilde;
    case '?':
      return CTok::kQuestion;
    case ':':
      return CTok::kColon;
    default:
      return CTok::kEnd;
  }
}

// The value of the escape `\c`; unknown escapes stand for `c` itself.
long long EscapeValue(char c) {
  switch (c) {
    case 'n':
      return '\n';
    case 't':
      return '\t';
    case 'r':
      return '\r';
    case '0':
      return 0;
    default:
      return c;
  }
}

bool KnownEscape(char c) {
  switch (c) {
    case 'n':
    case 't':
    case 'r':
    case '0':
    case '\\':
    case '\'':
    case '"':
      return true;
    default:
      return false;
  }
}

class CLexer {
 public:
  CLexer(SourceView sources, Diagnostics& diags, std::vector<CToken>& out,
         std::vector<std::string>& files)
      : sources_(sources), diags_(diags), out_(out), files_(files) {}

  bool LexFile(const std::string& file) {
    if (!included_.insert(file).second) {
      return true;  // include-once
    }
    const std::string* text = sources_.Find(file);
    if (text == nullptr) {
      diags_.Error(SourceLoc{file, 0, 0}, "no such source file '" + file + "'");
      return false;
    }
    return LexBuffer(*text, file);
  }

  bool LexBuffer(std::string_view source, const std::string& name) {
    if (out_.empty()) {
      out_.reserve(source.size() / 4 + 8);
    }
    const auto file = static_cast<uint32_t>(files_.size());
    files_.push_back(name);
    const char* const s = source.data();
    const size_t n = source.size();
    size_t pos = 0;
    int line = 1;
    size_t line_start = 0;  // offset of the current line's first byte

    auto peek = [&](size_t at) -> char { return at < n ? s[at] : '\0'; };
    auto column = [&](size_t at) { return static_cast<int>(at - line_start) + 1; };
    auto loc = [&](int at_line, int at_column) {
      return SourceLoc{files_[file], at_line, at_column};
    };
    // Steps over s[pos], which may be a newline.
    auto consume = [&] {
      if (s[pos] == '\n') {
        ++line;
        line_start = pos + 1;
      }
      ++pos;
    };
    auto push = [&](CTok kind, int at_column, std::string_view text, long long value) {
      out_.push_back(CToken{kind, file, line, at_column, text, value});
    };

    while (pos < n) {
      const char c = s[pos];
      if (IsCharClass(c, kSpaceChar)) {
        consume();
        continue;
      }
      const int col = column(pos);
      if (IsCharClass(c, kIdentStart)) {
        size_t start = pos++;
        while (pos < n && IsCharClass(s[pos], kIdentChar)) {
          ++pos;
        }
        std::string_view word(s + start, pos - start);
        if (word == "const") {
          continue;  // const is accepted and ignored (MiniC has no const semantics)
        }
        push(KeywordOf(word), col, word, 0);
        continue;
      }
      if (IsCharClass(c, kDigitChar)) {
        // Unsigned accumulation: an over-long literal wraps instead of overflowing.
        unsigned long long value = 0;
        if (c == '0' && (peek(pos + 1) == 'x' || peek(pos + 1) == 'X')) {
          pos += 2;
          while (pos < n && IsCharClass(s[pos], kHexDigitChar)) {
            char d = s[pos++];
            unsigned digit = IsCharClass(d, kDigitChar) ? d - '0' : (d | 0x20) - 'a' + 10;
            value = value * 16 + digit;
          }
        } else {
          while (pos < n && IsCharClass(s[pos], kDigitChar)) {
            value = value * 10 + (s[pos++] - '0');
          }
        }
        // Accept and ignore integer suffixes.
        while (pos < n && (s[pos] == 'u' || s[pos] == 'U' || s[pos] == 'l' || s[pos] == 'L')) {
          ++pos;
        }
        push(CTok::kIntLit, col, {}, static_cast<long long>(value));
        continue;
      }
      switch (c) {
        case '/':
          if (peek(pos + 1) == '/') {
            while (pos < n && s[pos] != '\n') {
              ++pos;
            }
            continue;
          }
          if (peek(pos + 1) == '*') {
            const int start_line = line;
            pos += 2;
            while (pos < n && !(s[pos] == '*' && peek(pos + 1) == '/')) {
              consume();
            }
            if (pos >= n) {
              diags_.Error(loc(start_line, col), "unterminated block comment");
              return false;
            }
            pos += 2;
            continue;
          }
          break;
        case '#':
          if (!LexInclude(source, pos, line, line_start, file)) {
            return false;
          }
          continue;
        case '\'': {
          const int start_line = line;
          ++pos;
          if (pos >= n) {
            diags_.Error(loc(start_line, col), "unterminated character literal");
            return false;
          }
          long long value = 0;
          if (s[pos] == '\\') {
            ++pos;
            if (pos >= n) {
              diags_.Error(loc(start_line, col), "unterminated character literal");
              return false;
            }
            value = Escape(s[pos], loc(start_line, col));
          } else {
            value = static_cast<unsigned char>(s[pos]);
          }
          consume();
          if (peek(pos) != '\'') {
            diags_.Error(loc(start_line, col), "unterminated character literal");
            return false;
          }
          ++pos;
          out_.push_back(CToken{CTok::kCharLit, file, start_line, col, {}, value});
          continue;
        }
        case '"': {
          const int start_line = line;
          size_t body = ++pos;
          while (true) {
            if (pos >= n || s[pos] == '\n') {
              diags_.Error(loc(start_line, col), "unterminated string literal");
              return false;
            }
            char d = s[pos++];
            if (d == '"') {
              break;
            }
            if (d == '\\') {
              if (pos >= n) {
                diags_.Error(loc(start_line, col), "unterminated string literal");
                return false;
              }
              Escape(s[pos], loc(start_line, col));
              consume();
            }
          }
          out_.push_back(CToken{CTok::kStrLit, file, start_line, col,
                                std::string_view(s + body, pos - 1 - body), 0});
          continue;
        }
        default:
          break;
      }
      size_t length = 0;
      CTok kind = MunchPunct(c, peek(pos + 1), peek(pos + 2), length);
      if (kind == CTok::kEnd) {
        diags_.Error(loc(line, col),
                     std::string("unexpected character '") + c + "' in MiniC source");
        return false;
      }
      push(kind, col, {}, 0);
      pos += length;
    }
    return true;
  }

 private:
  // `#include "file"` at s[pos] == '#'; the only supported directive. Lexes the
  // included file in place and leaves pos after the closing quote.
  bool LexInclude(std::string_view source, size_t& pos, int line, size_t line_start,
                  uint32_t file) {
    const size_t n = source.size();
    const SourceLoc start{files_[file], line, static_cast<int>(pos - line_start) + 1};
    ++pos;
    size_t word_start = pos;
    while (pos < n && IsCharClass(source[pos], kIdentStart) && source[pos] != '_') {
      ++pos;
    }
    std::string_view directive = source.substr(word_start, pos - word_start);
    if (directive != "include") {
      diags_.Error(start, "unsupported preprocessor directive '#" + std::string(directive) +
                              "' (MiniC supports only #include \"file\")");
      return false;
    }
    while (pos < n && (source[pos] == ' ' || source[pos] == '\t')) {
      ++pos;
    }
    if (pos >= n || source[pos] != '"') {
      diags_.Error(SourceLoc{files_[file], line, static_cast<int>(pos - line_start) + 1},
                   "#include expects a \"file\" name");
      return false;
    }
    size_t name_start = ++pos;
    while (pos < n && source[pos] != '"' && source[pos] != '\n') {
      ++pos;
    }
    if (pos >= n || source[pos] != '"') {
      diags_.Error(start, "unterminated #include file name");
      return false;
    }
    std::string name(source.substr(name_start, pos - name_start));
    ++pos;
    if (!LexFile(name)) {
      diags_.Note(start, "included from here");
      return false;
    }
    return true;
  }

  // The value of the escape `\c` in a literal at `loc`, warning when unknown.
  long long Escape(char c, const SourceLoc& loc) {
    if (!KnownEscape(c)) {
      diags_.Warning(loc, std::string("unknown escape '\\") + c + "'");
    }
    return EscapeValue(c);
  }

  SourceView sources_;
  Diagnostics& diags_;
  std::vector<CToken>& out_;
  std::vector<std::string>& files_;
  std::set<std::string> included_;
};

}  // namespace

const char* CTokSpelling(CTok code) {
  static constexpr const char* kSpellings[] = {
      "",      "",      "",       "",         "",       "void",   "char",  "int",
      "unsigned", "struct", "typedef", "enum", "static", "extern", "if",     "else",  "while",
      "for",   "return", "break",  "continue", "sizeof", "<<=",   ">>=",    "...",   "->",
      "++",    "--",    "<<",     ">>",       "<=",     ">=",    "==",     "!=",    "&&",
      "||",    "+=",    "-=",     "*=",       "/=",     "%=",    "&=",     "|=",    "^=",
      "(",     ")",     "{",      "}",        "[",      "]",     ";",      ",",     ".",
      "+",     "-",     "*",      "/",        "%",      "<",     ">",      "=",     "!",
      "~",     "&",     "|",      "^",        "?",      ":",
  };
  static_assert(std::size(kSpellings) == static_cast<size_t>(CTok::kColon) + 1);
  return kSpellings[static_cast<size_t>(code)];
}

Result<std::vector<CToken>> LexC(const SourceView& sources, const std::string& file,
                                 Diagnostics& diags, std::vector<std::string>* files) {
  std::vector<CToken> tokens;
  std::vector<std::string> names;
  CLexer lexer(sources, diags, tokens, names);
  if (!lexer.LexFile(file)) {
    return Result<std::vector<CToken>>::Failure();
  }
  tokens.push_back(CToken{});
  if (files != nullptr) {
    *files = std::move(names);
  }
  return tokens;
}

Result<std::vector<CToken>> LexCString(std::string_view source, const std::string& name,
                                       Diagnostics& diags) {
  SourceMap empty;
  std::vector<CToken> tokens;
  std::vector<std::string> names;
  CLexer lexer(empty, diags, tokens, names);
  if (!lexer.LexBuffer(source, name)) {
    return Result<std::vector<CToken>>::Failure();
  }
  tokens.push_back(CToken{});
  return tokens;
}

std::string DecodeCString(std::string_view raw) {
  std::string text;
  text.reserve(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '\\' && i + 1 < raw.size()) {
      text += static_cast<char>(EscapeValue(raw[++i]));
    } else {
      text += raw[i];
    }
  }
  return text;
}

}  // namespace knit
