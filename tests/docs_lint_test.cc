// Docs lint lane (`ctest -L docs`): the user-facing markdown must not rot.
// Checks every inline link in README.md / DESIGN.md / EXPERIMENTS.md whose
// target is a repository path (http(s)/mailto/pure-anchor links are skipped)
// and fails naming the file and target when the linked path does not exist;
// also checks section cross-references, that every knitc invocation in a
// fenced snippet names a command, that every backticked source path exists and
// that every backticked bench/NAME names an existing bench.
// KNIT_REPO_ROOT is injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace knit {
namespace {

namespace fs = std::filesystem;

const char* kDocs[] = {"README.md", "DESIGN.md", "EXPERIMENTS.md"};

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Link {
  std::string target;
  int line = 0;
};

// Extracts inline markdown links [text](target), tolerating nested brackets in
// the text and ignoring image links' leading '!' (they parse the same way).
// Fenced code blocks are skipped: ``` snippets routinely contain [i](...)-like
// indexing that is not a link.
std::vector<Link> ExtractLinks(const std::string& markdown) {
  std::vector<Link> links;
  int line = 1;
  bool in_fence = false;
  for (size_t i = 0; i < markdown.size(); ++i) {
    if (markdown[i] == '\n') {
      ++line;
      continue;
    }
    if (markdown.compare(i, 3, "```") == 0) {
      in_fence = !in_fence;
      i += 2;
      continue;
    }
    if (in_fence || markdown[i] != '[') {
      continue;
    }
    int depth = 1;
    size_t j = i + 1;
    while (j < markdown.size() && depth > 0) {
      if (markdown[j] == '[') {
        ++depth;
      } else if (markdown[j] == ']') {
        --depth;
      }
      ++j;
    }
    if (depth != 0 || j >= markdown.size() || markdown[j] != '(') {
      continue;
    }
    size_t close = markdown.find(')', j + 1);
    if (close == std::string::npos) {
      continue;
    }
    links.push_back(Link{markdown.substr(j + 1, close - j - 1), line});
    i = close;
  }
  return links;
}

bool IsExternal(const std::string& target) {
  return target.rfind("http://", 0) == 0 || target.rfind("https://", 0) == 0 ||
         target.rfind("mailto:", 0) == 0 || (!target.empty() && target[0] == '#');
}

TEST(DocsLintTest, RepositoryLinksResolve) {
  fs::path root = KNIT_REPO_ROOT;
  ASSERT_TRUE(fs::exists(root)) << root;
  for (const char* doc : kDocs) {
    fs::path doc_path = root / doc;
    ASSERT_TRUE(fs::exists(doc_path)) << doc_path;
    std::string markdown = ReadFileOrDie(doc_path);
    for (const Link& link : ExtractLinks(markdown)) {
      if (IsExternal(link.target) || link.target.empty()) {
        continue;
      }
      std::string path = link.target.substr(0, link.target.find('#'));
      if (path.empty()) {
        continue;
      }
      // Relative to the document's directory (all three live at the root).
      EXPECT_TRUE(fs::exists(doc_path.parent_path() / path))
          << doc << ":" << link.line << ": broken link target '" << link.target << "'";
    }
  }
}

// Collects the numbers of a document's `## N. Title` top-level sections.
std::vector<int> SectionNumbers(const std::string& markdown) {
  std::vector<int> sections;
  size_t pos = 0;
  while (pos < markdown.size()) {
    size_t end = markdown.find('\n', pos);
    if (end == std::string::npos) {
      end = markdown.size();
    }
    if (markdown.compare(pos, 3, "## ") == 0) {
      size_t p = pos + 3;
      int number = 0;
      bool any = false;
      while (p < end && markdown[p] >= '0' && markdown[p] <= '9') {
        number = number * 10 + (markdown[p] - '0');
        ++p;
        any = true;
      }
      if (any && p < end && markdown[p] == '.') {
        sections.push_back(number);
      }
    }
    pos = end + 1;
  }
  return sections;
}

// Doc-qualified section references ("DESIGN.md §13", "DESIGN §9") must point at
// a section that exists in the referenced document — renumbering a section
// without sweeping the cross-references is exactly the rot this lane exists to
// catch. Bare "§N" mentions are citations of the source paper, not intra-repo
// references, and are deliberately not linted.
TEST(DocsLintTest, SectionReferencesResolve) {
  fs::path root = KNIT_REPO_ROOT;

  std::map<std::string, std::vector<int>> sections;
  for (const char* doc : kDocs) {
    sections[doc] = SectionNumbers(ReadFileOrDie(root / doc));
  }

  // The qualifier spellings in use: the full filename and the bare doc name.
  const std::pair<std::string, std::string> kQualifiers[] = {
      {"README.md", "README.md"},   {"DESIGN.md", "DESIGN.md"},
      {"EXPERIMENTS.md", "EXPERIMENTS.md"}, {"DESIGN", "DESIGN.md"},
  };

  for (const char* doc : kDocs) {
    std::string markdown = ReadFileOrDie(root / doc);
    size_t pos = 0;
    while ((pos = markdown.find("\xC2\xA7", pos)) != std::string::npos) {  // '§'
      size_t digits = pos + 2;
      int number = 0;
      bool any = false;
      while (digits < markdown.size() && markdown[digits] >= '0' && markdown[digits] <= '9') {
        number = number * 10 + (markdown[digits] - '0');
        ++digits;
        any = true;
      }
      // Which document does the text just before the '§' qualify it with?
      std::string target;
      size_t best = 0;
      for (const auto& [spelling, target_doc] : kQualifiers) {
        std::string prefix = spelling + " ";
        if (pos >= prefix.size() && spelling.size() + 1 > best &&
            markdown.compare(pos - prefix.size(), prefix.size(), prefix) == 0) {
          target = target_doc;
          best = spelling.size() + 1;
        }
      }
      if (any && !target.empty()) {
        const std::vector<int>& known = sections[target];
        int at_line =
            1 + static_cast<int>(std::count(markdown.begin(),
                                            markdown.begin() + static_cast<long>(pos), '\n'));
        EXPECT_NE(std::find(known.begin(), known.end(), number), known.end())
            << doc << ":" << at_line << ": reference to " << target << " \xC2\xA7" << number
            << " but that document has no '## " << number << ".' section";
      }
      pos = digits;
    }
  }
}

// knitc has one spelling, `knitc <build|run|swap|serve> [options]`: a fenced
// snippet that runs it without a command (bare `knitc --help` aside) teaches a
// form the CLI rejects.
TEST(DocsLintTest, KnitcSnippetsNameACommand) {
  fs::path root = KNIT_REPO_ROOT;
  const std::set<std::string> kAllowed = {"build", "run", "swap", "serve", "--help"};
  auto is_knitc = [](const std::string& word) {
    return word == "knitc" ||
           (word.size() > 6 && word.compare(word.size() - 6, 6, "/knitc") == 0);
  };
  for (const char* doc : kDocs) {
    std::istringstream text(ReadFileOrDie(root / doc));
    std::string line;
    int number = 0;
    bool in_fence = false;
    while (std::getline(text, line)) {
      ++number;
      size_t start = line.find_first_not_of(" \t");
      if (start != std::string::npos && line.compare(start, 3, "```") == 0) {
        in_fence = !in_fence;
        continue;
      }
      if (!in_fence) {
        continue;
      }
      std::istringstream words(line);
      std::string word;
      bool after_knitc = false;
      while (words >> word) {
        if (after_knitc) {
          EXPECT_EQ(kAllowed.count(word), 1u)
              << doc << ":" << number << ": knitc snippet without a command (want build, "
              << "run, swap or serve first, got '" << word << "')";
        }
        after_knitc = is_knitc(word);
      }
      EXPECT_FALSE(after_knitc) << doc << ":" << number
                                << ": knitc snippet without a command at the end of the line";
    }
  }
}

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

// Calls fn(span, offset) for every code span of `markdown`, inline `spans` and
// ``` fenced blocks alike; `offset` is where the span's text starts.
template <typename Fn>
void ForEachCodeSpan(const std::string& markdown, const Fn& fn) {
  size_t open = 0;
  while ((open = markdown.find('`', open)) != std::string::npos) {
    const size_t ticks = markdown.compare(open, 3, "```") == 0 ? 3 : 1;
    size_t close = markdown.find(std::string(ticks, '`'), open + ticks);
    if (close == std::string::npos) {
      break;
    }
    fn(markdown.substr(open + ticks, close - open - ticks), open + ticks);
    open = close + ticks;
  }
}

int LineAt(const std::string& markdown, size_t offset) {
  return 1 + static_cast<int>(std::count(markdown.begin(),
                                         markdown.begin() + static_cast<long>(offset), '\n'));
}

// The positions in `span` where `prefix` (a directory, e.g. "bench/") starts a
// repository path: not where it continues a longer one (knitbench/...,
// build/bench/..., .bench_build/...).
std::vector<size_t> PathStarts(const std::string& span, const std::string& prefix) {
  std::vector<size_t> starts;
  for (size_t at = span.find(prefix); at != std::string::npos; at = span.find(prefix, at + 1)) {
    if (at == 0 || !(IsNameChar(span[at - 1]) || span[at - 1] == '/' || span[at - 1] == '.' ||
                     span[at - 1] == '-')) {
      starts.push_back(at);
    }
  }
  return starts;
}

// A backticked `bench/NAME` (with or without `.cc` or arguments, inline or in a
// fenced snippet) must name a bench that exists, `bench/NAME.cc`; a trailing
// `*` matches any bench with that prefix. Build-tree paths (`build/bench/*`)
// and the bare directory are not references to one bench and are skipped.
TEST(DocsLintTest, BenchReferencesNameABench) {
  fs::path root = KNIT_REPO_ROOT;
  std::set<std::string> benches;
  for (const fs::directory_entry& entry : fs::directory_iterator(root / "bench")) {
    if (entry.path().extension() == ".cc") {
      benches.insert(entry.path().stem().string());
    }
  }
  ASSERT_FALSE(benches.empty());
  for (const char* doc : kDocs) {
    std::string markdown = ReadFileOrDie(root / doc);
    ForEachCodeSpan(markdown, [&](const std::string& span, size_t offset) {
      for (size_t at : PathStarts(span, "bench/")) {
        size_t end = at + 6;
        while (end < span.size() && IsNameChar(span[end])) {
          ++end;
        }
        std::string name = span.substr(at + 6, end - at - 6);
        if (name.empty()) {
          continue;  // the directory itself
        }
        bool glob = end < span.size() && span[end] == '*';
        bool found = glob ? std::any_of(benches.begin(), benches.end(),
                                        [&](const std::string& bench) {
                                          return bench.rfind(name, 0) == 0;
                                        })
                          : benches.count(name) == 1;
        EXPECT_TRUE(found) << doc << ":" << LineAt(markdown, offset + at) << ": `bench/" << name
                           << (glob ? "*" : "") << "` names no existing bench/*.cc";
      }
    });
  }
}

// Expands every `{a,b}` list in `path`, e.g. src/vm/passes.{h,cc} ->
// src/vm/passes.h, src/vm/passes.cc.
std::vector<std::string> ExpandBraces(const std::string& path) {
  size_t open = path.find('{');
  size_t close = path.find('}', open);
  if (open == std::string::npos || close == std::string::npos) {
    return {path};
  }
  std::vector<std::string> paths;
  std::string list = path.substr(open + 1, close - open - 1) + ",";
  for (size_t start = 0, comma; (comma = list.find(',', start)) != std::string::npos;
       start = comma + 1) {
    for (const std::string& rest : ExpandBraces(path.substr(close + 1))) {
      paths.push_back(path.substr(0, open) + list.substr(start, comma - start) + rest);
    }
  }
  return paths;
}

// Every backticked repository path under src/, tools/, tests/, examples/ or
// knitbench/ (inline or in a fenced snippet) must exist, each entry of a
// `{h,cc}` list included. `bench/NAME` names a binary; see above.
TEST(DocsLintTest, SourcePathsExist) {
  fs::path root = KNIT_REPO_ROOT;
  auto is_path_char = [](char c) {
    return IsNameChar(c) || c == '/' || c == '.' || c == '-' || c == '{' || c == '}' || c == ',';
  };
  for (const char* doc : kDocs) {
    std::string markdown = ReadFileOrDie(root / doc);
    ForEachCodeSpan(markdown, [&](const std::string& span, size_t offset) {
      for (const char* prefix : {"src/", "tools/", "tests/", "examples/", "knitbench/"}) {
        for (size_t at : PathStarts(span, prefix)) {
          size_t end = at;
          int depth = 0;  // a comma ends the path unless it is inside a {list}
          while (end < span.size() && is_path_char(span[end]) && (span[end] != ',' || depth > 0)) {
            depth += span[end] == '{' ? 1 : span[end] == '}' ? -1 : 0;
            ++end;
          }
          std::string path = span.substr(at, end - at);
          while (path.back() == '.') {
            path.pop_back();  // sentence punctuation inside the span
          }
          for (const std::string& expanded : ExpandBraces(path)) {
            EXPECT_TRUE(fs::exists(root / expanded))
                << doc << ":" << LineAt(markdown, offset + at) << ": `" << expanded
                << "` does not exist";
          }
        }
      }
    });
  }
}

TEST(DocsLintTest, DocsMentionEachOther) {
  // The documentation set is a web: the README must point at the design notes
  // and the experiment log, or readers cannot find them.
  fs::path root = KNIT_REPO_ROOT;
  std::string readme = ReadFileOrDie(root / "README.md");
  EXPECT_NE(readme.find("DESIGN.md"), std::string::npos);
  EXPECT_NE(readme.find("EXPERIMENTS.md"), std::string::npos);
}

}  // namespace
}  // namespace knit
