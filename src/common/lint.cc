// Rules R1-R7, suppression handling, and orchestration of the lint
// engine. Every rule reads the output of the engine's one lexer
// (internal::Lex in lint_flow.cc, beside the declaration tables and the
// flow rules R8-R10): R1-R7 its code tokens line by line, the NOLINT
// parser its comments and string literals.
#include "common/lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/lint_internal.h"
#include "common/metrics.h"  // JsonEscape
#include "common/string_util.h"

namespace sgcl::lint {
namespace {

using internal::CodeLineTokens;
using internal::IsIdentChar;

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// True when `b` starts where `a` ends, with no space between them.
bool Adjacent(const Token& a, const Token& b) {
  return a.line == b.line &&
         a.col + static_cast<int>(a.text.size()) == b.col;
}

// The tokens of `line` from index `from` on, spaced as in the source.
std::string Spell(const std::vector<Token>& line, size_t from) {
  std::string s;
  for (size_t k = from; k < line.size(); ++k) {
    if (k > from) {
      const int gap = line[k].col - line[k - 1].col -
                      static_cast<int>(line[k - 1].text.size());
      s.append(static_cast<size_t>(gap), ' ');
    }
    s += line[k].text;
  }
  return s;
}

// True when `line` opens with `#name`, no space after the '#'.
bool IsDirectiveLine(const std::vector<Token>& line, const char* name) {
  return line.size() >= 2 && line[0].text == "#" && line[1].text == name &&
         Adjacent(line[0], line[1]);
}

}  // namespace

std::vector<std::string> internal::FallibleNames(const CodeLineTokens& lines) {
  std::set<std::string> names;
  for (const std::vector<Token>& t : lines) {
    for (size_t k = 0; k < t.size(); ++k) {
      size_t name = k + 1;  // the token after the return type
      if (t[k].text == "Result" && name < t.size() && t[name].text == "<") {
        int depth = 0;
        for (; name < t.size(); ++name) {
          if (t[name].text == "<") ++depth;
          if (t[name].text == ">" && --depth == 0) break;
        }
        ++name;
      } else if (t[k].text != "Status") {
        continue;
      }
      if (name >= t.size() || t[name].kind != TokenKind::kIdentifier) continue;
      if (name + 1 < t.size() && t[name + 1].text == "(") {
        names.insert(t[name].text);
      }
      k = name;
    }
  }
  return {names.begin(), names.end()};
}

namespace {

// ---- suppressions ----------------------------------------------------

// One NOLINT / NOLINTNEXTLINE directive. Only one that opens a `//`
// comment (`// NOLINT...`) and names at least one sgcl rule (or is
// bare) is `eligible` for stale reporting: prose that merely mentions
// NOLINT, or string-literal fixtures containing one, never is.
struct NolintComment {
  int line = 0;          // line of the comment itself
  std::string rules;     // as written: "*" or "sgcl-R5, sgcl-R9"
  bool eligible = false;
  bool used = false;
};

struct Suppressions {
  std::vector<NolintComment> comments;
  // Per target line: (comment index, rule-or-"*") pairs.
  std::map<int, std::vector<std::pair<int, std::string>>> by_line;
};

constexpr char kSpaces[] = " \t\n\v\f\r";

// Reads the directives in `text`, the part of one comment or literal
// token that lies on source line `line`. `line_comment`: `text` is a
// whole `//` comment.
void ParseNolints(const std::string& text, int line, bool line_comment,
                  Suppressions* out) {
  size_t pos = 0;
  while ((pos = text.find("NOLINT", pos)) != std::string::npos) {
    const bool nextline = text.compare(pos, 14, "NOLINTNEXTLINE") == 0;
    const size_t after = pos + (nextline ? 14 : 6);
    NolintComment comment;
    comment.line = line;
    comment.eligible =
        line_comment && text.find_first_not_of(kSpaces, 2) == pos;
    std::vector<std::string> rules;
    if (after < text.size() && text[after] == '(') {
      const size_t close = text.find(')', after);
      const std::string cats =
          close == std::string::npos
              ? text.substr(after + 1)
              : text.substr(after + 1, close - after - 1);
      for (const std::string& cat : StrSplit(cats, ',')) {
        const std::string c = Trim(cat);
        if (c.rfind("sgcl-", 0) == 0) rules.push_back(c);
      }
      if (rules.empty()) comment.eligible = false;  // not our categories
      for (size_t r = 0; r < rules.size(); ++r) {
        comment.rules += (r > 0 ? ", " : "") + rules[r];
      }
    } else {
      // A bare directive must end the comment or carry a `: reason`;
      // "NOLINT comments are consulted..." is prose, not a directive.
      const bool word_end = after >= text.size() || !IsIdentChar(text[after]);
      const size_t next = text.find_first_not_of(kSpaces, after);
      if (!word_end || (next != std::string::npos && text[next] != ':')) {
        pos = after;
        continue;
      }
      rules.push_back("*");
      comment.rules = "*";
    }
    const int ci = static_cast<int>(out->comments.size());
    out->comments.push_back(comment);
    for (const std::string& r : rules) {
      out->by_line[nextline ? line + 1 : line].push_back({ci, r});
    }
    pos = after;
  }
}

// NOLINT directives live in comments; one in a string or character
// literal still suppresses its line but is never eligible.
Suppressions ParseSuppressions(const std::vector<Token>& tokens,
                               const std::vector<Token>& aside) {
  Suppressions out;
  for (const std::vector<Token>* list : {&tokens, &aside}) {
    for (const Token& t : *list) {
      if ((t.kind != TokenKind::kComment && t.kind != TokenKind::kString &&
           t.kind != TokenKind::kChar) ||
          t.text.find("NOLINT") == std::string::npos) {
        continue;
      }
      const std::vector<std::string> parts = StrSplit(t.text, '\n');
      for (size_t k = 0; k < parts.size(); ++k) {
        ParseNolints(parts[k], t.line + static_cast<int>(k),
                     k == 0 && t.text.rfind("//", 0) == 0, &out);
      }
    }
  }
  return out;
}

// ---- sgcl-R1 helpers -------------------------------------------------

bool IsMacroName(const std::string& name) {
  for (char c : name) {
    if (std::islower(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

const char* const kStatementKeywords[] = {
    "return",   "if",     "while",  "for",       "switch", "case",
    "delete",   "new",    "using",  "namespace", "class",  "struct",
    "enum",     "throw",  "goto",   "else",      "do",     "break",
    "continue", "public", "private", "protected", "template", "typedef",
    "co_return", "static_assert", "sizeof",
};

// If the line `t` is a bare expression-statement call `a.b->c(...);`,
// spelled without spaces up to the '(' and before the ';', returns the
// final callee identifier; otherwise "".
std::string BareCallCallee(const std::vector<Token>& t) {
  if (t.size() < 4 || t.back().text != ";") return "";
  for (const Token& tok : t) {
    if (tok.text.find('=') != std::string::npos) return "";
  }
  for (const char* kw : kStatementKeywords) {
    if (t[0].text == kw) return "";
  }
  size_t k = 0;
  for (;;) {
    if (t[k].kind != TokenKind::kIdentifier ||
        (k > 0 && !Adjacent(t[k - 1], t[k]))) {
      return "";
    }
    ++k;
    const std::string& sep = t[k].text;
    if ((sep == "::" || sep == "." || sep == "->") &&
        Adjacent(t[k - 1], t[k])) {
      ++k;
      continue;
    }
    break;
  }
  if (t[k].text != "(" || !Adjacent(t[k - 1], t[k])) return "";
  // The statement must be nothing but this call: `callee(...);`.
  const Token& close = t[t.size() - 2];
  if (close.text != ")" || !Adjacent(close, t.back())) return "";
  return t[k - 1].text;
}

// ---- sgcl-R3 helpers -------------------------------------------------

const char* const kCheckMacros[] = {
    "SGCL_CHECK_EQ", "SGCL_CHECK_NE", "SGCL_CHECK_LT", "SGCL_CHECK_LE",
    "SGCL_CHECK_GT", "SGCL_CHECK_GE", "SGCL_CHECK_OP", "SGCL_CHECK",
    "SGCL_DCHECK",   "assert",
};

const char* const kMutatingMethods[] = {
    "push_back", "pop_back", "emplace_back", "emplace", "insert",
    "erase",     "clear",    "reset",        "resize",  "pop",
    "push",      "assign",   "append",       "Increment", "Observe",
    "Submit",    "Set",
};

// The tokens inside the first parenthesized group after lines[li][k],
// searched over at most 30 lines. False when it does not close there.
bool MacroArgument(const CodeLineTokens& lines, size_t li, size_t k,
                   std::vector<Token>* arg) {
  int depth = 0;
  for (size_t lj = li; lj < lines.size() && lj < li + 30; ++lj) {
    for (size_t m = lj == li ? k + 1 : 0; m < lines[lj].size(); ++m) {
      const Token& t = lines[lj][m];
      if (t.text == "(" && ++depth == 1) continue;
      if (t.text == ")" && --depth == 0) return true;
      if (depth >= 1) arg->push_back(t);
    }
  }
  return false;
}

// Scans a check-macro argument for side-effect constructs. Returns a
// description of the first one found, or "".
std::string FindSideEffect(const std::vector<Token>& arg) {
  for (const Token& t : arg) {
    if (t.text == "++" || t.text == "--") return "increment/decrement";
  }
  for (size_t k = 0; k < arg.size(); ++k) {
    const std::string& s = arg[k].text;
    if (s == "=") return "assignment";
    // <<= and >>= lex as "<" "<=" and ">" ">=".
    if ((s == "<=" || s == ">=") && k > 0 && arg[k - 1].text[0] == s[0] &&
        arg[k - 1].text.size() == 1 && Adjacent(arg[k - 1], arg[k])) {
      return "compound assignment";
    }
    if (s.size() == 2 && s[1] == '=' &&
        std::string("+-*/%&|^").find(s[0]) != std::string::npos) {
      return "compound assignment";
    }
  }
  for (const char* method : kMutatingMethods) {
    for (size_t k = 0; k + 2 < arg.size(); ++k) {
      if ((arg[k].text == "." || arg[k].text == "->") &&
          arg[k + 1].text == method && arg[k + 2].text == "(" &&
          Adjacent(arg[k], arg[k + 1]) && Adjacent(arg[k + 1], arg[k + 2])) {
        return StrFormat("call to mutating method '%s'", method);
      }
    }
  }
  return "";
}

std::string RuleMessageR2(const std::string& what) {
  return StrFormat(
      "%s breaks bitwise determinism; use common/rng (seeded PRNG) or add "
      "an allowlist entry for legitimate wall-clock use",
      what.c_str());
}

// ---- sgcl-R4 helpers -------------------------------------------------

// Edits renaming each whole-word `actual` on a '#' line to `expected`:
// in the directive's tokens and in the comments and literals beside
// them, such as the `#endif  // GUARD` trailer. `aside` holds all of
// those (internal::Lex).
std::vector<FixEdit> GuardRenames(const CodeLineTokens& lines,
                                  const std::vector<Token>& aside,
                                  const std::string& actual,
                                  const std::string& expected) {
  std::vector<FixEdit> edits;
  for (const Token& t : aside) {
    const size_t li = static_cast<size_t>(t.line - 1);
    if (li >= lines.size() || lines[li].empty() || lines[li][0].text != "#") {
      continue;
    }
    const std::string text = t.text.substr(0, t.text.find('\n'));
    for (size_t pos = 0; (pos = text.find(actual, pos)) != std::string::npos;
         pos += actual.size()) {
      const size_t end = pos + actual.size();
      if ((pos > 0 && IsIdentChar(text[pos - 1])) ||
          (end < text.size() && IsIdentChar(text[end]))) {
        continue;
      }
      edits.push_back({t.line, t.col + static_cast<int>(pos),
                       static_cast<int>(actual.size()), expected});
    }
  }
  return edits;
}

// ---- rules sgcl-R1..R7, pre-suppression ------------------------------

void LineRuleFindings(const std::string& path, const CodeLineTokens& lines,
                      const std::vector<Token>& aside,
                      const std::vector<std::string>& fallible_names,
                      std::vector<Finding>* out) {
  const bool is_header =
      path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;

  const auto emit = [&](size_t line_idx, const char* rule, Severity severity,
                        std::string message) -> Finding* {
    Finding f;
    f.file = path;
    f.line = static_cast<int>(line_idx + 1);
    f.rule = rule;
    f.severity = severity;
    f.message = std::move(message);
    out->push_back(std::move(f));
    return &out->back();
  };

  const bool rng_impl = path.rfind("src/common/rng.", 0) == 0;
  // R6 scope: production checkpoint-path sources. Tests are exempt —
  // corruption tests write torn files on purpose.
  const bool checkpoint_path =
      path.rfind("tests/", 0) != 0 &&
      (path.find("checkpoint") != std::string::npos ||
       path.find("train_state") != std::string::npos);
  // R7 scope: the serving layer proper. Tools (which legitimately load
  // the checkpoint before handing the model to ServeService) and tests
  // are out of scope by construction.
  const bool serve_path = path.rfind("src/serve/", 0) == 0;

  // R1 counts only statement-start lines: a line continuing `x =` /
  // `return` from above is part of that statement, not a discarded call.
  bool statement_start = true;
  for (size_t li = 0; li < lines.size(); ++li) {
    const std::vector<Token>& t = lines[li];
    if (t.empty()) continue;

    // R1: discarded fallible call.
    const std::string callee =
        statement_start ? BareCallCallee(t) : std::string();
    if (!callee.empty() && !IsMacroName(callee) &&
        std::binary_search(fallible_names.begin(), fallible_names.end(),
                           callee)) {
      emit(li, "sgcl-R1", Severity::kWarning,
           StrFormat("result of fallible call '%s' is discarded; bind it, "
                     "return it, or wrap it in a check macro",
                     callee.c_str()));
    }
    const char last = t.back().text.back();
    statement_start = last == ';' || last == '{' || last == '}' ||
                      last == ':' || t[0].text == "#";

    for (size_t k = 0; k < t.size(); ++k) {
      if (t[k].kind != TokenKind::kIdentifier) continue;
      const std::string& s = t[k].text;
      const Token* next = k + 1 < t.size() ? &t[k + 1] : nullptr;
      const Token* prev = k > 0 ? &t[k - 1] : nullptr;

      // R2: nondeterminism sources.
      if (!rng_impl) {
        if ((s == "rand" || s == "srand") && next != nullptr &&
            next->text == "(") {
          emit(li, "sgcl-R2", Severity::kError,
               RuleMessageR2(s == "srand" ? "srand()" : "rand()"));
        } else if (s == "random_device") {
          emit(li, "sgcl-R2", Severity::kError,
               RuleMessageR2("std::random_device"));
        } else if (s == "system_clock") {
          emit(li, "sgcl-R2", Severity::kError,
               RuleMessageR2("std::chrono::system_clock"));
        } else if (s == "time" && next != nullptr && next->text == "(" &&
                   k + 2 < t.size() &&
                   (t[k + 2].text == "nullptr" || t[k + 2].text == "NULL" ||
                    t[k + 2].text[0] == '0')) {
          emit(li, "sgcl-R2", Severity::kError,
               RuleMessageR2("time(nullptr)-style seeding"));
        }
      }

      // R3: side effects inside check macros (argument may span lines).
      // The macros' own #define lines in check.h are skipped.
      if (std::find(std::begin(kCheckMacros), std::end(kCheckMacros), s) !=
              std::end(kCheckMacros) &&
          !IsDirectiveLine(t, "define")) {
        std::vector<Token> arg;
        if (MacroArgument(lines, li, k, &arg)) {
          const std::string effect = FindSideEffect(arg);
          if (!effect.empty()) {
            emit(li, "sgcl-R3", Severity::kError,
                 StrFormat("%s inside %s: checks must be side-effect free "
                           "(they compile out or abort)",
                           effect.c_str(), s.c_str()));
          }
        }
      }

      // R4b: using namespace in headers.
      if (is_header && s == "using" && next != nullptr &&
          next->text == "namespace") {
        emit(li, "sgcl-R4", Severity::kError,
             "'using namespace' in a header leaks into every includer");
      }

      // R5: naked new / delete. `operator new` declarations and
      // `= delete` functions are not allocations.
      if (s == "new" && next != nullptr &&
          (next->kind == TokenKind::kIdentifier || next->text == "(") &&
          !(prev != nullptr && prev->text.size() >= 8 &&
            prev->text.compare(prev->text.size() - 8, 8, "operator") == 0)) {
        emit(li, "sgcl-R5", Severity::kError,
             "naked 'new': use make_unique/containers, or suppress for "
             "intentionally leaked singletons");
      } else if (s == "delete" &&
                 !(prev != nullptr && prev->text.back() == '=')) {
        size_t j = k + 1;
        if (j + 1 < t.size() && t[j].text == "[" && t[j + 1].text == "]" &&
            Adjacent(t[j], t[j + 1])) {
          j += 2;
        }
        if (j < t.size() && (t[j].kind == TokenKind::kIdentifier ||
                             t[j].text[0] == '*' || t[j].text == "(")) {
          emit(li, "sgcl-R5", Severity::kError,
               "naked 'delete': owning pointers belong in unique_ptr");
        }
      }
    }

    // R6: raw file-writing primitives in checkpoint-path sources.
    // R7: blocking file I/O or checkpoint/dataset loading in src/serve/.
    const auto has = [&](const char* name) {
      return std::any_of(t.begin(), t.end(),
                         [&](const Token& tok) { return tok.text == name; });
    };
    if (checkpoint_path) {
      for (const char* prim : {"ofstream", "fopen", "fwrite"}) {
        if (!has(prim)) continue;
        emit(li, "sgcl-R6", Severity::kError,
             StrFormat("raw '%s' in a checkpoint path bypasses the "
                       "atomic-write API; persist through "
                       "AtomicWriteFile (common/io.h) so a crash can "
                       "never publish a torn checkpoint",
                       prim));
      }
    }
    if (serve_path) {
      for (const char* prim :
           {"ofstream", "ifstream", "fstream", "fopen", "fread", "fwrite",
            "LoadCheckpoint", "LoadTrainCheckpoint", "LoadDataset",
            "ParseJsonFile", "AtomicWriteFile", "ReadFileToString"}) {
        if (!has(prim)) continue;
        emit(li, "sgcl-R7", Severity::kError,
             StrFormat("'%s' in the serving layer: src/serve/ must not "
                       "touch the filesystem — load checkpoints and "
                       "datasets in the CLI before ServeService::Start "
                       "so request handlers never block on disk",
                       prim));
      }
    }
  }

  // R4a: include-guard name must derive from the file path. A mismatch
  // carries fixes renaming every directive-line occurrence of the
  // actual guard (#ifndef, #define, and the #endif trailer).
  if (is_header) {
    const std::string expected = ExpectedIncludeGuard(path);
    size_t guard_line = 0;
    while (guard_line < lines.size() &&
           !IsDirectiveLine(lines[guard_line], "ifndef")) {
      ++guard_line;
    }
    if (guard_line == lines.size()) {
      emit(0, "sgcl-R4", Severity::kError,
           StrFormat("missing include guard (expected #ifndef %s)",
                     expected.c_str()));
      return;
    }
    const std::string actual = Spell(lines[guard_line], 2);
    if (actual != expected) {
      Finding* f = emit(
          guard_line, "sgcl-R4", Severity::kError,
          StrFormat("include guard '%s' does not match path (expected %s)",
                    actual.c_str(), expected.c_str()));
      if (!actual.empty()) {
        f->fixes = GuardRenames(lines, aside, actual, expected);
      }
      return;
    }
    // The matching #define must follow.
    size_t define_line = guard_line + 1;
    while (define_line < lines.size() &&
           !IsDirectiveLine(lines[define_line], "define")) {
      ++define_line;
    }
    const std::string define_name =
        define_line < lines.size() ? Spell(lines[define_line], 2) : "";
    if (define_name != expected) {
      Finding* f = emit(
          guard_line, "sgcl-R4", Severity::kError,
          StrFormat("#ifndef %s is not followed by a matching #define",
                    expected.c_str()));
      if (!define_name.empty()) {
        f->fixes.push_back({static_cast<int>(define_line + 1),
                            lines[define_line][2].col,
                            static_cast<int>(define_name.size()), expected});
      }
    }
  }
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

}  // namespace

const char* SeverityToString(Severity severity) {
  return severity == Severity::kWarning ? "warning" : "error";
}

Result<LintOptions> LoadAllowlist(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrFormat("allowlist: cannot open %s",
                                      path.c_str()));
  }
  LintOptions options;
  options.allowlist_path = path;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string entry = line;
    const size_t hash = line.find('#');
    std::string reason;
    if (hash != std::string::npos) {
      entry = line.substr(0, hash);
      reason = Trim(line.substr(hash + 1));
    }
    entry = Trim(entry);
    if (entry.empty()) continue;  // blank or pure comment line
    const size_t colon = entry.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("allowlist %s:%d: expected '<path>:<rule>  # reason', "
                    "got '%s'",
                    path.c_str(), lineno, entry.c_str()));
    }
    const std::string file = Trim(entry.substr(0, colon));
    const std::string rule = Trim(entry.substr(colon + 1));
    bool valid_rule = rule == "*";
    if (!valid_rule && rule.rfind("sgcl-R", 0) == 0) {
      const std::string num = rule.substr(6);
      int value = 0;
      valid_rule = !num.empty() && num.size() <= 2 &&
                   num.find_first_not_of("0123456789") == std::string::npos;
      if (valid_rule) value = std::stoi(num);
      valid_rule = valid_rule && value >= 1 && value <= 10;
    }
    if (file.empty() || !valid_rule) {
      return Status::InvalidArgument(
          StrFormat("allowlist %s:%d: bad entry '%s' (rule must be "
                    "sgcl-R1..sgcl-R10 or *)",
                    path.c_str(), lineno, entry.c_str()));
    }
    if (reason.empty()) {
      return Status::InvalidArgument(
          StrFormat("allowlist %s:%d: entry '%s' needs a '# reason' comment",
                    path.c_str(), lineno, entry.c_str()));
    }
    options.allow.push_back({file, rule, lineno});
  }
  return options;
}

FileAnalysis AnalyzeFile(const std::string& path, const std::string& content,
                         const GlobalTables& tables,
                         const LintOptions& options) {
  std::vector<Token> aside;
  const std::vector<Token> tokens = internal::Lex(content, &aside);
  Suppressions sup = ParseSuppressions(tokens, aside);

  std::vector<Finding> candidates;
  LineRuleFindings(path, internal::CodeLines(tokens, aside), aside,
                   tables.fallible_names, &candidates);
  internal::FlowResult flow = internal::RunFlowPass(path, tokens, tables);
  for (Finding& f : flow.findings) candidates.push_back(std::move(f));

  FileAnalysis out;
  std::set<std::pair<std::string, std::string>> used_allow;
  // NOLINT comments are consulted before the allowlist, so an inline
  // suppression always counts as "used" even when an allowlist entry
  // would also cover the finding.
  const auto comment_suppressed = [&](int line, const std::string& rule) {
    const auto it = sup.by_line.find(line);
    if (it == sup.by_line.end()) return false;
    bool any = false;
    for (const auto& [ci, r] : it->second) {
      if (r == "*" || r == rule) {
        sup.comments[ci].used = true;
        any = true;
      }
    }
    return any;
  };
  const auto allowed = [&](const std::string& rule) {
    for (const AllowEntry& e : options.allow) {
      if (e.file == path && (e.rule == "*" || e.rule == rule)) {
        used_allow.insert({e.file, e.rule});
        return true;
      }
    }
    return false;
  };

  for (Finding& f : candidates) {
    if (comment_suppressed(f.line, f.rule)) continue;
    if (allowed(f.rule)) continue;
    out.findings.push_back(std::move(f));
  }
  for (LockEdge& e : flow.edges) {
    if (comment_suppressed(e.line, "sgcl-R9")) continue;
    if (allowed("sgcl-R9")) continue;
    out.edges.push_back(std::move(e));
  }
  if (options.report_stale_nolint) {
    for (const NolintComment& c : sup.comments) {
      if (c.eligible && !c.used) {
        out.stale_nolints.push_back({c.line, c.rules});
      }
    }
  }
  out.used_allow.assign(used_allow.begin(), used_allow.end());
  SortFindings(&out.findings);
  return out;
}

std::string ApplyFixes(const std::string& path, const std::string& content,
                       const std::vector<Finding>& findings) {
  std::vector<FixEdit> edits;
  for (const Finding& f : findings) {
    if (f.file != path) continue;
    edits.insert(edits.end(), f.fixes.begin(), f.fixes.end());
  }
  if (edits.empty()) return content;
  // Bottom-up, right-to-left so earlier offsets stay valid.
  std::sort(edits.begin(), edits.end(), [](const FixEdit& a, const FixEdit& b) {
    if (a.line != b.line) return a.line > b.line;
    return a.col > b.col;
  });
  std::vector<std::string> lines;
  {
    std::string cur;
    for (char c : content) {
      if (c == '\n') {
        lines.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    lines.push_back(cur);
  }
  int last_line = -1;
  int last_col = -1;
  for (const FixEdit& e : edits) {
    if (e.line < 1 || static_cast<size_t>(e.line) > lines.size()) continue;
    std::string& line = lines[e.line - 1];
    if (e.col < 0 || static_cast<size_t>(e.col) > line.size()) continue;
    // Overlap (same span edited twice): keep the first-applied edit.
    if (e.line == last_line && e.col + e.len > last_col) continue;
    const size_t len =
        std::min(static_cast<size_t>(e.len), line.size() - e.col);
    line.replace(static_cast<size_t>(e.col), len, e.replacement);
    last_line = e.line;
    last_col = e.col;
  }
  std::string out;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += '\n';
    out += lines[i];
  }
  return out;
}

Linter::Linter(LintOptions options) : options_(std::move(options)) {}

void Linter::AddFile(const std::string& path, const std::string& content) {
  FileDecls decls = ExtractDecls(content);
  std::set<std::string> names(fallible_names_.begin(), fallible_names_.end());
  names.insert(decls.fallible_names.begin(), decls.fallible_names.end());
  fallible_names_.assign(names.begin(), names.end());
  files_.push_back({path, content, std::move(decls)});
}

std::vector<Finding> MergeAnalyses(const std::vector<std::string>& paths,
                                   const std::vector<FileAnalysis>& analyses,
                                   const LintOptions& options) {
  std::vector<Finding> findings;
  std::vector<LockEdge> edges;
  std::set<std::pair<std::string, std::string>> used_allow;
  const size_t n = std::min(paths.size(), analyses.size());
  for (size_t i = 0; i < n; ++i) {
    const FileAnalysis& a = analyses[i];
    findings.insert(findings.end(), a.findings.begin(), a.findings.end());
    edges.insert(edges.end(), a.edges.begin(), a.edges.end());
    for (const StaleNolint& s : a.stale_nolints) {
      Finding f;
      f.file = paths[i];
      f.line = s.line;
      f.rule = "sgcl-nolint";
      f.severity = Severity::kWarning;
      f.message = StrFormat("NOLINT(%s) suppresses nothing here; remove it",
                            s.rules.c_str());
      findings.push_back(std::move(f));
    }
    used_allow.insert(a.used_allow.begin(), a.used_allow.end());
  }
  std::vector<Finding> cycles = LockCycleFindings(edges);
  for (Finding& f : cycles) findings.push_back(std::move(f));
  if (options.report_stale_nolint) {
    for (const AllowEntry& e : options.allow) {
      if (used_allow.count({e.file, e.rule}) != 0) continue;
      const std::string where = options.allowlist_path.empty()
                                    ? e.file
                                    : options.allowlist_path;
      Finding f;
      f.file = where;
      f.line = e.line;
      f.rule = "sgcl-nolint";
      f.severity = Severity::kWarning;
      f.message = StrFormat("allowlist entry '%s:%s' no longer suppresses "
                            "anything; delete it",
                            e.file.c_str(), e.rule.c_str());
      findings.push_back(std::move(f));
    }
  }
  SortFindings(&findings);
  return findings;
}

std::vector<Finding> Linter::Run() const {
  std::vector<FileDecls> decls;
  decls.reserve(files_.size());
  for (const FileEntry& file : files_) decls.push_back(file.decls);
  const GlobalTables tables = BuildTables(decls);

  std::vector<std::string> paths;
  std::vector<FileAnalysis> analyses;
  paths.reserve(files_.size());
  analyses.reserve(files_.size());
  for (const FileEntry& file : files_) {
    paths.push_back(file.path);
    analyses.push_back(AnalyzeFile(file.path, file.content, tables, options_));
  }
  return MergeAnalyses(paths, analyses, options_);
}

std::string ExpectedIncludeGuard(const std::string& path) {
  std::string rel = path;
  if (rel.rfind("src/", 0) == 0) rel = rel.substr(4);
  std::string guard = "SGCL_";
  for (char c : rel) {
    guard += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  return guard;
}

std::string FormatText(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += StrFormat("%s:%d: %s: [%s] %s\n", f.file.c_str(), f.line,
                     SeverityToString(f.severity), f.rule.c_str(),
                     f.message.c_str());
  }
  return out;
}

std::string FormatJson(const std::vector<Finding>& findings) {
  std::string out = StrFormat("{\"count\":%zu,\"findings\":[",
                              findings.size());
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"file\":\"%s\",\"line\":%d,\"rule\":\"%s\",\"severity\":\"%s\","
        "\"message\":\"%s\"}",
        JsonEscape(f.file).c_str(), f.line, f.rule.c_str(),
        SeverityToString(f.severity), JsonEscape(f.message).c_str());
  }
  out += "]}\n";
  return out;
}

}  // namespace sgcl::lint
