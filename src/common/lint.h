// sgcl_lint: in-repo static analyzer enforcing project invariants that
// the compiler cannot (fully) check. One lexer feeds all ten rules
// (DESIGN.md §9): the classic rules R1-R7 read its code tokens line by
// line, the NOLINT parser reads its comments, and a flow pass with
// scope tracking and a per-function symbol table walks the same token
// stream for the thread-safety rules R8-R10, which understand the
// capability annotations in common/thread_annotations.h.
//
// Rules:
//   sgcl-R1  no discarded fallible call: a statement that calls a
//            function known to return Status/Result<T> without binding,
//            returning, or wrapping the value. Backstops [[nodiscard]]
//            for call forms the compiler misses.
//   sgcl-R2  determinism: bans rand()/srand(), std::random_device,
//            time(nullptr)-style seeding, and std::chrono::system_clock
//            outside src/common/rng.* (allowlist covers legitimate
//            wall-clock timestamps in telemetry/logging).
//   sgcl-R3  no side effects inside SGCL_CHECK*/SGCL_DCHECK/assert
//            arguments (++/--, assignment, mutating-method heuristics):
//            checks compile out or short-circuit, so effects inside them
//            change behavior between build modes.
//   sgcl-R4  header hygiene: include-guard name must be derived from the
//            file path (src/common/lint.h -> SGCL_COMMON_LINT_H_), and
//            no `using namespace` at namespace scope in headers.
//            Guard-name mismatches carry a mechanical fix (--fix).
//   sgcl-R5  no naked new/delete outside the allowlist (intentionally
//            leaked singletons carry inline NOLINT suppressions).
//   sgcl-R6  crash consistency: checkpoint-path sources (any src/ or
//            tools/ file whose name contains "checkpoint" or
//            "train_state") must not write files with raw primitives
//            (std::ofstream, fopen, fwrite) — persistence goes through
//            AtomicWriteFile (common/io.h) so a crash can never publish
//            a torn checkpoint. Tests are exempt: they craft torn files
//            on purpose.
//   sgcl-R7  serving purity: src/serve/ sources must not do blocking
//            file I/O or load checkpoints/datasets (std::[io]fstream,
//            fopen/fread/fwrite, LoadCheckpoint, LoadDataset,
//            ParseJsonFile, ...). The serving hot path works only on
//            models the CLI loaded before Start; a disk access inside a
//            request handler or the dispatch thread stalls every
//            in-flight request behind it.
//   sgcl-R8  guarded-member discipline: a member annotated
//            SGCL_GUARDED_BY(mu) is read or written in a method that
//            neither holds a std::lock_guard / std::unique_lock /
//            std::scoped_lock on `mu` in an enclosing scope nor is
//            annotated SGCL_REQUIRES(mu). Constructors/destructors are
//            exempt (no concurrent access during construction), and an
//            atomic guarded member accessed with an explicit
//            std::memory_order argument is accepted (documented-relaxed
//            escape hatch).
//   sgcl-R9  lock-order deadlocks: the repo-wide mutex acquisition
//            graph (an edge A -> B whenever B is acquired while A is
//            held) must be acyclic. Every acquisition edge on a cycle
//            is reported at its site. A NOLINT(sgcl-R9) on the
//            acquisition line removes that edge from the graph (the
//            ordering has been vetted by a human).
//   sgcl-R10 atomics hygiene in hot-path files: atomic load()/store()
//            without an explicit memory-order argument (the implicit
//            seq_cst is almost never what a hot path wants — and when
//            it is, it should say so; --fix inserts
//            std::memory_order_seq_cst), and any `volatile` (volatile
//            is not a synchronization primitive).
//
// Suppression: `// NOLINT(sgcl-RN)` on the offending line or
// `// NOLINTNEXTLINE(sgcl-RN)` on the line above; a bare `// NOLINT`
// suppresses every rule on that line. The allowlist file
// (tools/sgcl_lint_allowlist.txt) grants whole-file exemptions per rule
// with a recorded reason. Suppressions that no longer suppress anything
// are themselves reported (rule sgcl-nolint) under
// --report-stale-nolint.
#ifndef SGCL_COMMON_LINT_H_
#define SGCL_COMMON_LINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sgcl::lint {

// Bumped whenever a rule's behavior changes; part of the incremental
// cache key so stale caches self-invalidate.
inline constexpr int kEngineVersion = 3;

enum class Severity { kWarning, kError };

const char* SeverityToString(Severity severity);

// A mechanical, semantics-preserving rewrite attached to a finding
// (sgcl-R4 guard renames, sgcl-R10 explicit memory orders). `col` is a
// 0-based byte offset into line `line`; `len` bytes starting there are
// replaced by `replacement` (len 0 = pure insertion).
struct FixEdit {
  int line = 0;  // 1-based
  int col = 0;
  int len = 0;
  std::string replacement;
};

struct Finding {
  std::string file;  // repo-relative path as given to AddFile
  int line = 0;      // 1-based
  std::string rule;  // "sgcl-R1" .. "sgcl-R10", or "sgcl-nolint"
  Severity severity = Severity::kError;
  std::string message;
  std::vector<FixEdit> fixes;  // empty when the rule has no auto-fix
};

// Whole-file exemption: rule "*" exempts the file from every rule.
// `line` is the entry's line in the allowlist file (0 when constructed
// programmatically) — used to point stale-entry reports at the entry.
struct AllowEntry {
  std::string file;
  std::string rule;
  int line = 0;
};

struct LintOptions {
  std::vector<AllowEntry> allow;
  // Path the allow entries were loaded from (stale-entry reports point
  // here); empty when the allowlist was built programmatically.
  std::string allowlist_path;
  // Report NOLINT comments and allowlist entries that suppress nothing
  // (rule sgcl-nolint, warning).
  bool report_stale_nolint = false;
};

// Parses an allowlist file. Format, one entry per line:
//   <repo-relative-path>:<rule>   # reason
// Blank lines and lines starting with '#' are ignored. The reason
// comment is mandatory so every exemption is documented.
Result<LintOptions> LoadAllowlist(const std::string& path);

// ---- Tokenizer (exposed for tests) -----------------------------------

enum class TokenKind {
  kIdentifier,  // identifiers and keywords
  kNumber,      // pp-number (incl. digit separators, suffixes)
  kString,      // string literal, raw or plain, lexeme includes quotes
  kChar,        // character literal
  kPunct,       // operator/punctuator ("::", "->", single chars, ...)
  kDirective,   // one whole preprocessor line ("#include <x>", ...)
  kComment,     // `//` or `/* */` comment; never in Tokenize's output
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;
  int line = 0;  // 1-based line of the token's first character
  int col = 0;   // 0-based byte offset in that line
};

// Lexes C++ source: comments are skipped; string/char literals
// (including raw strings and encoding prefixes) become single tokens; a
// preprocessor directive (with backslash continuations) becomes one
// kDirective token whose text stops before a trailing comment. Never
// fails: unexpected bytes lex as one-char kPunct tokens.
std::vector<Token> Tokenize(const std::string& content);

// ---- Declaration tables (phase 1) ------------------------------------

// Per-file declarations the flow rules need repo-wide: annotated
// guarded members, SGCL_REQUIRES methods, and mutex/atomic members per
// class, plus the Status/Result-returning function names for sgcl-R1.
struct FileDecls {
  struct GuardedMember {
    std::string class_name;
    std::string member;
    std::string mutex;  // guard expression, verbatim ("mu_")
    bool atomic = false;
  };
  struct RequiresMethod {
    std::string class_name;
    std::string method;
    std::vector<std::string> mutexes;
  };
  std::vector<std::string> fallible_names;
  std::vector<GuardedMember> guarded_members;
  std::vector<RequiresMethod> requires_methods;
  std::vector<std::string> mutex_members;   // "Class::member"
  std::vector<std::string> atomic_members;  // "Class::member"
};

FileDecls ExtractDecls(const std::string& content);

// Merged view over every file's declarations. Classes are keyed by
// unqualified name (namespace collisions are accepted — the repo has
// none — and documented in DESIGN.md §9).
struct GlobalTables {
  std::vector<std::string> fallible_names;               // sorted unique
  std::vector<FileDecls::GuardedMember> guarded_members; // sorted
  std::vector<FileDecls::RequiresMethod> requires_methods;
  std::vector<std::string> mutex_members;                // sorted unique
  std::vector<std::string> atomic_members;               // sorted unique

  // CRC32 over a canonical serialization plus kEngineVersion; the
  // incremental cache key for per-file findings.
  uint32_t Digest() const;
};

GlobalTables BuildTables(const std::vector<FileDecls>& decls);

// ---- Per-file analysis -----------------------------------------------

// One mutex-acquisition-order edge: `to` was acquired while `from` was
// held, at file:line.
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
};

// A NOLINT comment that suppressed nothing (candidate sgcl-nolint).
struct StaleNolint {
  int line = 0;         // line of the comment
  std::string rules;    // its category list as written ("sgcl-R5"), or "*"
};

struct FileAnalysis {
  std::vector<Finding> findings;  // post-suppression; excludes R9 cycles
  std::vector<LockEdge> edges;    // post-suppression acquisition edges
  std::vector<StaleNolint> stale_nolints;
  // Allowlist entries that actually suppressed a finding in this file.
  std::vector<std::pair<std::string, std::string>> used_allow;
};

// Lexes one file once and runs every rule over it. `tables` carries the repo-wide
// declarations (BuildTables over every file's ExtractDecls). Thread
// safe and deterministic: analyzing files concurrently and merging in
// path order reproduces the serial result.
FileAnalysis AnalyzeFile(const std::string& path, const std::string& content,
                         const GlobalTables& tables,
                         const LintOptions& options);

// sgcl-R9: finds cycles in the repo-wide acquisition graph and reports
// every edge on a cycle at its site. Deterministic (sorted output).
std::vector<Finding> LockCycleFindings(const std::vector<LockEdge>& edges);

// Folds per-file analyses (paths[i] described by analyses[i]) into the
// final report exactly as Linter::Run does: per-file findings, stale
// NOLINT comments, sgcl-R9 cycles over the merged acquisition graph,
// and stale allowlist entries. Order-insensitive input, sorted output —
// the contract the parallel/incremental driver relies on.
std::vector<Finding> MergeAnalyses(const std::vector<std::string>& paths,
                                   const std::vector<FileAnalysis>& analyses,
                                   const LintOptions& options);

// Applies every FixEdit among `findings` that targets `path` to
// `content` and returns the rewritten text. Edits are applied
// bottom-up so positions stay valid; overlapping edits keep the first.
std::string ApplyFixes(const std::string& path, const std::string& content,
                       const std::vector<Finding>& findings);

// ---- Orchestration ---------------------------------------------------

// Two-phase analyzer: AddFile all sources first (phase 1 collects the
// declaration tables: fallible names for sgcl-R1, guarded members and
// REQUIRES methods for sgcl-R8/R9), then Run lints every added file and
// closes the repo-wide acquisition graph. Findings are ordered by
// (file, line, rule) regardless of insertion order.
class Linter {
 public:
  explicit Linter(LintOptions options);

  void AddFile(const std::string& path, const std::string& content);

  std::vector<Finding> Run() const;

  // Names collected for sgcl-R1 (exposed for tests).
  const std::vector<std::string>& fallible_names() const {
    return fallible_names_;
  }

 private:
  struct FileEntry {
    std::string path;
    std::string content;
    FileDecls decls;
  };

  LintOptions options_;
  std::vector<FileEntry> files_;
  std::vector<std::string> fallible_names_;  // sorted, unique
};

// One line per finding: "path:line: severity: [rule] message".
std::string FormatText(const std::vector<Finding>& findings);

// Deterministic JSON report: {"count":N,"findings":[...]} with findings
// in the same (file, line, rule) order as FormatText. Parseable by
// common/json (tests round-trip it).
std::string FormatJson(const std::vector<Finding>& findings);

// The include guard mandated for a header at `path` (repo-relative):
// strip a leading "src/", prefix "SGCL_", uppercase, map non-alnum to
// '_', append a trailing '_'.
std::string ExpectedIncludeGuard(const std::string& path);

}  // namespace sgcl::lint

#endif  // SGCL_COMMON_LINT_H_
