// Internals shared between the lint engine's two translation units:
// lint.cc (rules R1-R7, suppressions, orchestration) and lint_flow.cc
// (the lexer, declaration tables, flow pass). Not part of the public
// API — include common/lint.h instead.
#ifndef SGCL_COMMON_LINT_INTERNAL_H_
#define SGCL_COMMON_LINT_INTERNAL_H_

#include <string>
#include <vector>

#include "common/lint.h"

namespace sgcl::lint::internal {

bool IsIdentChar(char c);

// The engine's one lexer. Returns Tokenize's stream; when `aside` is
// non-null it also receives, in source order, what that stream leaves
// out: every comment (kind kComment) and the tokens of each directive's
// text ('#' first, a backslash continuation as a "\" token). A
// kDirective token's text runs from '#' to the end of its last token,
// so a trailing `//` comment is not part of it.
std::vector<Token> Lex(const std::string& content, std::vector<Token>* aside);

// The code tokens of one Lex call grouped by 0-based line: identifiers,
// numbers and punctuators, directive bodies included; literals,
// comments and kDirective tokens left out. This is what R1-R7 and the
// fallible-name table read, each line holding what a reader sees there
// once comments and literals are blanked.
using CodeLineTokens = std::vector<std::vector<Token>>;
CodeLineTokens CodeLines(const std::vector<Token>& tokens,
                         const std::vector<Token>& aside);

// Names of functions declared to return Status or Result<...>. Only a
// declaration whose return type and `name(` share one line counts: a
// Result<...> that closes on a later line is skipped (documented
// limitation). Sorted, unique.
std::vector<std::string> FallibleNames(const CodeLineTokens& lines);

// Pre-suppression output of the flow pass over one file.
struct FlowResult {
  std::vector<Finding> findings;  // sgcl-R8 and sgcl-R10
  std::vector<LockEdge> edges;    // raw acquisition edges for sgcl-R9
};

FlowResult RunFlowPass(const std::string& path,
                       const std::vector<Token>& tokens,
                       const GlobalTables& tables);

// Files where sgcl-R10 (atomics hygiene) applies: the serving layer,
// the streaming data plane, and the concurrent common/ primitives.
bool IsHotPathFile(const std::string& path);

}  // namespace sgcl::lint::internal

#endif  // SGCL_COMMON_LINT_INTERNAL_H_
