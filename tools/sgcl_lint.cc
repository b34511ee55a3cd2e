// sgcl_lint: repo-invariant static analyzer (rules in common/lint.h,
// rationale in DESIGN.md §9).
//
//   sgcl_lint [--root=DIR] [--json=FILE] [--allowlist=FILE]
//             [--fail-on=warning|error|none] [--jobs=N] [--cache=FILE]
//             [--fix] [--report-stale-nolint]
//
// Walks src/, tests/, tools/, bench/, and examples/ under --root
// (default "."; perfbench/ belongs to the benchmark), lints every
// .h/.cc file, prints a deterministic file-ordered text report, and —
// when --json is given — writes the same findings as a JSON report (the
// CI artifact). Exit status: 0 when no finding reaches the --fail-on
// severity, 1 when one does, 2 on usage or I/O errors.
//
// --jobs=N analyzes files on N worker threads; output is merged in path
// order, so every job count produces byte-identical reports.
//
// --cache=FILE keeps an incremental cache: per-file declaration tables
// and findings keyed by (mtime, size), findings additionally keyed by a
// digest of the repo-wide declaration tables plus the suppression
// configuration, so an annotation added in one header correctly
// re-analyzes every file that might access the newly guarded member.
// Lock-order cycles (sgcl-R9) are recomputed from the merged edge set on
// every run and are never cached.
//
// --fix applies the mechanical rewrites attached to findings (sgcl-R4
// include-guard renames, sgcl-R10 explicit memory orders), writes the
// files in place, re-lints, and reports what remains. Fixes are
// idempotent: a second --fix run applies zero edits. Rules without a
// recorded fix are never rewritten blindly — they are fixed at the
// source or suppressed with `// NOLINT(sgcl-RN)` / an allowlist entry.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/flags.h"
#include "common/lint.h"
#include "common/parallel.h"

namespace sgcl {
namespace {

namespace fs = std::filesystem;

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path.string());
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---- Incremental cache ----------------------------------------------
//
// Line-based, tab-separated text format. Strings that may contain tabs
// or newlines (messages, fix replacements) are escaped. A cache that
// fails to parse — wrong version, truncated, hand-edited — is discarded
// wholesale; the cache is an accelerator, never a source of truth.

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\t') out += "\\t";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string Unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      const char next = s[++i];
      if (next == 't') out += '\t';
      else if (next == 'n') out += '\n';
      else out += next;
    } else {
      out += s[i];
    }
  }
  return out;
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

struct CacheEntry {
  // Validity key for the declaration tables: the file on disk is
  // byte-identical (modulo mtime granularity) to what was analyzed.
  // mtime is kept as a decimal string — filesystem timestamps exceed
  // the 53-bit exactly-representable range of double, so they must
  // never round-trip through floating point.
  std::string mtime;
  std::uintmax_t size = 0;
  lint::FileDecls decls;
  // Validity key for the findings: the repo-wide declaration tables and
  // the suppression configuration the analysis ran under.
  uint32_t analysis_key = 0;
  lint::FileAnalysis analysis;
};

using Cache = std::map<std::string, CacheEntry>;

// Reads a cache file. Returns an empty cache on any mismatch or parse
// problem (missing file, version skew, truncation).
Cache LoadCache(const std::string& path) {
  Cache cache;
  std::ifstream in(path, std::ios::binary);
  if (!in) return cache;
  std::string line;
  if (!std::getline(in, line) ||
      line != "sgcl-lint-cache " + std::to_string(lint::kEngineVersion)) {
    return cache;
  }
  std::string current;
  bool complete = true;  // every `file` block must reach its `end`
  while (std::getline(in, line)) {
    const std::vector<std::string> f = SplitTabs(line);
    if (f.empty()) continue;
    const std::string& tag = f[0];
    if (tag == "file" && f.size() == 5) {
      if (!current.empty()) complete = false;  // previous block unterminated
      current = Unescape(f[1]);
      CacheEntry& e = cache[current];
      e.mtime = f[2];
      e.size = std::strtoull(f[3].c_str(), nullptr, 10);
      e.analysis_key =
          static_cast<uint32_t>(std::strtoul(f[4].c_str(), nullptr, 16));
      continue;
    }
    if (current.empty()) continue;
    CacheEntry& e = cache[current];
    if (tag == "end") {
      current.clear();
    } else if (tag == "f" && f.size() == 2) {
      e.decls.fallible_names.push_back(Unescape(f[1]));
    } else if (tag == "g" && f.size() == 5) {
      e.decls.guarded_members.push_back(
          {Unescape(f[1]), Unescape(f[2]), Unescape(f[3]), f[4] == "1"});
    } else if (tag == "r" && f.size() >= 3) {
      lint::FileDecls::RequiresMethod m;
      m.class_name = Unescape(f[1]);
      m.method = Unescape(f[2]);
      for (size_t i = 3; i < f.size(); ++i) m.mutexes.push_back(Unescape(f[i]));
      e.decls.requires_methods.push_back(std::move(m));
    } else if (tag == "m" && f.size() == 2) {
      e.decls.mutex_members.push_back(Unescape(f[1]));
    } else if (tag == "a" && f.size() == 2) {
      e.decls.atomic_members.push_back(Unescape(f[1]));
    } else if (tag == "F" && f.size() == 5) {
      lint::Finding finding;
      finding.file = current;
      finding.line = std::atoi(f[1].c_str());
      finding.rule = Unescape(f[2]);
      finding.severity =
          f[3] == "error" ? lint::Severity::kError : lint::Severity::kWarning;
      finding.message = Unescape(f[4]);
      e.analysis.findings.push_back(std::move(finding));
    } else if (tag == "x" && f.size() == 5 && !e.analysis.findings.empty()) {
      e.analysis.findings.back().fixes.push_back(
          {std::atoi(f[1].c_str()), std::atoi(f[2].c_str()),
           std::atoi(f[3].c_str()), Unescape(f[4])});
    } else if (tag == "E" && f.size() == 4) {
      e.analysis.edges.push_back({Unescape(f[1]), Unescape(f[2]), current,
                                  std::atoi(f[3].c_str())});
    } else if (tag == "S" && f.size() == 3) {
      e.analysis.stale_nolints.push_back(
          {std::atoi(f[1].c_str()), Unescape(f[2])});
    } else if (tag == "U" && f.size() == 3) {
      e.analysis.used_allow.emplace_back(Unescape(f[1]), Unescape(f[2]));
    } else {
      return Cache{};  // unknown record: refuse to trust the rest
    }
  }
  if (!current.empty() || !complete) return Cache{};
  return cache;
}

Status SaveCache(const std::string& path, const Cache& cache) {
  std::ostringstream out;
  out << "sgcl-lint-cache " << lint::kEngineVersion << "\n";
  for (const auto& [file, e] : cache) {
    char key[16];
    std::snprintf(key, sizeof(key), "%08x", e.analysis_key);
    out << "file\t" << Escape(file) << "\t" << e.mtime << "\t" << e.size
        << "\t" << key << "\n";
    for (const auto& n : e.decls.fallible_names) {
      out << "f\t" << Escape(n) << "\n";
    }
    for (const auto& g : e.decls.guarded_members) {
      out << "g\t" << Escape(g.class_name) << "\t" << Escape(g.member) << "\t"
          << Escape(g.mutex) << "\t" << (g.atomic ? "1" : "0") << "\n";
    }
    for (const auto& r : e.decls.requires_methods) {
      out << "r\t" << Escape(r.class_name) << "\t" << Escape(r.method);
      for (const auto& mu : r.mutexes) out << "\t" << Escape(mu);
      out << "\n";
    }
    for (const auto& m : e.decls.mutex_members) {
      out << "m\t" << Escape(m) << "\n";
    }
    for (const auto& a : e.decls.atomic_members) {
      out << "a\t" << Escape(a) << "\n";
    }
    for (const auto& finding : e.analysis.findings) {
      out << "F\t" << finding.line << "\t" << Escape(finding.rule) << "\t"
          << lint::SeverityToString(finding.severity) << "\t"
          << Escape(finding.message) << "\n";
      for (const auto& fix : finding.fixes) {
        out << "x\t" << fix.line << "\t" << fix.col << "\t" << fix.len << "\t"
            << Escape(fix.replacement) << "\n";
      }
    }
    for (const auto& edge : e.analysis.edges) {
      out << "E\t" << Escape(edge.from) << "\t" << Escape(edge.to) << "\t"
          << edge.line << "\n";
    }
    for (const auto& s : e.analysis.stale_nolints) {
      out << "S\t" << s.line << "\t" << Escape(s.rules) << "\n";
    }
    for (const auto& [af, ar] : e.analysis.used_allow) {
      out << "U\t" << Escape(af) << "\t" << Escape(ar) << "\n";
    }
    out << "end\n";
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::Internal("cannot write cache " + path);
  f << out.str();
  return Status::OK();
}

// Everything besides file content that changes what AnalyzeFile emits:
// the repo-wide declaration tables and the suppression configuration.
uint32_t AnalysisKey(const lint::GlobalTables& tables,
                     const lint::LintOptions& options) {
  std::string cfg = options.report_stale_nolint ? "stale=1\n" : "stale=0\n";
  for (const lint::AllowEntry& e : options.allow) {
    cfg += e.file + ":" + e.rule + ":" + std::to_string(e.line) + "\n";
  }
  return Crc32(cfg.data(), cfg.size(), tables.Digest());
}

struct SourceFile {
  std::string rel;      // repo-relative forward-slash path
  fs::path abs;         // on-disk location
  std::string mtime;    // decimal time_since_epoch().count()
  std::uintmax_t size = 0;
  std::string content;
  lint::FileDecls decls;
  bool decls_cached = false;
};

int Run(int argc, char** argv) {
  std::string root = ".";
  std::string json_out;
  std::string allowlist_path;
  std::string fail_on = "warning";
  std::string cache_path;
  int jobs = 0;
  bool fix = false;
  bool report_stale = false;
  FlagSet flags("sgcl_lint");
  flags.String("root", &root, "repository root to lint");
  flags.String("json", &json_out, "write the findings as JSON to this file");
  flags.String("allowlist", &allowlist_path,
               "allowlist file (default: <root>/tools/sgcl_lint_allowlist.txt "
               "when present)");
  flags.String("fail-on", &fail_on,
               "minimum severity that fails the run: warning|error|none");
  flags.Int("jobs", &jobs,
            "analyze files on this many threads (0 = runtime default); "
            "output is identical for every job count");
  flags.String("cache", &cache_path,
               "incremental cache file: unchanged files (mtime+size) under "
               "unchanged repo-wide tables are not re-analyzed");
  flags.Bool("fix", &fix,
             "apply the mechanical fixes attached to findings (sgcl-R4 "
             "guard renames, sgcl-R10 explicit memory orders) in place, "
             "then re-lint");
  flags.Bool("report-stale-nolint", &report_stale,
             "report NOLINT comments and allowlist entries that suppress "
             "nothing (rule sgcl-nolint)");
  const Status st = flags.Parse(argc, argv, 1);
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n%s", st.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  if (fail_on != "warning" && fail_on != "error" && fail_on != "none") {
    std::fprintf(stderr, "error: --fail-on must be warning, error, or none "
                         "(got '%s')\n", fail_on.c_str());
    return 2;
  }
  if (jobs < 0) {
    std::fprintf(stderr, "error: --jobs must be >= 0 (got %d)\n", jobs);
    return 2;
  }
  if (jobs > 0) SetParallelThreads(jobs);

  lint::LintOptions options;
  if (allowlist_path.empty()) {
    const fs::path fallback = fs::path(root) / "tools/sgcl_lint_allowlist.txt";
    if (fs::exists(fallback)) allowlist_path = fallback.string();
  }
  if (!allowlist_path.empty()) {
    auto loaded = lint::LoadAllowlist(allowlist_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 2;
    }
    options = std::move(loaded).value();
  }
  options.report_stale_nolint = report_stale;

  // Deterministic file order: collect, normalize to repo-relative
  // forward-slash paths, sort.
  std::vector<SourceFile> files;
  for (const char* top : {"src", "tests", "tools", "bench", "examples"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc") continue;
      SourceFile f;
      f.rel = fs::relative(entry.path(), root).generic_string();
      f.abs = entry.path();
      files.push_back(std::move(f));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel < b.rel;
            });
  if (files.empty()) {
    std::fprintf(stderr,
                 "error: no .h/.cc files under "
                 "%s/{src,tests,tools,bench,examples}\n",
                 root.c_str());
    return 2;
  }

  Cache cache = cache_path.empty() ? Cache{} : LoadCache(cache_path);

  // Phase 1: read every file and get its declaration tables, from the
  // cache when (mtime, size) match, else by extraction. Declarations
  // depend only on the file's own bytes, so this key alone is enough.
  const int64_t n = static_cast<int64_t>(files.size());
  for (SourceFile& f : files) {
    std::error_code ec;
    f.mtime = std::to_string(
        fs::last_write_time(f.abs, ec).time_since_epoch().count());
    f.size = ec ? 0 : fs::file_size(f.abs, ec);
    if (ec) f.mtime.clear();  // stat failed: never matches the cache
    auto content = ReadFile(f.abs);
    if (!content.ok()) {
      std::fprintf(stderr, "error: %s\n", content.status().ToString().c_str());
      return 2;
    }
    f.content = std::move(*content);
    const auto it = cache.find(f.rel);
    f.decls_cached = it != cache.end() && !f.mtime.empty() &&
                     it->second.mtime == f.mtime && it->second.size == f.size;
    if (f.decls_cached) f.decls = it->second.decls;
  }
  ParallelFor(0, n, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      if (!files[i].decls_cached) {
        files[i].decls = lint::ExtractDecls(files[i].content);
      }
    }
  });

  std::vector<lint::FileDecls> decls;
  decls.reserve(files.size());
  for (const SourceFile& f : files) decls.push_back(f.decls);
  const lint::GlobalTables tables = lint::BuildTables(decls);
  const uint32_t analysis_key = AnalysisKey(tables, options);

  // Phase 2: per-file analysis, cached only when the file AND the
  // repo-wide context are unchanged. Results land in per-index slots and
  // merge in path order, so the report is identical for every --jobs.
  std::vector<lint::FileAnalysis> analyses(files.size());
  std::vector<char> analysis_cached(files.size(), 0);
  for (size_t i = 0; i < files.size(); ++i) {
    const auto it = cache.find(files[i].rel);
    if (files[i].decls_cached && it != cache.end() &&
        it->second.analysis_key == analysis_key) {
      analyses[i] = it->second.analysis;
      analysis_cached[i] = 1;
    }
  }
  ParallelFor(0, n, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      if (!analysis_cached[i]) {
        analyses[i] = lint::AnalyzeFile(files[i].rel, files[i].content,
                                        tables, options);
      }
    }
  });

  std::vector<std::string> rel_paths;
  rel_paths.reserve(files.size());
  for (const SourceFile& f : files) rel_paths.push_back(f.rel);
  std::vector<lint::Finding> findings =
      lint::MergeAnalyses(rel_paths, analyses, options);

  // --fix: rewrite files in place bottom-up, then re-analyze the
  // changed files against the same tables (fixes never add or remove
  // declarations) and rebuild the report from the post-fix tree.
  size_t fixed_files = 0, fix_edits = 0;
  if (fix) {
    for (size_t i = 0; i < files.size(); ++i) {
      size_t edits = 0;
      for (const lint::Finding& f : findings) {
        if (f.file == files[i].rel) edits += f.fixes.size();
      }
      if (edits == 0) continue;
      const std::string fixed =
          lint::ApplyFixes(files[i].rel, files[i].content, findings);
      if (fixed == files[i].content) continue;
      std::ofstream out(files[i].abs, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "error: cannot rewrite %s\n",
                     files[i].rel.c_str());
        return 2;
      }
      out << fixed;
      out.close();
      files[i].content = fixed;
      fixed_files += 1;
      fix_edits += edits;
      analyses[i] = lint::AnalyzeFile(files[i].rel, files[i].content, tables,
                                      options);
      cache.erase(files[i].rel);  // on-disk bytes changed under the entry
    }
    if (fixed_files > 0) {
      findings = lint::MergeAnalyses(rel_paths, analyses, options);
    }
    std::printf("sgcl_lint: applied %zu fix(es) in %zu file(s)\n", fix_edits,
                fixed_files);
  }

  std::printf("%s", lint::FormatText(findings).c_str());

  size_t errors = 0, warnings = 0;
  for (const lint::Finding& f : findings) {
    (f.severity == lint::Severity::kError ? errors : warnings) += 1;
  }
  std::printf("sgcl_lint: %zu file(s), %zu error(s), %zu warning(s)\n",
              files.size(), errors, warnings);

  if (!cache_path.empty()) {
    Cache fresh;
    for (size_t i = 0; i < files.size(); ++i) {
      CacheEntry e;
      // A file rewritten by --fix has a new mtime; re-stat so the next
      // run trusts the entry.
      std::error_code ec;
      e.mtime = std::to_string(
          fs::last_write_time(files[i].abs, ec).time_since_epoch().count());
      e.size = ec ? 0 : fs::file_size(files[i].abs, ec);
      if (ec) continue;  // unstattable: leave it out of the cache
      e.decls = files[i].decls;
      e.analysis_key = analysis_key;
      e.analysis = analyses[i];
      fresh[files[i].rel] = std::move(e);
    }
    const Status saved = SaveCache(cache_path, fresh);
    if (!saved.ok()) {
      std::fprintf(stderr, "warning: %s\n", saved.ToString().c_str());
    }
  }

  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 2;
    }
    out << lint::FormatJson(findings);
  }

  if (fail_on == "none") return 0;
  if (fail_on == "error") return errors > 0 ? 1 : 0;
  return errors + warnings > 0 ? 1 : 0;
}

}  // namespace
}  // namespace sgcl

int main(int argc, char** argv) { return sgcl::Run(argc, argv); }
