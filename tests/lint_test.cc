/**
 * @file
 * Fixture tests for the tetri_lint v2 analyzer: every rule gets a
 * passing and a failing snippet, the NOLINT suppression lifecycle is
 * pinned (absorbed, unused, unknown-rule, --only interaction), and the
 * raw-string lexer regression that motivated the shared lexer has a
 * dedicated fixture. Fixtures are lexed in memory via LexInto and fed
 * through Analyzer::RunOnFiles — the same path the CLI uses after
 * file discovery.
 */
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace tetri::lint {
namespace {

SourceFile
Fixture(const std::string& rel, const std::string& content)
{
  SourceFile f;
  f.rel = rel;
  f.display = "src/" + rel;
  f.is_header = rel.size() >= 2 &&
                rel.compare(rel.size() - 2, 2, ".h") == 0;
  LexInto(content, &f);
  return f;
}

/** A minimal header that passes every rule. */
std::string
CleanHeader(const std::string& rel, const std::string& body = "")
{
  std::string macro = "TETRI_" + rel;
  macro.resize(macro.size() - 2);  // drop ".h"
  macro += "_H";
  for (char& c : macro) {
    if (c == '/' || c == '-') c = '_';
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return "#ifndef " + macro + "\n#define " + macro + "\n" + body +
         "#endif  // " + macro + "\n";
}

Analyzer::Report
RunLint(std::vector<SourceFile> files,
    std::vector<std::string> only = {})
{
  static const Analyzer analyzer;
  return analyzer.RunOnFiles(std::move(files), only);
}

bool
Has(const Analyzer::Report& report, const std::string& rule,
    const std::string& file, int line)
{
  return std::any_of(report.violations.begin(),
                     report.violations.end(), [&](const Violation& v) {
                       return v.rule == rule && v.file == file &&
                              v.line == line;
                     });
}

int
CountRule(const Analyzer::Report& report, const std::string& rule)
{
  return static_cast<int>(std::count_if(
      report.violations.begin(), report.violations.end(),
      [&](const Violation& v) { return v.rule == rule; }));
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

TEST(LexerTest, BlanksCommentsInBothViews)
{
  SourceFile f = Fixture("a/x.cc", "int a;  // rand() here\n");
  EXPECT_EQ(f.code.find("rand"), std::string::npos);
  EXPECT_EQ(f.no_comments.find("rand"), std::string::npos);
  EXPECT_NE(f.code.find("int a;"), std::string::npos);
}

TEST(LexerTest, KeepsOrdinaryLiteralsOnlyInNoComments)
{
  SourceFile f = Fixture("a/x.cc", "const char* s = \"rand()\";\n");
  EXPECT_EQ(f.code.find("rand"), std::string::npos);
  EXPECT_NE(f.no_comments.find("rand"), std::string::npos);
}

TEST(LexerTest, BlanksRawStringContentInBothViews)
{
  // The v1 regression: a '"' inside R"(...)" flipped the scanner into
  // code mode mid-literal, leaking literal text into token scans.
  SourceFile f = Fixture(
      "a/x.cc",
      "const char* s = R\"(a \" quote, rand( and std::mutex)\";\n"
      "int after = rand();\n");
  // Literal contents invisible everywhere...
  EXPECT_EQ(f.code.find("std::mutex"), std::string::npos);
  EXPECT_EQ(f.no_comments.find("std::mutex"), std::string::npos);
  // ...and the lexer resynchronized: real code after the literal is
  // still scanned (exactly one rand survives, on line 2).
  EXPECT_EQ(f.code.find("rand"), f.code.rfind("rand"));
  EXPECT_NE(f.code.find("rand"), std::string::npos);
  EXPECT_EQ(LineOf(f.code, f.code.find("rand")), 2);
}

TEST(LexerTest, RawStringWithDelimiterAndPrefix)
{
  SourceFile f = Fixture(
      "a/x.cc", "auto s = u8R\"xy(rand( inside)xy\"; int k = 1;\n");
  EXPECT_EQ(f.code.find("rand"), std::string::npos);
  EXPECT_NE(f.code.find("int k = 1;"), std::string::npos);
}

TEST(LexerTest, DigitSeparatorIsNotACharLiteral)
{
  SourceFile f =
      Fixture("a/x.cc", "int n = 1'000; int m = rand();\n");
  EXPECT_NE(f.code.find("rand"), std::string::npos);
}

TEST(LexerTest, HarvestsNolintForms)
{
  SourceFile f = Fixture("a/x.cc",
                         "int a;  // NOLINT\n"
                         "int b;  // NOLINT(tetri-rounding)\n"
                         "int c;  // NOLINT(tetri-a, tetri-b)\n");
  ASSERT_EQ(f.suppressions.size(), 4u);
  EXPECT_EQ(f.suppressions[0].rule, "*");
  EXPECT_EQ(f.suppressions[0].line, 1);
  EXPECT_EQ(f.suppressions[1].rule, "rounding");
  EXPECT_EQ(f.suppressions[2].rule, "a");
  EXPECT_EQ(f.suppressions[3].rule, "b");
  EXPECT_EQ(f.suppressions[3].line, 3);
}

// ---------------------------------------------------------------------
// Rules: one good and one bad fixture each
// ---------------------------------------------------------------------

TEST(LintRuleTest, CleanHeaderPassesEverything)
{
  const auto report =
      RunLint({Fixture("trace/thing.h", CleanHeader("trace/thing.h"))});
  EXPECT_TRUE(report.violations.empty()) << report.violations.size();
}

TEST(LintRuleTest, HeaderGuard)
{
  auto report = RunLint({Fixture("a/x.h",
                             "#ifndef WRONG_H\n#define WRONG_H\n"
                             "#endif  // WRONG_H\n")},
                    {"header-guard"});
  EXPECT_TRUE(Has(report, "header-guard", "src/a/x.h", 1));

  report = RunLint({Fixture("a/x.h",
                        "#ifndef TETRI_A_X_H\n#define TETRI_A_X_H\n"
                        "#endif\n")},
               {"header-guard"});
  EXPECT_TRUE(Has(report, "header-guard", "src/a/x.h", 3));
}

TEST(LintRuleTest, IncludeResolution)
{
  auto files = std::vector<SourceFile>{
      Fixture("a/x.h", CleanHeader("a/x.h")),
      Fixture("a/y.cc",
              "#include \"a/x.h\"\n#include \"a/gone.h\"\n"
              "#include \"../escape.h\"\n")};
  const auto report = RunLint(std::move(files), {"include"});
  EXPECT_FALSE(Has(report, "include", "src/a/y.cc", 1));
  EXPECT_TRUE(Has(report, "include", "src/a/y.cc", 2));
  EXPECT_TRUE(Has(report, "include", "src/a/y.cc", 3));
}

TEST(LintRuleTest, IncludeCycle)
{
  auto cyc = RunLint({Fixture("a/x.h", CleanHeader("a/x.h",
                                               "#include \"a/y.h\"\n")),
                  Fixture("a/y.h", CleanHeader("a/y.h",
                                               "#include \"a/x.h\"\n"))},
                 {"include-cycle"});
  EXPECT_EQ(CountRule(cyc, "include-cycle"), 1);

  auto ok = RunLint({Fixture("a/x.h", CleanHeader("a/x.h",
                                              "#include \"a/y.h\"\n")),
                 Fixture("a/y.h", CleanHeader("a/y.h"))},
                {"include-cycle"});
  EXPECT_EQ(CountRule(ok, "include-cycle"), 0);
}

TEST(LintRuleTest, BannedTokens)
{
  auto report =
      RunLint({Fixture("a/x.cc", "int r = rand();\nassert(r > 0);\n")},
          {"banned-token"});
  EXPECT_TRUE(Has(report, "banned-token", "src/a/x.cc", 1));
  EXPECT_TRUE(Has(report, "banned-token", "src/a/x.cc", 2));

  // util/check.h implements TETRI_CHECK and may use assert/abort.
  report = RunLint({Fixture("util/check.h", "inline void f() { abort(); }\n")},
               {"banned-token"});
  EXPECT_EQ(CountRule(report, "banned-token"), 0);
}

TEST(LintRuleTest, MessageDiscipline)
{
  auto report = RunLint(
      {Fixture("a/x.cc",
               "void f(int n) {\n"
               "  TETRI_CHECK_MSG(n > 0, \"ends in period.\");\n"
               "  TETRI_CHECK_MSG(n > 1, \"good message\");\n"
               "}\n")},
      {"message-discipline"});
  EXPECT_TRUE(Has(report, "message-discipline", "src/a/x.cc", 2));
  EXPECT_EQ(CountRule(report, "message-discipline"), 1);
}

TEST(LintRuleTest, Whitespace)
{
  const std::string long_line(101, 'x');
  auto report = RunLint({Fixture("a/x.cc", "int a;\t\nint b; \n" +
                                           long_line + "\n")},
                    {"whitespace"});
  EXPECT_TRUE(Has(report, "whitespace", "src/a/x.cc", 1));
  EXPECT_TRUE(Has(report, "whitespace", "src/a/x.cc", 2));
  EXPECT_TRUE(Has(report, "whitespace", "src/a/x.cc", 3));
}

TEST(LintRuleTest, MutexAnnotationBansRawPrimitives)
{
  auto report = RunLint({Fixture("a/x.cc",
                             "#include <mutex>\n"
                             "std::mutex raw;\n"
                             "std::lock_guard<std::mutex> g(raw);\n")},
                    {"mutex-annotation"});
  EXPECT_TRUE(Has(report, "mutex-annotation", "src/a/x.cc", 1));
  EXPECT_TRUE(Has(report, "mutex-annotation", "src/a/x.cc", 2));
  EXPECT_TRUE(Has(report, "mutex-annotation", "src/a/x.cc", 3));

  // The wrapper itself is the one allowed home of the primitives.
  report = RunLint({Fixture("util/mutex.h", "std::mutex mu_;\n")},
               {"mutex-annotation"});
  EXPECT_EQ(CountRule(report, "mutex-annotation"), 0);
}

TEST(LintRuleTest, MutexMemberMustBeAnnotatedAgainst)
{
  auto bad = RunLint({Fixture("a/x.h",
                          "class C {\n"
                          "  util::Mutex mu_;\n"
                          "  int n_;\n"
                          "};\n")},
                 {"mutex-annotation"});
  EXPECT_TRUE(Has(bad, "mutex-annotation", "src/a/x.h", 2));

  auto good = RunLint({Fixture("a/x.h",
                           "class C {\n"
                           "  util::Mutex mu_;\n"
                           "  int n_ TETRI_GUARDED_BY(mu_);\n"
                           "};\n")},
                  {"mutex-annotation"});
  EXPECT_EQ(CountRule(good, "mutex-annotation"), 0);
}

TEST(LintRuleTest, Rounding)
{
  auto report = RunLint(
      {Fixture("a/x.cc",
               "TimeUs f(double us) { return std::llround(us); }\n"
               "TimeUs g(double us) { return TimeUs(std::floor(us)); }\n"
               "int steps(double s) { return int(std::floor(s)); }\n")},
      {"rounding"});
  EXPECT_TRUE(Has(report, "rounding", "src/a/x.cc", 1));
  EXPECT_TRUE(Has(report, "rounding", "src/a/x.cc", 2));
  // floor on a step count (no TimeUs on the line) is legitimate.
  EXPECT_FALSE(Has(report, "rounding", "src/a/x.cc", 3));

  report = RunLint(
      {Fixture("util/rounding.h", "auto r = std::llround(1.5);\n")},
      {"rounding"});
  EXPECT_EQ(CountRule(report, "rounding"), 0);
}

TEST(LintRuleTest, RoundingStaticCastArithmetic)
{
  auto report = RunLint(
      {Fixture("a/x.cc",
               "TimeUs a = static_cast<TimeUs>(factor * budget);\n"
               "TimeUs b = static_cast<TimeUs>(x / 2.0);\n"
               "TimeUs c = static_cast<TimeUs>(end - begin);\n"
               "TimeUs d = static_cast<TimeUs>(value);\n"
               "TimeUs e = static_cast<TimeUs>(req->deadline_us);\n"
               "TimeUs f = static_cast<TimeUs>(-1);\n"
               "double g = static_cast<double>(span * k);\n")},
      {"rounding"});
  // Arithmetic inside the cast truncates a computed duration.
  EXPECT_TRUE(Has(report, "rounding", "src/a/x.cc", 1));
  EXPECT_TRUE(Has(report, "rounding", "src/a/x.cc", 2));
  EXPECT_TRUE(Has(report, "rounding", "src/a/x.cc", 3));
  // A plain value, member access, unary minus, and casts to other
  // types carry no fractional part to lose.
  EXPECT_FALSE(Has(report, "rounding", "src/a/x.cc", 4));
  EXPECT_FALSE(Has(report, "rounding", "src/a/x.cc", 5));
  EXPECT_FALSE(Has(report, "rounding", "src/a/x.cc", 6));
  EXPECT_FALSE(Has(report, "rounding", "src/a/x.cc", 7));

  // util/rounding.h is the one legal conversion site.
  report = RunLint(
      {Fixture("util/rounding.h",
               "TimeUs r = static_cast<TimeUs>(us * 1e6);\n")},
      {"rounding"});
  EXPECT_EQ(CountRule(report, "rounding"), 0);

  // A multi-line cast is flagged on the line the cast starts.
  report = RunLint(
      {Fixture("a/y.cc",
               "TimeUs a =\n"
               "    static_cast<TimeUs>(drop_timeout_factor *\n"
               "                        static_cast<double>(budget));\n")},
      {"rounding"});
  EXPECT_TRUE(Has(report, "rounding", "src/a/y.cc", 2));
}

TEST(LintRuleTest, Wallclock)
{
  const std::string body =
      "#include <chrono>\n"
      "auto t = std::chrono::steady_clock::now();\n";
  auto report = RunLint({Fixture("serving/x.cc", body)}, {"wallclock"});
  EXPECT_TRUE(Has(report, "wallclock", "src/serving/x.cc", 1));
  EXPECT_TRUE(Has(report, "wallclock", "src/serving/x.cc", 2));

  // util/ and sim/ own host-time measurement.
  EXPECT_EQ(CountRule(RunLint({Fixture("util/wallclock.cc", body)},
                          {"wallclock"}),
                      "wallclock"),
            0);
  EXPECT_EQ(CountRule(RunLint({Fixture("sim/clock.cc", body)},
                          {"wallclock"}),
                      "wallclock"),
            0);
}

TEST(LintRuleTest, ThreadDiscipline)
{
  const std::string body =
      "#include <thread>\n"
      "std::thread t([] {});\n"
      "t.detach();\n"
      "std::this_thread::sleep_for(d);\n";
  auto report =
      RunLint({Fixture("serving/x.cc", body)}, {"thread-discipline"});
  EXPECT_TRUE(Has(report, "thread-discipline", "src/serving/x.cc", 1));
  EXPECT_TRUE(Has(report, "thread-discipline", "src/serving/x.cc", 2));
  EXPECT_TRUE(Has(report, "thread-discipline", "src/serving/x.cc", 3));
  EXPECT_TRUE(Has(report, "thread-discipline", "src/serving/x.cc", 4));

  // The runtime and util layers own thread lifetimes.
  EXPECT_EQ(CountRule(RunLint({Fixture("runtime/runtime.cc", body)},
                              {"thread-discipline"}),
                      "thread-discipline"),
            0);
  EXPECT_EQ(CountRule(RunLint({Fixture("util/wallclock.cc", body)},
                              {"thread-discipline"}),
                      "thread-discipline"),
            0);
}

TEST(LintRuleTest, ThreadDisciplineIgnoresCommentsAndNolint)
{
  // Doc comments about threads are not violations; a NOLINT with a
  // rationale (the parallel_for.cc pattern) absorbs a real one.
  const std::string body =
      "// workers run on real std::threads\n"
      "std::thread t;  // NOLINT(tetri-thread-discipline)\n";
  auto report =
      RunLint({Fixture("dit/p.cc", body)}, {"thread-discipline"});
  EXPECT_EQ(CountRule(report, "thread-discipline"), 0);
  EXPECT_EQ(CountRule(report, kUnusedNolintRule), 0);
}

TEST(LintRuleTest, SignalUnderLock)
{
  auto report = RunLint(
      {Fixture("runtime/x.cc",
               "void Bad() {\n"
               "  const util::MutexLock lock(mu_);\n"
               "  ready_ = true;\n"
               "  cv_.Signal();\n"
               "  other_->SignalAll();\n"
               "}\n"
               "void Good() {\n"
               "  {\n"
               "    const util::MutexLock lock(mu_);\n"
               "    ready_ = true;\n"
               "  }\n"
               "  cv_.Signal();\n"
               "  other_->SignalAll();\n"
               "}\n")},
      {"signal-under-lock"});
  EXPECT_TRUE(Has(report, "signal-under-lock", "src/runtime/x.cc", 4));
  EXPECT_TRUE(Has(report, "signal-under-lock", "src/runtime/x.cc", 5));
  EXPECT_EQ(CountRule(report, "signal-under-lock"), 2);
}

TEST(LintRuleTest, SignalUnderLockTracksNestedScopes)
{
  auto report = RunLint(
      {Fixture("runtime/x.cc",
               "void Outer() {\n"
               "  util::MutexLock lock(mu_);\n"
               "  if (ready_) {\n"
               "    for (;;) { cv_.Signal(); }\n"
               "  }\n"
               "}\n"
               "void Inner(bool b) {\n"
               "  if (b) {\n"
               "    util::MutexLock lock{mu_};\n"
               "    auto f = [&] { util::MutexLock l(other_); };\n"
               "    f();\n"
               "  }\n"
               "  cv_.SignalAll();\n"
               "}\n"
               "void Helper(util::MutexLock& held) { cv_.Signal(); }\n"
               "MutexLock(const MutexLock&) = delete;\n"
               "void Later() { cv_.Signal(); }\n")},
      {"signal-under-lock"});
  // A signal in any block nested inside the lock's scope is flagged.
  EXPECT_TRUE(Has(report, "signal-under-lock", "src/runtime/x.cc", 4));
  // Once the block (and the lambda) holding the lock closes, the
  // signal runs unlocked; a reference parameter or a declaration that
  // names no variable opens no lock scope.
  EXPECT_EQ(CountRule(report, "signal-under-lock"), 1);
}

TEST(LintRuleTest, SignalUnderLockNolintAndExemptions)
{
  // A site that must signal under some lock carries a NOLINT (with its
  // reason in a comment); text in comments and literals is not code.
  auto report = RunLint(
      {Fixture("runtime/x.cc",
               "void Drain() {\n"
               "  util::MutexLock drain_lock(drain_mu_);\n"
               "  cv_.Signal();  // NOLINT(tetri-signal-under-lock)\n"
               "  // cv_.Signal() here would be a bug\n"
               "  const char* s = \"cv_.SignalAll()\";\n"
               "}\n")},
      {"signal-under-lock"});
  EXPECT_EQ(CountRule(report, "signal-under-lock"), 0);
  EXPECT_EQ(CountRule(report, kUnusedNolintRule), 0);

  // util/mutex.h defines MutexLock and Signal; it is not checked.
  report = RunLint({Fixture("util/mutex.h",
                            "void f() { MutexLock lock(mu); c.Signal(); }\n")},
                   {"signal-under-lock"});
  EXPECT_EQ(CountRule(report, "signal-under-lock"), 0);
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

TEST(LintSuppressionTest, NolintAbsorbsViolation)
{
  const auto report = RunLint({Fixture(
      "a/x.cc",
      "int r = rand();  // NOLINT(tetri-banned-token)\n")});
  EXPECT_TRUE(report.violations.empty());
}

TEST(LintSuppressionTest, BareNolintAbsorbsEverything)
{
  const auto report =
      RunLint({Fixture("a/x.cc", "int r = rand();  // NOLINT\n")});
  EXPECT_TRUE(report.violations.empty());
}

TEST(LintSuppressionTest, UnusedSuppressionIsAViolation)
{
  const auto report = RunLint({Fixture(
      "a/x.cc", "int r = 1;  // NOLINT(tetri-banned-token)\n")});
  EXPECT_TRUE(Has(report, kUnusedNolintRule, "src/a/x.cc", 1));
}

TEST(LintSuppressionTest, UnknownRuleSuppressionIsAViolation)
{
  const auto report = RunLint(
      {Fixture("a/x.cc", "int r = 1;  // NOLINT(tetri-no-such)\n")});
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, kUnusedNolintRule);
  EXPECT_NE(report.violations[0].message.find("no-such"),
            std::string::npos);
}

TEST(LintSuppressionTest, OnlySkipsUnusedReportingForUnrunRules)
{
  // The rounding suppression is for a rule that did not run; an --only
  // pass must not misreport it as stale.
  const auto report =
      RunLint({Fixture("a/x.cc", "int r = 1;  // NOLINT(tetri-rounding)\n")},
          {"banned-token"});
  EXPECT_TRUE(report.violations.empty());
}

TEST(LintSuppressionTest, SuppressionInsideRawStringIgnored)
{
  // NOLINT text inside a raw string is data, not a directive.
  const auto report = RunLint({Fixture(
      "a/x.cc",
      "const char* s = R\"(// NOLINT(tetri-banned-token))\";\n")});
  EXPECT_TRUE(report.violations.empty());
}

// ---------------------------------------------------------------------
// Analyzer plumbing + SARIF
// ---------------------------------------------------------------------

TEST(LintAnalyzerTest, OnlyLimitsRulesRun)
{
  Analyzer analyzer;
  const auto report = analyzer.RunOnFiles(
      {Fixture("a/x.cc", "int\tr = rand();\n")}, {"whitespace"});
  ASSERT_EQ(report.rules_run.size(), 1u);
  EXPECT_EQ(report.rules_run[0], "whitespace");
  EXPECT_EQ(CountRule(report, "banned-token"), 0);
  EXPECT_EQ(CountRule(report, "whitespace"), 1);
}

TEST(LintAnalyzerTest, ViolationsSortedByFileThenLine)
{
  const auto report =
      RunLint({Fixture("b/y.cc", "int r = rand();\n"),
           Fixture("a/x.cc", "int a = 1;\nint r = rand();\n")});
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_EQ(report.violations[0].file, "src/a/x.cc");
  EXPECT_EQ(report.violations[1].file, "src/b/y.cc");
}

TEST(LintSarifTest, WellFormedWithResults)
{
  Analyzer analyzer;
  const auto report = analyzer.RunOnFiles(
      {Fixture("a/x.cc", "int r = rand();\n")}, {});
  ASSERT_EQ(report.violations.size(), 1u);

  std::ostringstream out;
  WriteSarif(analyzer, report, out);
  const std::string sarif = out.str();

  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"tetri_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"tetri-banned-token\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/a/x.cc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  // Every registered rule (plus unused-nolint) is in the metadata.
  for (const Rule& rule : analyzer.rules()) {
    EXPECT_NE(sarif.find("\"id\": \"tetri-" + rule.name + "\""),
              std::string::npos)
        << rule.name;
  }
  EXPECT_NE(sarif.find(std::string("\"id\": \"tetri-") +
                       kUnusedNolintRule + "\""),
            std::string::npos);
}

TEST(LintSarifTest, EscapesMessageStrings)
{
  Analyzer analyzer;
  Analyzer::Report report;
  report.violations.push_back(
      {"src/a/x.cc", 1, "banned-token", "quote \" and \\ back\n"});
  std::ostringstream out;
  WriteSarif(analyzer, report, out);
  EXPECT_NE(out.str().find("quote \\\" and \\\\ back\\n"),
            std::string::npos);
}

}  // namespace
}  // namespace tetri::lint
