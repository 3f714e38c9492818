// fth::check::lint rules over seeded-bad and known-good snippets: every
// rule must fire on its seed (deterministically — the rules are pure
// functions of the source text) and stay quiet on the idiomatic spellings
// and on the allowlisted layers. The whole-tree gate is the `lint.repo`
// ctest (tools/fth_lint.cpp); this file proves each rule's edge behaviour.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/lint_rules.hpp"

namespace fth::check::lint {
namespace {

std::vector<Issue> run(const std::string& path, const std::string& content) {
  return lint_file(path, content);
}

bool has_rule(const std::vector<Issue>& issues, const std::string& rule) {
  for (const auto& i : issues)
    if (i.rule == rule) return true;
  return false;
}

// ---- scope ------------------------------------------------------------------

TEST(LintScope, OnlyCppSourcesUnderKnownRoots) {
  EXPECT_TRUE(in_scope("src/la/matrix.hpp"));
  EXPECT_TRUE(in_scope("tests/ft/test_ft_gehrd.cpp"));
  EXPECT_TRUE(in_scope("tools/fth_lint.cpp"));
  EXPECT_TRUE(in_scope("bench/bench_gehrd.cpp"));
  EXPECT_FALSE(in_scope("docs/DESIGN.md"));
  EXPECT_FALSE(in_scope("src/CMakeLists.txt"));
  EXPECT_FALSE(in_scope("build/src/generated.cpp"));
  EXPECT_TRUE(run("docs/notes.cpp", "auto p = x.unchecked_host_view();").empty())
      << "out-of-scope paths produce no issues at all";
}

TEST(LintScope, SharedDriverFragmentsAreLinted) {
  // Code moved into a .inc fragment must not leave the lint's reach.
  EXPECT_TRUE(in_scope("src/ft/two_code.inc"));
  const auto issues = run("src/ft/x.inc", "void f(int n, double* a);\n"
                                          "auto h = dv.unchecked_host_view();\n");
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].file, "src/ft/x.inc");
  EXPECT_TRUE(has_rule(issues, "int-index"));
  EXPECT_TRUE(has_rule(issues, "device-unwrap"));
}

// ---- device-unwrap ----------------------------------------------------------

TEST(LintDeviceUnwrap, FlagsEscapeHatchesOutsideAllowlist) {
  const std::string bad = "auto h = dv.unchecked_host_view();\n";
  const auto issues = run("src/ft/ft_gehrd.cpp", bad);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "device-unwrap");
  EXPECT_EQ(issues[0].line, 1);
  EXPECT_NE(issues[0].message.find("in_task"), std::string::npos)
      << "the report must point at the sanctioned gate";

  EXPECT_TRUE(has_rule(run("src/ft/x.cpp", "void* p = dv.raw_data();\n"),
                       "device-unwrap"));
  EXPECT_TRUE(has_rule(
      run("src/la/blas.hpp",
          "MatrixView<double> v(detail::unchecked_view, p, 1, 1, 1);\n"),
      "device-unwrap"));
  EXPECT_TRUE(has_rule(run("tests/ft/test_x.cpp",
                           "auto q = d.view().unchecked_host_view();\n"),
                       "device-unwrap"));
}

TEST(LintDeviceUnwrap, AllowlistedLayersPass) {
  const std::string content =
      "auto h = dv.unchecked_host_view();\n"
      "void* p = dv.raw_data();\n";
  EXPECT_TRUE(run("src/hybrid/device.cpp", content).empty());
  EXPECT_TRUE(run("src/hybrid/dev_blas.cpp", content).empty());
  EXPECT_TRUE(run("src/la/matrix.hpp", content).empty());
  EXPECT_TRUE(run("src/check/access.cpp", content).empty());
  EXPECT_TRUE(run("src/fault/fault_plane.hpp", content).empty());
  EXPECT_TRUE(run("tests/check/test_checker.cpp", content).empty())
      << "seeded-violation self-tests legitimately misuse the hatches";
  EXPECT_FALSE(run("src/fault/injector.cpp", content).empty())
      << "only the fault plane's worker-thread fire paths are allowlisted";
}

TEST(LintDeviceUnwrap, CheckedGatesAreNotFlagged) {
  EXPECT_TRUE(run("src/ft/ft_gehrd.cpp",
                  "auto eh = e.in_task();\n"
                  "auto hv = hybrid::host_view(d.view(), s);\n")
                  .empty());
}

// ---- comments / strings are not code ---------------------------------------

TEST(LintText, CommentsAndLiteralsDoNotFire) {
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "// prefer .in_task() over .unchecked_host_view()\n"
                  "/* int n — see raw_data( in DESIGN */\n")
                  .empty());
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "const char* doc = \"never call .raw_data( by hand\";\n")
                  .empty());
  // A token split across a line comment and live code still fires on the
  // live part.
  EXPECT_FALSE(run("src/ft/x.cpp",
                   "auto h = dv.unchecked_host_view();  // gated elsewhere\n")
                   .empty());
}

// ---- raw string literals ----------------------------------------------------

TEST(LintRawString, RawLiteralContentsAreBlankedToTheClosingDelimiter) {
  // Before the Raw state existed, the scanner left string mode at the first
  // interior '"', so the rest of the literal — here a rule token — was
  // mis-scanned as live code and fired device-unwrap.
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "static const std::regex re(R\"re(say \" then .raw_data( wow)re\");\n")
                  .empty());
  // The delimiter must match: )x" inside an R"re( literal does not end it.
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "auto s = R\"re(a )x\" b .unchecked_host_view( c)re\";\n")
                  .empty());
  // Multi-line raw literal: contents stay blanked across the newline.
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "auto s = R\"(line one \"\n"
                  "dv.raw_data( on line two)\";\n")
                  .empty());
  // Encoding prefixes also open raw literals.
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "auto s = u8R\"(quote \" then .raw_data( here)\";\n")
                  .empty());
}

TEST(LintRawString, CodeAfterAndAroundRawLiteralsStillFires) {
  // Live code after a closed raw literal is scanned normally again.
  EXPECT_TRUE(has_rule(run("src/ft/x.cpp",
                           "auto s = R\"re(text \" more)re\"; auto h = dv.raw_data();\n"),
                       "device-unwrap"));
  // An identifier merely *ending* in R does not open a raw literal: the
  // ordinary string that follows it terminates at its first '"'.
  EXPECT_TRUE(has_rule(run("src/ft/x.cpp",
                           "auto s = FOOR\"text\"; auto h = dv.raw_data();\n"),
                       "device-unwrap"));
}

// ---- int-index --------------------------------------------------------------

TEST(LintIntIndex, FlagsIntDimensionParams) {
  const auto issues =
      run("src/lapack/gehrd.hpp", "void gehrd(MatrixView<double> a, int nb);\n");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "int-index");
  EXPECT_TRUE(has_rule(
      run("src/hybrid/dev_blas.hpp", "void gemm(int m, index_t n, index_t k);\n"),
      "int-index"));
  EXPECT_TRUE(has_rule(run("src/ft/checksum.hpp",
                           "double col_sum(const double* a, const int lda);\n"),
                       "int-index"));
}

TEST(LintIntIndex, IdiomaticSpellingsPass) {
  EXPECT_TRUE(run("src/lapack/gehrd.hpp",
                  "void gehrd(index_t n, index_t ilo, index_t ihi, index_t lda);\n")
                  .empty());
  EXPECT_TRUE(run("src/lapack/reflectors.cpp",
                  "for (int k = 0; k < scale_count; ++k) beta *= safmin;\n")
                  .empty())
      << "loop counters carry an initializer and are not parameters";
  EXPECT_TRUE(run("src/ft/locate.hpp", "void set_bit(double* x, int bit);\n").empty())
      << "non-dimension int parameters are fine";
  EXPECT_TRUE(run("src/obs/profile.cpp", "void f(int n);\n").empty())
      << "the rule is scoped to the LAPACK-subset layers";
}

// ---- naked-new-array --------------------------------------------------------

TEST(LintNewArray, FlagsNakedArrayNew) {
  const auto issues = run("src/ft/ft_gehrd.cpp", "double* w = new double[n];\n");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "naked-new-array");
  EXPECT_TRUE(has_rule(run("tests/ft/test_x.cpp",
                           "auto* b = new std::complex<double>[2 * n];\n"),
                       "naked-new-array"));
}

TEST(LintNewArray, TrackedStoragePasses) {
  EXPECT_TRUE(run("src/ft/ft_gehrd.cpp",
                  "Matrix<double> w(n, nb);\n"
                  "std::vector<double> tau(n);\n"
                  "auto* p = static_cast<T*>(dev.raw_allocate(bytes, site));\n")
                  .empty());
}

// ---- panel-impl -------------------------------------------------------------

TEST(LintPanelImpl, FlagsPanelDefinitionOutsideImplHeader) {
  const std::string def =
      "void latrd_panel(MatrixView<double> a, index_t k, index_t nb) {\n";
  const auto issues = run("src/lapack/sytrd.cpp", def);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "panel-impl");
}

TEST(LintPanelImpl, QualifiedCallsAndImplHeadersPass) {
  EXPECT_TRUE(run("src/lapack/sytrd.cpp",
                  "detail::latrd_panel(a, k, nb, e, tau, w);\n")
                  .empty());
  EXPECT_TRUE(run("src/lapack/sytrd_impl.hpp",
                  "void latrd_panel(MatrixView<double> a, index_t k) {\n")
                  .empty());
  EXPECT_TRUE(run("src/ft/q_protect.cpp",
                  "PanelChecksums QProtector::compute_panel(MatrixView<const "
                  "double> a, index_t k) {\n")
                  .empty())
      << "the rule is scoped to src/lapack/";
}

// ---- report format ----------------------------------------------------------

TEST(LintFormat, CarriesFileLineRuleAndExcerpt) {
  const auto issues = run("src/ft/x.cpp", "\n\nauto h = dv.unchecked_host_view();\n");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].line, 3);
  const std::string s = format(issues[0]);
  EXPECT_NE(s.find("src/ft/x.cpp:3"), std::string::npos);
  EXPECT_NE(s.find("[device-unwrap]"), std::string::npos);
  EXPECT_NE(s.find("auto h = dv.unchecked_host_view();"), std::string::npos);
}

}  // namespace
}  // namespace fth::check::lint
