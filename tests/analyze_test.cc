// Unit tests for the cross-TU analyzer (tools/analyze). Mirrors the
// lint_test convention: every rule gets a seeded violation that must fire
// and a clean/suppressed variant that must not. Fixture code lives inside
// string literals, so the tree-level lint and analyze passes (which scrub /
// tokenize literals) never trip on this file; fixture knob names use a
// WHITENREC_FIXTURE_* family that exists nowhere in the real registry.

#include "tools/analyze/analyze.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/analyze/tokenize.h"

namespace whitenrec {
namespace analyze {
namespace {

std::vector<Finding> WithRule(const std::vector<Finding>& findings,
                              const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

SourceTree TreeOf(std::vector<SourceFile> files) {
  SourceTree tree;
  tree.files = std::move(files);
  return tree;
}

// ---------------------------------------------------------------------------
// Tokenizer: the literal classes the old per-character scrubber mis-lexed.
// ---------------------------------------------------------------------------

TEST(TokenizeTest, PrefixedRawStringIsOneStringToken) {
  const std::string src = "auto s = u8R\"(std::thread inside)\";\nint t = 1;\n";
  const std::vector<Token> tokens = Tokenize(src);
  std::size_t strings = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokKind::kString) {
      ++strings;
      EXPECT_EQ(StringValue(t), "std::thread inside");
    }
  }
  EXPECT_EQ(strings, 1u);
  const std::string scrubbed = ScrubSource(src);
  EXPECT_EQ(scrubbed.find("thread"), std::string::npos);
  EXPECT_NE(scrubbed.find("int t = 1;"), std::string::npos);
}

TEST(TokenizeTest, EveryRawStringPrefixScrubs) {
  for (const char* prefix : {"R", "u8R", "uR", "UR", "LR"}) {
    const std::string src =
        std::string("auto s = ") + prefix + "\"x(secret)x\";\nint keep = 2;\n";
    const std::string scrubbed = ScrubSource(src);
    EXPECT_EQ(scrubbed.find("secret"), std::string::npos) << prefix;
    EXPECT_NE(scrubbed.find("int keep = 2;"), std::string::npos) << prefix;
  }
}

TEST(TokenizeTest, DigitSeparatorIsNotACharLiteral) {
  // The old scrubber treated the ' in 1'000'000 as opening a char literal
  // and desynced; the lexer folds it into one number token.
  const std::string src =
      "const long n = 1'000'000;\nconst char* s = \"std::thread\";\n";
  const std::vector<Token> tokens = Tokenize(src);
  bool saw_number = false;
  for (const Token& t : tokens) {
    if (t.kind == TokKind::kNumber) {
      saw_number = true;
      EXPECT_EQ(t.text, "1'000'000");
    }
  }
  EXPECT_TRUE(saw_number);
  // Scrubbing stays in sync: the later string still gets blanked.
  EXPECT_EQ(ScrubSource(src).find("thread"), std::string::npos);
}

TEST(TokenizeTest, MaximalMunchLexesNestedTemplateCloserAsShift) {
  const std::vector<Token> tokens = Tokenize("std::vector<std::vector<int>> v;");
  bool saw_shift = false;
  for (const Token& t : tokens) {
    if (t.kind == TokKind::kPunct && t.text == ">>") saw_shift = true;
  }
  EXPECT_TRUE(saw_shift);
}

TEST(TokenizeTest, ParseAllowsHonorsBothSpellings) {
  const std::set<std::string> a =
      ParseAllows("  // whitenrec-analyze: allow(hot-alloc, dead-knob)");
  EXPECT_TRUE(a.count("hot-alloc"));
  EXPECT_TRUE(a.count("dead-knob"));
  const std::set<std::string> b =
      ParseAllows("x(); // whitenrec-lint: allow(raw-thread)");
  EXPECT_TRUE(b.count("raw-thread"));
  EXPECT_TRUE(ParseAllows("# whitenrec-analyze: allow(*)").count("*"));
  EXPECT_TRUE(ParseAllows("plain code line").empty());
}

// ---------------------------------------------------------------------------
// Layering pass
// ---------------------------------------------------------------------------

TEST(LayeringTest, UpwardIncludeFires) {
  const SourceTree tree = TreeOf({
      {"src/core/low.h", "#include \"serve/high.h\"\nint x;\n"},
      {"src/serve/high.h", "int y;\n"},
  });
  const std::vector<Finding> f = CheckLayering(tree);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "upward-include");
  EXPECT_EQ(f[0].file, "src/core/low.h");
  EXPECT_EQ(f[0].line, 1u);
  EXPECT_NE(f[0].message.find("rank"), std::string::npos);
}

TEST(LayeringTest, DownwardAndSidewaysIncludesAreClean) {
  const SourceTree tree = TreeOf({
      {"src/core/status.h", "int s;\n"},
      {"src/eval/metrics.h", "#include \"core/status.h\"\nint m;\n"},
      {"src/seqrec/trainer.h",
       "#include \"core/status.h\"\n#include \"eval/metrics.h\"\nint t;\n"},
  });
  EXPECT_TRUE(CheckLayering(tree).empty());
}

TEST(LayeringTest, AllowSuppressesUpwardInclude) {
  const SourceTree tree = TreeOf({
      {"src/core/low.h",
       "// whitenrec-analyze: allow(upward-include)\n"
       "#include \"serve/high.h\"\nint x;\n"},
      {"src/serve/high.h", "int y;\n"},
  });
  EXPECT_TRUE(CheckLayering(tree).empty());
}

TEST(LayeringTest, IncludeInCommentIsIgnored) {
  const SourceTree tree = TreeOf({
      {"src/core/low.h", "// #include \"serve/high.h\"\nint x;\n"},
      {"src/serve/high.h", "int y;\n"},
  });
  EXPECT_TRUE(CheckLayering(tree).empty());
}

TEST(LayeringTest, IncludeCycleFires) {
  // Same-rank includes are legal layer-wise, so only the cycle rule trips.
  const SourceTree tree = TreeOf({
      {"src/core/a.h", "#include \"core/b.h\"\nint a;\n"},
      {"src/core/b.h", "#include \"core/a.h\"\nint b;\n"},
  });
  const std::vector<Finding> f = CheckLayering(tree);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "include-cycle");
  EXPECT_NE(f[0].message.find("src/core/a.h"), std::string::npos);
  EXPECT_NE(f[0].message.find("src/core/b.h"), std::string::npos);
}

TEST(LayeringTest, AcyclicChainIsClean) {
  const SourceTree tree = TreeOf({
      {"src/core/a.h", "#include \"core/b.h\"\nint a;\n"},
      {"src/core/b.h", "#include \"core/c.h\"\nint b;\n"},
      {"src/core/c.h", "int c;\n"},
  });
  EXPECT_TRUE(CheckLayering(tree).empty());
}

TEST(LayeringTest, UnrankedModuleIsExemptFromOrderButNotCycles) {
  const SourceTree tree = TreeOf({
      {"src/sandbox/x.h", "#include \"serve/high.h\"\nint x;\n"},
      {"src/serve/high.h", "#include \"sandbox/x.h\"\nint y;\n"},
  });
  const std::vector<Finding> f = CheckLayering(tree);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "include-cycle");
}

// ---------------------------------------------------------------------------
// Knobs pass
// ---------------------------------------------------------------------------

TEST(KnobsTest, ParseKnobsDefAcceptsCommentsAndAttributes) {
  std::vector<Finding> findings;
  const std::vector<KnobDecl> decls = ParseKnobsDef(
      "# registry header comment\n"
      "\n"
      "knob WHITENREC_FIXTURE_A type=size owner=src/core/a.cc\n"
      "knob WHITENREC_FIXTURE_B type=enum  # trailing comment\n",
      "tools/analyze/knobs.def", &findings);
  EXPECT_TRUE(findings.empty());
  ASSERT_EQ(decls.size(), 2u);
  EXPECT_EQ(decls[0].name, "WHITENREC_FIXTURE_A");
  EXPECT_EQ(decls[0].type, "size");
  EXPECT_EQ(decls[0].owner, "src/core/a.cc");
  EXPECT_EQ(decls[1].type, "enum");
}

TEST(KnobsTest, ParseKnobsDefFlagsMalformedLines) {
  std::vector<Finding> findings;
  const std::vector<KnobDecl> decls = ParseKnobsDef(
      "blob WHITENREC_FIXTURE_A type=size\n"
      "knob lowercase_name type=size\n"
      "knob WHITENREC_FIXTURE_C type=quaternion\n"
      "knob WHITENREC_FIXTURE_D type=size stray\n",
      "tools/analyze/knobs.def", &findings);
  EXPECT_TRUE(decls.empty());
  ASSERT_EQ(findings.size(), 4u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "knob-registry-syntax");
    EXPECT_EQ(f.file, "tools/analyze/knobs.def");
  }
}

TEST(KnobsTest, DuplicateRegistryEntryFires) {
  TreeInputs inputs;
  inputs.knobs_def =
      "knob WHITENREC_FIXTURE_A type=string\n"
      "knob WHITENREC_FIXTURE_A type=string\n";
  inputs.readme = "uses WHITENREC_FIXTURE_A\n";
  const SourceTree tree = TreeOf(
      {{"src/core/a.cc", "auto* v = std::getenv(\"WHITENREC_FIXTURE_A\");\n"}});
  const std::vector<Finding> f =
      WithRule(CheckKnobs(tree, inputs), "knob-registry-syntax");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 2u);
  EXPECT_NE(f[0].message.find("duplicate"), std::string::npos);
}

TEST(KnobsTest, UnregisteredKnobReadFires) {
  TreeInputs inputs;
  inputs.knobs_def = "# empty registry\n";
  inputs.readme = "";
  const SourceTree tree = TreeOf(
      {{"bench/b.cc",
        "int f() {\n  auto* v = core::EnvText(\"WHITENREC_FIXTURE_GHOST\");\n"
        "  return v != nullptr;\n}\n"}});
  const std::vector<Finding> f = CheckKnobs(tree, inputs);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unregistered-knob");
  EXPECT_EQ(f[0].file, "bench/b.cc");
  EXPECT_EQ(f[0].line, 2u);
}

TEST(KnobsTest, KnobNameInErrorMessageIsNotARead) {
  // Only `accessor ( "WHITENREC_X"` counts; a name embedded in an error
  // string or compared against does not create a phantom read site.
  TreeInputs inputs;
  inputs.knobs_def = "# empty registry\n";
  inputs.readme = "";
  const SourceTree tree = TreeOf(
      {{"src/core/a.cc",
        "void f() {\n"
        "  std::fprintf(stderr, \"invalid WHITENREC_FIXTURE_GHOST value\");\n"
        "}\n"}});
  EXPECT_TRUE(CheckKnobs(tree, inputs).empty());
}

TEST(KnobsTest, DeadKnobFires) {
  TreeInputs inputs;
  inputs.knobs_def = "knob WHITENREC_FIXTURE_UNUSED type=size\n";
  inputs.readme = "documents WHITENREC_FIXTURE_UNUSED\n";
  const SourceTree tree = TreeOf({{"src/core/a.cc", "int x;\n"}});
  const std::vector<Finding> f = CheckKnobs(tree, inputs);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "dead-knob");
  EXPECT_EQ(f[0].file, "tools/analyze/knobs.def");
  EXPECT_EQ(f[0].line, 1u);
}

TEST(KnobsTest, CmakeKnobsAreExemptFromDeadAndSiteChecks) {
  TreeInputs inputs;
  inputs.knobs_def = "knob WHITENREC_FIXTURE_OPT type=cmake\n";
  inputs.readme = "build with WHITENREC_FIXTURE_OPT\n";
  const SourceTree tree = TreeOf({{"src/core/a.cc", "int x;\n"}});
  EXPECT_TRUE(CheckKnobs(tree, inputs).empty());
}

TEST(KnobsTest, UndocumentedKnobFires) {
  TreeInputs inputs;
  inputs.knobs_def = "knob WHITENREC_FIXTURE_HIDDEN type=string\n";
  inputs.readme = "no mention of the knob here\n";
  const SourceTree tree = TreeOf(
      {{"bench/b.cc",
        "auto* v = core::EnvText(\"WHITENREC_FIXTURE_HIDDEN\");\n"}});
  const std::vector<Finding> f = CheckKnobs(tree, inputs);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "undocumented-knob");
  EXPECT_EQ(f[0].file, "tools/analyze/knobs.def");
}

TEST(KnobsTest, PrefixedMentionDoesNotDocument) {
  // "-DWHITENREC_FIXTURE_X" is a different word than the knob name; only an
  // exact standalone mention counts as documentation.
  TreeInputs inputs;
  inputs.knobs_def = "knob WHITENREC_FIXTURE_X type=cmake\n";
  inputs.readme = "configure with -DWHITENREC_FIXTURE_X=ON\n";
  const std::vector<Finding> f =
      WithRule(CheckKnobs(TreeOf({}), inputs), "undocumented-knob");
  ASSERT_EQ(f.size(), 1u);
}

TEST(KnobsTest, ReadmeDocumentingUnknownKnobFires) {
  TreeInputs inputs;
  inputs.knobs_def = "# empty registry\n";
  inputs.readme = "intro\nset WHITENREC_FIXTURE_STALE to tune nothing\n";
  const SourceTree tree = TreeOf({{"src/core/a.cc", "int x;\n"}});
  const std::vector<Finding> f = CheckKnobs(tree, inputs);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unregistered-knob");
  EXPECT_EQ(f[0].file, "README.md");
  EXPECT_EQ(f[0].line, 2u);
}

// Knobs-pass findings over one file, with the size knob WHITENREC_FIXTURE_N
// registered and documented.
std::vector<Finding> KnobsOver(const std::string& path,
                               const std::string& body) {
  TreeInputs inputs;
  inputs.knobs_def = "knob WHITENREC_FIXTURE_N type=size\n";
  inputs.readme = "docs for WHITENREC_FIXTURE_N\n";
  return CheckKnobs(TreeOf({{path, body}}), inputs);
}

// Asserts exactly one finding, a bare-getenv at `line`.
void ExpectBareGetenv(const std::vector<Finding>& f, std::size_t line) {
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "bare-getenv");
  EXPECT_EQ(f[0].line, line);
}

// A getenv of a knob outside src/core/env.cc is a bare-getenv violation
// however strictly the code around it parses; reads through the core/env
// readers are clean.
TEST(KnobsTest, LaxNumericParseFires) {
  ExpectBareGetenv(
      KnobsOver("src/core/a.cc",
                "std::size_t F() {\n"
                "  const char* e = std::getenv(\"WHITENREC_FIXTURE_N\");\n"
                "  if (e != nullptr) {\n"
                "    const long v = std::atol(e);\n"
                "    if (v >= 1) return static_cast<std::size_t>(v);\n"
                "  }\n"
                "  return 1;\n"
                "}\n"),
      2);
}

TEST(KnobsTest, StrictStrtoPlusAbortIsClean) {
  // Clean only in the one parser file; anywhere else it is a second parser.
  const std::string body =
      "std::size_t F() {\n"
      "  const char* e = std::getenv(\"WHITENREC_FIXTURE_N\");\n"
      "  if (e == nullptr) return 1;\n"
      "  char* end = nullptr;\n"
      "  const unsigned long long v = std::strtoull(e, &end, 10);\n"
      "  if (end == e || *end != 0 || v == 0) std::abort();\n"
      "  return static_cast<std::size_t>(v);\n"
      "}\n";
  EXPECT_TRUE(KnobsOver("src/core/env.cc", body).empty());
  ExpectBareGetenv(KnobsOver("src/core/a.cc", body), 2);
}

TEST(KnobsTest, OrDieDelegationIsClean) {
  EXPECT_TRUE(KnobsOver("bench/b.cc",
                        "std::size_t n = core::EnvSize(\"WHITENREC_FIXTURE_N"
                        "\", 1);\n")
                  .empty());
  // A bench-local getenv in front of a strict parser is still a bare read.
  ExpectBareGetenv(
      KnobsOver("bench/b.cc",
                "std::size_t F() {\n"
                "  const char* e = std::getenv(\"WHITENREC_FIXTURE_N\");\n"
                "  return e == nullptr ? 1 : ParseSizeOrDie(e);\n"
                "}\n"),
      2);
}

TEST(KnobsTest, EnumNeedsLoudRejectionOnly) {
  EXPECT_TRUE(KnobsOver("tests/t.cc",
                        "int F() {\n"
                        "  const char* e = core::EnvText(\"WHITENREC_FIXTURE_N"
                        "\");\n"
                        "  return e == nullptr ? 0 : core::OrExit(\"WHITENREC_"
                        "FIXTURE_N\", ParseMode(e));\n"
                        "}\n")
                  .empty());
  ExpectBareGetenv(
      KnobsOver("src/core/a.cc",
                "int F() {\n"
                "  const char* e = std::getenv(\"WHITENREC_FIXTURE_N\");\n"
                "  if (e == nullptr) return 0;\n"
                "  WR_CHECK(std::string(e) == \"fast\");\n"
                "  return 1;\n"
                "}\n"),
      2);
}

TEST(KnobsTest, StringKnobAndStrictHelpersAreExempt) {
  TreeInputs inputs;
  inputs.knobs_def =
      "knob WHITENREC_FIXTURE_DIR type=string\n"
      "knob WHITENREC_FIXTURE_N type=size\n";
  inputs.readme =
      "docs for WHITENREC_FIXTURE_DIR and WHITENREC_FIXTURE_N\n";
  EXPECT_TRUE(CheckKnobs(TreeOf({{"bench/b.cc",
                                  "auto* d = core::EnvText(\"WHITENREC_FIXTURE"
                                  "_DIR\");\n"
                                  "auto n = core::EnvSize(\"WHITENREC_FIXTURE_"
                                  "N\", 4);\n"}}),
                         inputs)
                  .empty());
  // A string knob is no exception to bare-getenv, and neither is a getenv
  // whose argument is not a literal; a literal non-knob name is.
  const std::vector<Finding> f = WithRule(
      CheckKnobs(TreeOf({{"src/serve/s.cc",
                          "auto* d = std::getenv(\"WHITENREC_FIXTURE_DIR\");\n"
                          "auto* n = std::getenv(name);\n"
                          "auto* h = std::getenv(\"HOME\");\n"}}),
                 inputs),
      "bare-getenv");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].line, 1u);
  EXPECT_EQ(f[1].line, 2u);
}

TEST(KnobsTest, TestsAreOutsideStrictScope) {
  // Mains — tests, benches, examples — may include core/env.h (library-env
  // covers src/ only), but a bare getenv there still fires.
  EXPECT_TRUE(KnobsOver("tests/t.cc",
                        "#include \"core/env.h\"\n"
                        "std::size_t n = core::EnvSize(\"WHITENREC_FIXTURE_N"
                        "\", 1);\n")
                  .empty());
  ExpectBareGetenv(KnobsOver("tests/t.cc",
                             "int F() { return std::atoi(std::getenv("
                             "\"WHITENREC_FIXTURE_N\")); }\n"),
                   1);
}

TEST(KnobsTest, LibraryIncludingEnvFires) {
  const SourceTree tree = TreeOf(
      {{"src/core/env.cc", "#include \"core/env.h\"\n"},
       {"src/serve/s.cc",
        "#include \"core/check.h\"\n"
        "// #include \"core/env.h\" in a comment is not an include\n"
        "#include \"core/env.h\"\n"},
       {"bench/b.cc", "#include \"core/env.h\"\n"}});
  const std::vector<Finding> f = CheckKnobs(tree, TreeInputs{});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "library-env");
  EXPECT_EQ(f[0].file, "src/serve/s.cc");
  EXPECT_EQ(f[0].line, 3u);
}

TEST(KnobsTest, AllowInKnobsDefSuppressesRegistryFinding) {
  TreeInputs inputs;
  inputs.knobs_def =
      "# whitenrec-analyze: allow(dead-knob)\n"
      "knob WHITENREC_FIXTURE_FUTURE type=size\n";
  inputs.readme = "docs for WHITENREC_FIXTURE_FUTURE\n";
  const SourceTree tree = TreeOf({{"src/core/a.cc", "int x;\n"}});
  EXPECT_TRUE(CheckKnobs(tree, inputs).empty());
}

TEST(KnobsTest, AllowAtSiteSuppressesLaxParse) {
  EXPECT_TRUE(KnobsOver("src/core/a.cc",
                        "int F() {\n"
                        "  // whitenrec-analyze: allow(bare-getenv)\n"
                        "  return std::atoi(std::getenv(\"WHITENREC_FIXTURE_N"
                        "\"));\n"
                        "}\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// Hot-path allocation pass
// ---------------------------------------------------------------------------

TEST(HotAllocTest, MatrixInParallelForLambdaFires) {
  const SourceTree tree = TreeOf(
      {{"src/linalg/k.cc",
        "void F(std::size_t n) {\n"
        "  core::ParallelFor(0, n, 1, [&](std::size_t a, std::size_t b) {\n"
        "    Matrix scratch(4, 4);\n"
        "    (void)a; (void)b; (void)scratch;\n"
        "  });\n"
        "}\n"}});
  const std::vector<Finding> f = CheckHotAlloc(tree);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "hot-alloc");
  EXPECT_EQ(f[0].line, 3u);
  EXPECT_NE(f[0].message.find("ParallelFor"), std::string::npos);
}

TEST(HotAllocTest, SizedVectorInStreamLambdaFires) {
  const SourceTree tree = TreeOf(
      {{"src/linalg/k.cc",
        "void F(std::size_t n) {\n"
        "  StreamMatMulTransBPanels(a, b, [&](std::size_t r0, std::size_t r1) {\n"
        "    std::vector<double> buf(n, 0.0);\n"
        "    (void)buf;\n"
        "  });\n"
        "}\n"}});
  const std::vector<Finding> f = CheckHotAlloc(tree);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 3u);
}

TEST(HotAllocTest, QuantStreamLambdaIsHot) {
  // The dequantize-in-tile scoring entry points (DESIGN.md §12) are hot
  // positions too: their ScoreRowsFn runs once per score tile.
  const SourceTree tree = TreeOf(
      {{"src/linalg/k.cc",
        "void F(const QuantizedItemTable& q) {\n"
        "  StreamQuantMatMulTransB(a, q, [&](std::size_t r0, std::size_t r1,\n"
        "                                    std::size_t j0, std::size_t jn,\n"
        "                                    const Matrix& panel) {\n"
        "    std::vector<double> buf(jn, 0.0);\n"
        "    (void)buf;\n"
        "  });\n"
        "  StreamQuantMatMulTransBTiles(a, q, 64, [&](std::size_t r0,\n"
        "                                             std::size_t r1,\n"
        "                                             std::size_t j0,\n"
        "                                             std::size_t jn,\n"
        "                                             const Matrix& panel) {\n"
        "    Matrix tmp(2, 2);\n"
        "    (void)tmp;\n"
        "  });\n"
        "}\n"}});
  const std::vector<Finding> f = CheckHotAlloc(tree);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_NE(f[0].message.find("StreamQuantMatMulTransB"), std::string::npos);
}

TEST(HotAllocTest, PackedStreamLambdaIsHot) {
  // The pre-packed item table's stream serves every exact-scorer request
  // batch: its epilogue runs once per score tile and row block.
  const SourceTree tree = TreeOf(
      {{"src/linalg/k.cc",
        "void F(const PackedItemTable& p) {\n"
        "  StreamPackedMatMulTransB(a, p, [&](std::size_t r0, std::size_t r1,\n"
        "                                     std::size_t j0, std::size_t jn,\n"
        "                                     const Matrix& panel) {\n"
        "    Matrix copy(panel);\n"
        "    std::vector<double> row(jn);\n"
        "    (void)copy; (void)row;\n"
        "  });\n"
        "}\n"}});
  const std::vector<Finding> f = CheckHotAlloc(tree);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].line, 5u);
  EXPECT_EQ(f[1].line, 6u);
  EXPECT_NE(f[0].message.find("StreamPackedMatMulTransB"), std::string::npos);
}

TEST(HotAllocTest, PackedDistanceKernelBodiesAreHot) {
  // k-means calls the packed distance kernels once per Lloyd pass and once
  // per k-means++ centre, so the bodies of their definitions are hot: a
  // per-call Matrix or sized vector there is flagged, once even inside a
  // nested ParallelFor lambda. Their declarations and call sites are clean.
  const SourceTree tree = TreeOf(
      {{"src/linalg/k.cc",
        "void PackedNearestCentroids(const PackedItemTable& p,\n"
        "                            const Matrix& c,\n"
        "                            std::vector<std::uint32_t>* labels);\n"
        "void PackedNearestCentroids(const PackedItemTable& p,\n"
        "                            const Matrix& c,\n"
        "                            std::vector<std::uint32_t>* labels) {\n"
        "  Matrix dist(c.rows(), 8);\n"
        "  (void)dist;\n"
        "}\n"
        "void PackedMinSquaredDistances(const PackedItemTable& p,\n"
        "                               const double* center, bool reset,\n"
        "                               std::vector<double>* min_dist) {\n"
        "  core::ParallelFor(0, 4, 1, [&](std::size_t a, std::size_t b) {\n"
        "    std::vector<double> row(p.cols());\n"
        "    (void)row;\n"
        "  });\n"
        "}\n"
        "void Fit(const PackedItemTable& p, const Matrix& c,\n"
        "         std::vector<std::uint32_t>* labels) {\n"
        "  PackedNearestCentroids(p, c, labels);\n"
        "}\n"}});
  const std::vector<Finding> f = CheckHotAlloc(tree);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].line, 7u);
  EXPECT_NE(f[0].message.find("PackedNearestCentroids"), std::string::npos);
  EXPECT_EQ(f[1].line, 14u);
  EXPECT_NE(f[1].message.find("PackedMinSquaredDistances"),
            std::string::npos);
}

TEST(HotAllocTest, NestedTemplateVectorFires) {
  // std::vector<std::vector<int>> closes with a '>>' shift token; the angle
  // matcher must still find the declared identifier after it.
  const SourceTree tree = TreeOf(
      {{"src/linalg/k.cc",
        "void F(std::size_t n) {\n"
        "  core::ParallelFor(0, n, 1, [&](std::size_t a, std::size_t b) {\n"
        "    std::vector<std::vector<int>> grid(n);\n"
        "    (void)grid;\n"
        "  });\n"
        "}\n"}});
  ASSERT_EQ(CheckHotAlloc(tree).size(), 1u);
}

TEST(HotAllocTest, CallbackInitializerFires) {
  const SourceTree tree = TreeOf(
      {{"src/linalg/k.cc",
        "void F() {\n"
        "  RowBlockHook hook = [&](std::size_t r, const double* p) {\n"
        "    Matrix tmp(2, 2);\n"
        "    (void)tmp;\n"
        "  };\n"
        "}\n"}});
  const std::vector<Finding> f = CheckHotAlloc(tree);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].message.find("RowBlockHook"), std::string::npos);
}

TEST(HotAllocTest, EmptyVectorAndHoistedBuffersAreClean) {
  const SourceTree tree = TreeOf(
      {{"src/linalg/k.cc",
        "void F(std::size_t n) {\n"
        "  Matrix hoisted(4, 4);\n"
        "  core::ParallelFor(0, n, 1, [&](std::size_t a, std::size_t b) {\n"
        "    std::vector<double> reused;\n"  // empty: no allocation yet
        "    reused.reserve(8);\n"
        "    hoisted.Fill(0.0);\n"
        "  });\n"
        "}\n"}});
  EXPECT_TRUE(CheckHotAlloc(tree).empty());
}

TEST(HotAllocTest, AllowSuppresses) {
  const SourceTree tree = TreeOf(
      {{"src/seqrec/t.cc",
        "void F(std::size_t n) {\n"
        "  core::ParallelFor(0, n, 1, [&](std::size_t a, std::size_t b) {\n"
        "    // whitenrec-analyze: allow(hot-alloc)\n"
        "    std::vector<char> excluded(n, 0);\n"
        "    (void)excluded;\n"
        "  });\n"
        "}\n"}});
  EXPECT_TRUE(CheckHotAlloc(tree).empty());
}

TEST(HotAllocTest, OutsideSrcIsExempt) {
  const SourceTree tree = TreeOf(
      {{"tests/k_test.cc",
        "void F(std::size_t n) {\n"
        "  core::ParallelFor(0, n, 1, [&](std::size_t a, std::size_t b) {\n"
        "    Matrix scratch(4, 4);\n"
        "    (void)scratch;\n"
        "  });\n"
        "}\n"}});
  EXPECT_TRUE(CheckHotAlloc(tree).empty());
}

TEST(HotAllocTest, PlainSubscriptIsNotALambda) {
  const SourceTree tree = TreeOf(
      {{"src/linalg/k.cc",
        "void F(std::vector<int>& arr, std::size_t n) {\n"
        "  core::ParallelFor(0, arr[n], 1, Worker);\n"
        "}\n"}});
  EXPECT_TRUE(CheckHotAlloc(tree).empty());
}

// ---------------------------------------------------------------------------
// Report: ANALYZE.json writer and schema validator
// ---------------------------------------------------------------------------

AnalyzeResult SampleResult() {
  AnalyzeResult result;
  result.files_scanned = 7;
  result.findings.push_back(Finding{"src/core/a.cc", 12, "knobs",
                                    "bare-getenv",
                                    "message with \"quotes\" and\nnewline"});
  result.findings.push_back(
      Finding{"src/serve/b.cc", 3, "layering", "upward-include", "msg"});
  return result;
}

TEST(ReportTest, RoundTripValidates) {
  const AnalyzeResult with_findings = SampleResult();
  EXPECT_TRUE(ValidateAnalyzeReport(ReportJson(with_findings)).ok());

  AnalyzeResult clean;
  clean.files_scanned = 42;
  const std::string json = ReportJson(clean);
  EXPECT_TRUE(ValidateAnalyzeReport(json).ok());
  EXPECT_NE(json.find("\"clean\": true"), std::string::npos);
}

TEST(ReportTest, RejectsWrongSchemaTag) {
  std::string json = ReportJson(SampleResult());
  const std::size_t pos = json.find("whitenrec.analyze.v1");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, std::string("whitenrec.analyze.v1").size(),
               "whitenrec.analyze.v9");
  EXPECT_FALSE(ValidateAnalyzeReport(json).ok());
}

TEST(ReportTest, RejectsCleanFlagMismatch) {
  std::string json = ReportJson(SampleResult());
  const std::size_t pos = json.find("\"clean\": false");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, std::string("\"clean\": false").size(),
               "\"clean\": true");
  EXPECT_FALSE(ValidateAnalyzeReport(json).ok());
}

TEST(ReportTest, RejectsUnknownRule) {
  std::string json = ReportJson(SampleResult());
  const std::size_t pos = json.find("upward-include");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, std::string("upward-include").size(), "made-up-rule");
  EXPECT_FALSE(ValidateAnalyzeReport(json).ok());
}

TEST(ReportTest, RejectsMissingKeysAndGarbage) {
  EXPECT_FALSE(ValidateAnalyzeReport("not json at all").ok());
  EXPECT_FALSE(ValidateAnalyzeReport("{}").ok());
  EXPECT_FALSE(
      ValidateAnalyzeReport(
          "{\"schema\": \"whitenrec.analyze.v1\", \"files_scanned\": 0, "
          "\"passes\": [\"layering\", \"knobs\", \"hotalloc\"], "
          "\"findings\": [], \"clean\": true}")
          .ok());  // files_scanned must be >= 1
  EXPECT_FALSE(
      ValidateAnalyzeReport(
          "{\"schema\": \"whitenrec.analyze.v1\", \"files_scanned\": 3, "
          "\"passes\": [\"layering\", \"knobs\"], "
          "\"findings\": [], \"clean\": true}")
          .ok());  // passes must list every pass
}

// ---------------------------------------------------------------------------
// AnalyzeTree: aggregation across passes
// ---------------------------------------------------------------------------

TEST(AnalyzeTreeTest, AggregatesAndSortsAcrossPasses) {
  TreeInputs inputs;
  inputs.knobs_def = "# empty registry\n";
  inputs.readme = "";
  const SourceTree tree = TreeOf({
      {"src/core/low.h", "#include \"serve/high.h\"\nint x;\n"},
      {"src/serve/high.h",
       "void F(std::size_t n) {\n"
       "  core::ParallelFor(0, n, 1, [&](std::size_t a, std::size_t b) {\n"
       "    Matrix scratch(4, 4);\n"
       "    (void)scratch;\n"
       "  });\n"
       "}\n"},
  });
  const AnalyzeResult result = AnalyzeTree(tree, inputs);
  EXPECT_EQ(result.files_scanned, 2u);
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      result.findings.begin(), result.findings.end(),
      [](const Finding& a, const Finding& b) { return a.file < b.file; }));
  EXPECT_EQ(result.findings[0].rule, "upward-include");
  EXPECT_EQ(result.findings[1].rule, "hot-alloc");
  EXPECT_TRUE(ValidateAnalyzeReport(ReportJson(result)).ok());
}

}  // namespace
}  // namespace analyze
}  // namespace whitenrec
