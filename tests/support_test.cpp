//===- tests/support_test.cpp - psg_support unit tests --------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "CliOptions.h"

#include "support/Csv.h"
#include "support/Error.h"
#include "support/Logging.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

using namespace psg;

//===----------------------------------------------------------------------===//
// Error handling.
//===----------------------------------------------------------------------===//

TEST(StatusTest, DefaultIsSuccess) {
  Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_TRUE(static_cast<bool>(S));
  EXPECT_TRUE(S.message().empty());
}

TEST(StatusTest, FailureCarriesMessage) {
  Status S = Status::failure("broken pipe");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.message(), "broken pipe");
}

TEST(ErrorOrTest, ValueAccess) {
  ErrorOr<int> V(42);
  ASSERT_TRUE(V.ok());
  EXPECT_EQ(*V, 42);
  *V = 43;
  EXPECT_EQ(V.value(), 43);
}

TEST(ErrorOrTest, FailureAccess) {
  ErrorOr<int> V = ErrorOr<int>::failure("no value");
  ASSERT_FALSE(V.ok());
  EXPECT_EQ(V.message(), "no value");
}

TEST(ErrorOrTest, MoveOnlyPayload) {
  ErrorOr<std::unique_ptr<int>> V(std::make_unique<int>(7));
  ASSERT_TRUE(V.ok());
  EXPECT_EQ(**V, 7);
}

//===----------------------------------------------------------------------===//
// Random numbers.
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicAcrossInstances) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.nextU64(), B.nextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.nextU64() == B.nextU64();
  EXPECT_LT(Same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng R(5);
  for (int I = 0; I < 10000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform(-3.0, 9.0);
    EXPECT_GE(U, -3.0);
    EXPECT_LT(U, 9.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng R(11);
  double Sum = 0;
  const int N = 100000;
  for (int I = 0; I < N; ++I)
    Sum += R.uniform();
  EXPECT_NEAR(Sum / N, 0.5, 0.01);
}

TEST(RngTest, LogUniformWithinBounds) {
  Rng R(13);
  for (int I = 0; I < 2000; ++I) {
    double V = R.logUniform(1e-6, 10.0);
    EXPECT_GE(V, 1e-6);
    EXPECT_LE(V, 10.0);
  }
}

TEST(RngTest, LogUniformMedianIsGeometricMean) {
  Rng R(17);
  std::vector<double> Values(20001);
  for (double &V : Values)
    V = R.logUniform(1e-4, 1.0);
  std::sort(Values.begin(), Values.end());
  const double Median = Values[Values.size() / 2];
  EXPECT_NEAR(std::log10(Median), -2.0, 0.1);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng R(19);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(R.uniformInt(7));
  EXPECT_EQ(Seen.size(), 7u);
  EXPECT_EQ(*Seen.rbegin(), 6u);
}

TEST(RngTest, NormalMoments) {
  Rng R(23);
  double Sum = 0, SumSq = 0;
  const int N = 100000;
  for (int I = 0; I < N; ++I) {
    double X = R.normal();
    Sum += X;
    SumSq += X * X;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.02);
  EXPECT_NEAR(SumSq / N, 1.0, 0.03);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng A(31);
  Rng S1 = A.split(1);
  Rng B(31);
  Rng S1Again = B.split(1);
  Rng S2 = B.split(2);
  EXPECT_EQ(S1.nextU64(), S1Again.nextU64());
  EXPECT_NE(S1.nextU64(), S2.nextU64());
}

// Seed-stability pins: the exact first draws of every distribution for
// a fixed seed. Random models, Halton scrambles, and fuzz cases are all
// reproduced from seeds recorded in logs and .psg case files, so any
// change to the generator's stream is a silent compatibility break —
// this test turns it into a loud one.
TEST(RngTest, SeedStabilityPinsEveryDistribution) {
  {
    Rng G(42);
    const uint64_t Expected[4] = {
        1546998764402558742ull, 6990951692964543102ull,
        12544586762248559009ull, 17057574109182124193ull};
    for (uint64_t E : Expected)
      EXPECT_EQ(G.nextU64(), E);
  }
  {
    Rng G(42);
    const double Expected[4] = {
        0.083862971059882163, 0.37898025066266861, 0.68004341102813937,
        0.92469294532538759};
    for (double E : Expected)
      EXPECT_DOUBLE_EQ(G.uniform(), E);
  }
  {
    Rng G(42);
    const double Expected[4] = {
        -1.5806851447005892, -0.10509874668665686, 1.4002170551406969,
        2.6234647266269384};
    for (double E : Expected)
      EXPECT_DOUBLE_EQ(G.uniform(-2.0, 3.0), E);
  }
  {
    Rng G(42);
    const double Expected[4] = {
        0.0031855015912393516, 0.18788041204595129, 12.029857035903323,
        353.31141731094931};
    for (double E : Expected)
      EXPECT_DOUBLE_EQ(G.logUniform(1e-3, 1e3), E);
  }
  {
    Rng G(42);
    const uint64_t Expected[4] = {742, 102, 9, 193};
    for (uint64_t E : Expected)
      EXPECT_EQ(G.uniformInt(1000), E);
  }
  {
    Rng G(42);
    const double Expected[4] = {
        -1.6132237513849161, 1.5344873235334195, 0.78169204505734891,
        -0.40019349432348483};
    for (double E : Expected)
      EXPECT_DOUBLE_EQ(G.normal(), E);
  }
  {
    Rng H = Rng(42).split(3);
    EXPECT_DOUBLE_EQ(H.uniform(), 0.46033603060515182);
    EXPECT_DOUBLE_EQ(H.uniform(), 0.29885056432395884);
  }
}

TEST(SplitMix64Test, KnownFirstOutputsDiffer) {
  SplitMix64 A(0), B(1);
  EXPECT_NE(A.next(), B.next());
}

TEST(SplitMix64Test, SeedStabilityPinsFirstOutputs) {
  SplitMix64 S(7);
  EXPECT_EQ(S.next(), 7191089600892374487ull);
  EXPECT_EQ(S.next(), 309689372594955804ull);
  EXPECT_EQ(S.next(), 16616101746815609346ull);
  EXPECT_EQ(S.next(), 10753165928301472203ull);
}

//===----------------------------------------------------------------------===//
// Strings.
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtilsTest, SplitKeepsEmptyFields) {
  auto Fields = split("a, b,,c", ',');
  ASSERT_EQ(Fields.size(), 4u);
  EXPECT_EQ(Fields[0], "a");
  EXPECT_EQ(Fields[1], "b");
  EXPECT_EQ(Fields[2], "");
  EXPECT_EQ(Fields[3], "c");
}

TEST(StringUtilsTest, SplitWhitespaceDropsEmpties) {
  auto Fields = splitWhitespace("  alpha \t beta\ngamma ");
  ASSERT_EQ(Fields.size(), 3u);
  EXPECT_EQ(Fields[0], "alpha");
  EXPECT_EQ(Fields[2], "gamma");
}

TEST(StringUtilsTest, StartsWith) {
  EXPECT_TRUE(startsWith("reaction 1.0", "reaction"));
  EXPECT_FALSE(startsWith("react", "reaction"));
}

TEST(StringUtilsTest, ParseDoubleAcceptsScientific) {
  double V = 0;
  EXPECT_TRUE(parseDouble("1.5e-3", V));
  EXPECT_DOUBLE_EQ(V, 1.5e-3);
  EXPECT_TRUE(parseDouble(" -2.25 ", V));
  EXPECT_DOUBLE_EQ(V, -2.25);
}

TEST(StringUtilsTest, ParseDoubleRejectsGarbage) {
  double V = 0;
  EXPECT_FALSE(parseDouble("", V));
  EXPECT_FALSE(parseDouble("abc", V));
  EXPECT_FALSE(parseDouble("1.5x", V));
}

TEST(StringUtilsTest, ParseUnsigned) {
  unsigned V = 0;
  EXPECT_TRUE(parseUnsigned("42", V));
  EXPECT_EQ(V, 42u);
  EXPECT_FALSE(parseUnsigned("-1", V));
  EXPECT_FALSE(parseUnsigned("3.5", V));
  EXPECT_TRUE(parseUnsigned("4294967295", V));
  EXPECT_EQ(V, 4294967295u);
  EXPECT_FALSE(parseUnsigned("4294967296", V));
  EXPECT_FALSE(parseUnsigned("99999999999999999999999", V));

  // The 64-bit overload: full range, and the same rejections.
  uint64_t W = 0;
  EXPECT_TRUE(parseUnsigned("4294967296", W));
  EXPECT_EQ(W, 4294967296ull);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", W));
  EXPECT_EQ(W, 18446744073709551615ull);
  EXPECT_TRUE(parseUnsigned(" 0 ", W));
  EXPECT_EQ(W, 0u);
  EXPECT_FALSE(parseUnsigned("18446744073709551616", W));
  EXPECT_FALSE(parseUnsigned("99999999999999999999999", W));
  EXPECT_FALSE(parseUnsigned("-1", W));
  EXPECT_FALSE(parseUnsigned("+1", W));
  EXPECT_FALSE(parseUnsigned("", W));
  EXPECT_FALSE(parseUnsigned("12abc", W));
  EXPECT_FALSE(parseUnsigned("0x10", W));
}

TEST(StringUtilsTest, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatString("%.2f", 3.14159), "3.14");
}

//===----------------------------------------------------------------------===//
// Command-line flags (tools/CliOptions.h, shared by psg-cli and psg-check).
//===----------------------------------------------------------------------===//

namespace {

/// Options::parse over \p Args, the arguments after a command name.
ErrorOr<Options> parseArgs(std::vector<const char *> Args,
                           const std::string &Spec) {
  return Options::parse(static_cast<int>(Args.size()), Args.data(), 0, Spec);
}

/// The message Options::parse fails with, or "" when it succeeds.
std::string parseError(std::vector<const char *> Args,
                       const std::string &Spec) {
  ErrorOr<Options> O = parseArgs(std::move(Args), Spec);
  return O ? "" : O.message();
}

} // namespace

TEST(CliOptionsTest, EveryValueKindReadsItsValue) {
  ErrorOr<Options> O = parseArgs(
      {"model.txt", "--name", "x", "--r", "-2.5", "--p", "1e-3", "--u", "0",
       "--c", "7", "--s"},
      "name r:real p:pos u:uint c:count s:switch unused");
  ASSERT_TRUE(O) << O.message();
  EXPECT_EQ(O->Positional, std::vector<std::string>{"model.txt"});
  EXPECT_EQ(O->get("name", ""), "x");
  EXPECT_EQ(O->getDouble("r", 0.0), -2.5);
  EXPECT_EQ(O->getDouble("p", 0.0), 1e-3);
  EXPECT_EQ(O->getUnsigned("u", 9), 0u);
  EXPECT_EQ(O->getUnsigned("c", 0), 7u);
  EXPECT_TRUE(O->has("s"));
  EXPECT_FALSE(O->has("unused"));
  EXPECT_EQ(O->getDouble("unused", 4.5), 4.5);
}

TEST(CliOptionsTest, EveryValueKindRejectsAWrongValue) {
  const std::string Spec = "r:real p:pos u:uint c:count";
  EXPECT_EQ(parseError({"--r", "abc"}, Spec),
            "--r needs a finite number, got 'abc'");
  EXPECT_EQ(parseError({"--r", "nan"}, Spec),
            "--r needs a finite number, got 'nan'");
  EXPECT_EQ(parseError({"--p", "inf"}, Spec),
            "--p needs a finite number, got 'inf'");
  EXPECT_EQ(parseError({"--p", "0"}, Spec),
            "--p needs a number above 0, got '0'");
  EXPECT_EQ(parseError({"--u", "-1"}, Spec),
            "--u needs an unsigned integer, got '-1'");
  EXPECT_EQ(parseError({"--c", "2.5"}, Spec),
            "--c needs an unsigned integer, got '2.5'");
  EXPECT_EQ(parseError({"--c", "0"}, Spec),
            "--c needs an integer above 0, got '0'");
}

TEST(CliOptionsTest, UnknownFlagIsRejected) {
  EXPECT_EQ(parseError({"curated:repressilator", "--bogus", "3"},
                       cliCommandFlags("simulate")),
            "unknown option --bogus");
  // A flag of another command is unknown too.
  EXPECT_EQ(parseError({"--sub-batch", "1"}, cliCommandFlags("simulate")),
            "unknown option --sub-batch");
  // So are the flags of the deleted multi-device scheduler and psa1d's
  // deleted pipeline flags.
  for (const char *Command : {"simulate", "psa1d"})
    for (const char *Flag :
         {"--devices", "--shard-chunk", "--stream", "--inflight"})
      EXPECT_EQ(parseError({"m.txt", Flag, "4"}, cliCommandFlags(Command)),
                std::string("unknown option ") + Flag)
          << Command;
  EXPECT_EQ(cliCommandFlags("bogus"), nullptr);
  EXPECT_EQ(checkCommandFlags("bogus"), nullptr);
}

TEST(CliOptionsTest, ValueFlagWithoutValueIsRejected) {
  const std::string Simulate = cliCommandFlags("simulate");
  // At the end of the arguments: no file named "1" gets written.
  EXPECT_EQ(parseError({"curated:repressilator", "--batch", "8", "--tend",
                        "1", "--out"},
                       Simulate),
            "--out needs a value");
  // Followed by another flag: no simulator named "1" gets looked up.
  EXPECT_EQ(
      parseError({"curated:repressilator", "--simulator", "--batch", "8"},
                 Simulate),
      "--simulator needs a value");
  EXPECT_EQ(parseError({"--seed"}, checkCommandFlags("fuzz")),
            "--seed needs a value");
}

TEST(CliOptionsTest, SwitchLeavesTheNextArgumentAnOperand) {
  ErrorOr<Options> O = parseArgs(
      {"curated:brusselator", "--reaction", "0", "--lo", "0.5", "--hi", "2",
       "--points", "3", "--log", "curated:x"},
      cliCommandFlags("psa1d"));
  ASSERT_TRUE(O) << O.message();
  EXPECT_TRUE(O->has("log"));
  EXPECT_EQ(O->Positional,
            (std::vector<std::string>{"curated:brusselator", "curated:x"}));

  O = parseArgs({"--perturb", "m.txt"}, cliCommandFlags("simulate"));
  ASSERT_TRUE(O) << O.message();
  EXPECT_TRUE(O->has("perturb"));
  EXPECT_EQ(O->Positional, std::vector<std::string>{"m.txt"});
}

TEST(CliOptionsTest, DurationsAndTimeoutsMustBePositive) {
  const std::pair<const char *, const char *> Durations[] = {
      {"simulate", "tend"},
      {"psa1d", "tend"},
      {"steady", "maxtime"},
      {"steady", "timescale"}};
  for (const auto &[Command, Flag] : Durations) {
    const std::string Arg = std::string("--") + Flag;
    for (const char *Value : {"-1", "0", "-0.5"})
      EXPECT_EQ(parseError({"m.txt", Arg.c_str(), Value},
                           cliCommandFlags(Command)),
                Arg + " needs a number above 0, got '" + Value + "'")
          << Command;
    EXPECT_EQ(parseError({"m.txt", Arg.c_str(), "0.25"},
                         cliCommandFlags(Command)),
              "")
        << Command;
  }
}

TEST(CliOptionsTest, CountsMustBeAboveZero) {
  // Every psg-cli flag that sizes a run is a :count: 0 is a user error,
  // never a value the engine silently replaces.
  const std::pair<const char *, const char *> Counts[] = {
      {"simulate", "batch"},
      {"psa1d", "points sub-batch"},
      {"generate", "species reactions"}};
  for (const auto &[Command, Flags] : Counts)
    for (const std::string &Flag : splitWhitespace(Flags)) {
      const std::string Arg = "--" + Flag;
      EXPECT_EQ(parseError({"m.txt", Arg.c_str(), "0"},
                           cliCommandFlags(Command)),
                Arg + " needs an integer above 0, got '0'")
          << Command;
      EXPECT_EQ(parseError({"m.txt", Arg.c_str(), "1"},
                           cliCommandFlags(Command)),
                "")
          << Command;
    }
}

//===----------------------------------------------------------------------===//
// CSV.
//===----------------------------------------------------------------------===//

TEST(CsvTest, EscapeQuotesAndSeparators) {
  EXPECT_EQ(csvEscape("plain"), "plain");
  EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, HeaderAndRows) {
  CsvWriter Csv({"a", "b"});
  Csv.addRow(std::vector<std::string>{"1", "x,y"});
  Csv.addRow(std::vector<double>{2.5, -1.0});
  EXPECT_EQ(Csv.numRows(), 2u);
  const std::string Text = Csv.toString();
  EXPECT_NE(Text.find("a,b\n"), std::string::npos);
  EXPECT_NE(Text.find("\"x,y\""), std::string::npos);
  EXPECT_NE(Text.find("2.5,-1"), std::string::npos);
}

TEST(CsvTest, SaveToFileRoundTrips) {
  CsvWriter Csv({"v"});
  Csv.addRow(std::vector<double>{1.25});
  const std::string Path = "/tmp/psg_csv_test.csv";
  ASSERT_TRUE(Csv.saveToFile(Path));
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  char Buffer[64] = {};
  const size_t ReadCount = std::fread(Buffer, 1, sizeof(Buffer) - 1, File);
  std::fclose(File);
  EXPECT_EQ(std::string(Buffer, ReadCount), "v\n1.25\n");
}

TEST(CsvTest, SaveToBadPathFails) {
  CsvWriter Csv({"v"});
  EXPECT_FALSE(Csv.saveToFile("/nonexistent-dir/file.csv"));
}

//===----------------------------------------------------------------------===//
// Logging and timing.
//===----------------------------------------------------------------------===//

TEST(LoggingTest, LevelRoundTrips) {
  const LogLevel Old = logLevel();
  setLogLevel(LogLevel::Debug);
  EXPECT_EQ(logLevel(), LogLevel::Debug);
  setLogLevel(Old);
}

TEST(TimerTest, MeasuresNonNegativeMonotonicTime) {
  WallTimer T;
  const double A = T.seconds();
  const double B = T.seconds();
  EXPECT_GE(A, 0.0);
  EXPECT_GE(B, A);
  T.restart();
  EXPECT_LE(T.seconds(), B + 1.0);
}
