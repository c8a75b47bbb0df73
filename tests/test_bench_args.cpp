// CLI hardening tests for the shared bench argument parser: malformed
// input must exit with code 2 and a clear message, never run with silently
// defaulted values.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace epi::bench {
namespace {

/// Runs parse_args over a brace-list of arguments (argv[0] supplied).
Args parse(std::vector<std::string> argv_strings) {
  argv_strings.insert(argv_strings.begin(), "bench_under_test");
  std::vector<char*> argv;
  argv.reserve(argv_strings.size());
  for (auto& s : argv_strings) argv.push_back(s.data());
  return parse_args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, DefaultsWhenNoFlags) {
  const Args args = parse({});
  EXPECT_FALSE(args.csv);
  EXPECT_FALSE(args.perf);
  EXPECT_TRUE(args.trace_out.empty());
}

TEST(BenchArgs, ParsesValuesBothSpellings) {
  const Args args = parse({"--reps", "3", "--seed=99", "--threads", "2",
                           "--csv", "--trace-out=/tmp/t.jsonl"});
  EXPECT_EQ(args.options.replications, 3u);
  EXPECT_EQ(args.options.master_seed, 99u);
  EXPECT_EQ(args.options.threads, 2u);
  EXPECT_TRUE(args.csv);
  EXPECT_EQ(args.trace_out, "/tmp/t.jsonl");
}

TEST(BenchArgs, StoreDefaultsOnAtResultsRunstore) {
  const Args args = parse({});
  EXPECT_EQ(args.store_dir, "results/runstore");
  EXPECT_FALSE(args.store_stats);
}

TEST(BenchArgs, StoreFlagsParseBothSpellings) {
  const Args args = parse({"--store", "/tmp/mystore", "--store-stats"});
  EXPECT_EQ(args.store_dir, "/tmp/mystore");
  EXPECT_TRUE(args.store_stats);
  const Args inline_form = parse({"--store=/tmp/other"});
  EXPECT_EQ(inline_form.store_dir, "/tmp/other");
}

TEST(BenchArgs, NoStoreClearsTheDirectory) {
  const Args args = parse({"--no-store"});
  EXPECT_TRUE(args.store_dir.empty());
  // Order matters: the later flag wins either way.
  EXPECT_TRUE(parse({"--store=/tmp/s", "--no-store"}).store_dir.empty());
  EXPECT_EQ(parse({"--no-store", "--store=/tmp/s"}).store_dir, "/tmp/s");
}

TEST(BenchArgsDeathTest, StoreFlagRejectsEmptyAndMissingValues) {
  EXPECT_EXIT(parse({"--store="}), ::testing::ExitedWithCode(2),
              "--store needs a directory");
  EXPECT_EXIT(parse({"--store"}), ::testing::ExitedWithCode(2),
              "missing value for --store");
  EXPECT_EXIT(parse({"--no-store=1"}), ::testing::ExitedWithCode(2),
              "--no-store takes no value");
  EXPECT_EXIT(parse({"--store-stats=yes"}), ::testing::ExitedWithCode(2),
              "--store-stats takes no value");
}

TEST(BenchArgsDeathTest, OutputFileFlagsRejectEmptyNames) {
  for (const char* flag : {"--trace-out=", "--chrome-trace=", "--stats-out="}) {
    EXPECT_EXIT(parse({flag}), ::testing::ExitedWithCode(2),
                "needs a file name");
  }
}

TEST(BenchArgsDeathTest, FlagsABinaryCannotHonourAreRejected) {
  const Args args = parse({"--reps=3", "--csv"});
  EXPECT_EQ(args.flags, (std::vector<std::string>{"--reps", "--csv"}));
  reject_flags(args, {"--seed"});          // none given: returns
  accept_only(args, {"--reps", "--csv"});  // all honoured: returns
  EXPECT_EXIT(reject_flags(args, {"--csv"}), ::testing::ExitedWithCode(2),
              "--csv is not supported");
  EXPECT_EXIT(accept_only(args, {"--reps"}), ::testing::ExitedWithCode(2),
              "--csv is not supported");
}

TEST(BenchArgsDeathTest, BooleanFlagRejectsInlineValue) {
  EXPECT_EXIT(parse({"--csv=nonsense"}), ::testing::ExitedWithCode(2),
              "--csv takes no value");
  EXPECT_EXIT(parse({"--perf=1"}), ::testing::ExitedWithCode(2),
              "--perf takes no value");
}

TEST(BenchArgsDeathTest, NonNumericNumbersRejected) {
  EXPECT_EXIT(parse({"--reps", "abc"}), ::testing::ExitedWithCode(2),
              "invalid value for --reps");
  EXPECT_EXIT(parse({"--seed=12x"}), ::testing::ExitedWithCode(2),
              "invalid value for --seed");
  EXPECT_EXIT(parse({"--threads", "-4"}), ::testing::ExitedWithCode(2),
              "invalid value for --threads");
  EXPECT_EXIT(parse({"--reps", ""}), ::testing::ExitedWithCode(2),
              "invalid value for --reps");
  EXPECT_EXIT(parse({"--reps", "3.5"}), ::testing::ExitedWithCode(2),
              "invalid value for --reps");
}

TEST(BenchArgsDeathTest, MissingValueRejected) {
  EXPECT_EXIT(parse({"--reps"}), ::testing::ExitedWithCode(2),
              "missing value for --reps");
}

TEST(BenchArgsDeathTest, DuplicateFlagRejected) {
  EXPECT_EXIT(parse({"--reps", "3", "--reps", "4"}),
              ::testing::ExitedWithCode(2), "duplicate flag --reps");
  EXPECT_EXIT(parse({"--seed=1", "--seed=2"}), ::testing::ExitedWithCode(2),
              "duplicate flag --seed");
  // Mixed spellings of the same flag are still the same flag.
  EXPECT_EXIT(parse({"--threads", "2", "--threads=4"}),
              ::testing::ExitedWithCode(2), "duplicate flag --threads");
  EXPECT_EXIT(parse({"--csv", "--csv"}), ::testing::ExitedWithCode(2),
              "duplicate flag --csv");
}

TEST(BenchArgs, SummaryCodecFlagsParseBothSpellings) {
  const Args defaults = parse({});
  EXPECT_EQ(defaults.options.options.summary.mode, SummaryMode::kExact);
  EXPECT_EQ(defaults.options.options.summary.filter_bits, 8u);
  EXPECT_EQ(defaults.options.options.summary.hashes, 0u);

  const Args args = parse({"--summary-mode", "bloom", "--filter-bits=12",
                           "--filter-hashes", "5"});
  EXPECT_EQ(args.options.options.summary.mode, SummaryMode::kBloom);
  EXPECT_EQ(args.options.options.summary.filter_bits, 12u);
  EXPECT_EQ(args.options.options.summary.hashes, 5u);
  EXPECT_EQ(parse({"--summary-mode=exact"}).options.options.summary.mode,
            SummaryMode::kExact);
}

TEST(BenchArgsDeathTest, SummaryCodecFlagsRejectBadValues) {
  EXPECT_EXIT(parse({"--summary-mode", "huffman"}),
              ::testing::ExitedWithCode(2),
              "invalid value for --summary-mode");
  EXPECT_EXIT(parse({"--filter-bits", "0"}), ::testing::ExitedWithCode(2),
              "--filter-bits must be in 1..64");
  EXPECT_EXIT(parse({"--filter-bits=65"}), ::testing::ExitedWithCode(2),
              "--filter-bits must be in 1..64");
  EXPECT_EXIT(parse({"--filter-bits", "abc"}), ::testing::ExitedWithCode(2),
              "invalid value for --filter-bits");
  EXPECT_EXIT(parse({"--filter-hashes=17"}), ::testing::ExitedWithCode(2),
              "--filter-hashes must be in 0..16");
  EXPECT_EXIT(parse({"--summary-mode=bloom", "--summary-mode=exact"}),
              ::testing::ExitedWithCode(2), "duplicate flag --summary-mode");
}

TEST(BenchArgsDeathTest, UnknownFlagRejected) {
  EXPECT_EXIT(parse({"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown argument");
}

}  // namespace
}  // namespace epi::bench
