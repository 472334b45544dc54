// The parallel experiment runner: seed derivation, run_indexed (in-index-
// order delivery, exclusive worker indices, crash isolation, cooperative
// timeout cancellation, a throwing consumer stopping the claims) and the
// JSONL writer (escaping, deterministic number formatting, torn-write
// safety under concurrent writers).
#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "runner/jsonl.hpp"
#include "support/testsupport.hpp"

namespace kar::runner {
namespace {

// ---------------------------------------------------------------------------
// common::derive_seed — the factored SplitMix64 seed stream.
// ---------------------------------------------------------------------------

TEST(DeriveSeed, MatchesSplitMix64Reference) {
  // One SplitMix64 step over master + gamma * (index + 1), spelled out.
  const std::uint64_t master = 42;
  for (std::uint64_t index = 0; index < 16; ++index) {
    std::uint64_t z = master + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    EXPECT_EQ(common::derive_seed(master, index), z) << index;
  }
}

TEST(DeriveSeed, IsStableAcrossReleases) {
  // Frozen values: changing them silently would re-seed every recorded
  // campaign. (Replays and JSONL archives reference these seeds.)
  EXPECT_EQ(common::derive_seed(1, 0), 10451216379200822465ULL);
  EXPECT_EQ(common::derive_seed(0x9e3779b97f4a7c15ULL, 7),
            common::derive_seed(0x9e3779b97f4a7c15ULL, 7));
  EXPECT_NE(common::derive_seed(1, 0), common::derive_seed(1, 1));
  EXPECT_NE(common::derive_seed(1, 0), common::derive_seed(2, 0));
}

// ---------------------------------------------------------------------------
// run_indexed.
// ---------------------------------------------------------------------------

TEST(RunIndexed, DeliversOutcomesInIndexOrderUnderParallelism) {
  RunnerConfig config;
  config.jobs = 4;
  std::vector<std::size_t> delivered;
  auto rng = testsupport::make_rng(7, "RunIndexed.Order");
  std::vector<int> delays;
  for (int i = 0; i < 64; ++i) {
    delays.push_back(static_cast<int>(rng.below(3)));
  }
  const RunnerReport report = run_indexed<std::size_t>(
      64, config,
      [&delays](std::size_t index, std::size_t, const CancelToken&) {
        // Scramble completion order.
        std::this_thread::sleep_for(std::chrono::milliseconds(delays[index]));
        return index * 10;
      },
      [&delivered](std::size_t index, IndexedOutcome<std::size_t>&& outcome) {
        ASSERT_TRUE(outcome.status.ok);
        ASSERT_EQ(*outcome.value, index * 10);
        delivered.push_back(index);
      });
  ASSERT_EQ(delivered.size(), 64u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], i) << "out-of-order delivery";
  }
  EXPECT_EQ(report.completed, 64u);
  EXPECT_EQ(report.errored, 0u);
  EXPECT_EQ(report.jobs, 4u);
  EXPECT_EQ(report.run_wall_s.size(), 64u);
}

TEST(RunIndexed, SerialAndParallelFoldIdentically) {
  const auto fold = [](std::size_t jobs) {
    RunnerConfig config;
    config.jobs = jobs;
    double sum = 0.0;  // order-sensitive floating-point fold
    run_indexed<double>(
        200, config,
        [](std::size_t index, std::size_t, const CancelToken&) {
          return 1.0 / static_cast<double>(index + 1);
        },
        [&sum](std::size_t, IndexedOutcome<double>&& outcome) {
          sum += *outcome.value;
        });
    return sum;
  };
  const double serial = fold(1);
  EXPECT_EQ(serial, fold(2));  // bitwise: the fold order is identical
  EXPECT_EQ(serial, fold(8));
}

TEST(RunIndexed, IsolatesThrowingRuns) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    RunnerConfig config;
    config.jobs = jobs;
    std::size_t ok_runs = 0;
    std::size_t failed_runs = 0;
    const RunnerReport report = run_indexed<int>(
        20, config,
        [](std::size_t index, std::size_t, const CancelToken&) {
          if (index % 5 == 3) {
            throw std::runtime_error("bad scenario " + std::to_string(index));
          }
          return static_cast<int>(index);
        },
        [&](std::size_t index, IndexedOutcome<int>&& outcome) {
          if (outcome.status.ok) {
            ++ok_runs;
          } else {
            ++failed_runs;
            EXPECT_FALSE(outcome.value.has_value());
            EXPECT_EQ(outcome.status.error,
                      "bad scenario " + std::to_string(index));
          }
        });
    EXPECT_EQ(ok_runs, 16u) << "jobs=" << jobs;
    EXPECT_EQ(failed_runs, 4u) << "jobs=" << jobs;
    EXPECT_EQ(report.errored, 4u) << "jobs=" << jobs;
  }
}

TEST(RunIndexed, WatchdogCancelsOverdueRuns) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
    RunnerConfig config;
    config.jobs = jobs;
    config.run_timeout_s = 0.05;
    const RunnerReport report = run_indexed<int>(
        1, config,
        [](std::size_t, std::size_t, const CancelToken& token) {
          // A "pathological scenario": loops until cancelled.
          while (!token.cancelled()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return 1;
        },
        [](std::size_t, IndexedOutcome<int>&& outcome) {
          EXPECT_TRUE(outcome.status.ok);
          EXPECT_TRUE(outcome.status.timed_out);
        });
    EXPECT_EQ(report.timed_out, 1u) << "jobs=" << jobs;
  }
}

TEST(RunIndexed, WorkerIndexIsExclusive) {
  // run_campaign keys one campaign world per worker index, so an index must
  // stay below `jobs` and never serve two calls at once.
  for (const std::size_t jobs :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    RunnerConfig config;
    config.jobs = jobs;
    std::vector<std::atomic<bool>> in_use(jobs);
    std::atomic<std::size_t> out_of_range{0};
    std::atomic<std::size_t> shared{0};
    std::atomic<std::size_t> runs{0};
    run_indexed<int>(
        64, config,
        [&](std::size_t index, std::size_t worker, const CancelToken&) {
          if (worker >= jobs) {
            ++out_of_range;
            return 0;
          }
          ++runs;
          if (in_use[worker].exchange(true)) ++shared;
          std::this_thread::sleep_for(
              std::chrono::microseconds(200 * (index % 3)));
          in_use[worker].store(false);
          return 0;
        },
        [](std::size_t, IndexedOutcome<int>&&) {});
    EXPECT_EQ(out_of_range.load(), 0u) << "jobs=" << jobs;
    EXPECT_EQ(shared.load(), 0u) << "jobs=" << jobs;
    EXPECT_EQ(runs.load(), 64u) << "jobs=" << jobs;
  }
}

TEST(RunIndexed, ThrowingConsumeStopsClaimingRuns) {
  constexpr std::size_t kRuns = 200;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    RunnerConfig config;
    config.jobs = jobs;
    std::atomic<std::size_t> executed{0};
    bool caught = false;
    try {
      run_indexed<int>(
          kRuns, config,
          [&executed](std::size_t, std::size_t, const CancelToken&) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ++executed;
            return 0;
          },
          [](std::size_t index, IndexedOutcome<int>&&) {
            if (index == 2) throw std::runtime_error("consumer failed");
          });
    } catch (const std::runtime_error& error) {
      caught = true;
      EXPECT_STREQ(error.what(), "consumer failed");
    }
    EXPECT_TRUE(caught) << "jobs=" << jobs;
    const std::size_t at_return = executed.load();
    EXPECT_LT(at_return, kRuns) << "jobs=" << jobs;
    // Every worker was joined before the exception left: nothing runs on.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(executed.load(), at_return) << "jobs=" << jobs;
  }
}

TEST(RunIndexed, DefaultJobsIsPositive) { EXPECT_GE(default_jobs(), 1u); }

TEST(RunIndexed, HandlesZeroRuns) {
  RunnerConfig config;
  config.jobs = 4;
  bool consumed = false;
  const RunnerReport report = run_indexed<int>(
      0, config, [](std::size_t, std::size_t, const CancelToken&) { return 0; },
      [&consumed](std::size_t, IndexedOutcome<int>&&) { consumed = true; });
  EXPECT_FALSE(consumed);
  EXPECT_EQ(report.completed, 0u);
}

// ---------------------------------------------------------------------------
// JSONL.
// ---------------------------------------------------------------------------

using common::append_json_escaped;
using common::json_double;
using common::json_escape;

TEST(Jsonl, EscapesStrings) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab\r"), "line\\nbreak\\ttab\\r");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 untouched
}

/// Reference escape, one byte at a time.
std::string reference_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(Jsonl, EscapeAgreesWithAppendForEveryByte) {
  std::string appended = "prefix";
  append_json_escaped(appended, "");
  EXPECT_EQ(appended, "prefix");
  EXPECT_EQ(json_escape(""), "");
  for (int b = 0; b <= 0xFF; ++b) {
    const char c = static_cast<char>(b);
    // The byte alone, then between and beside runs of safe bytes.
    for (const std::string& text :
         {std::string(1, c), "ab" + std::string(1, c) + "cd" + c + c + "e",
          std::string(1, c) + "xyz"}) {
      const std::string expected = reference_escape(text);
      EXPECT_EQ(json_escape(text), expected) << "byte " << b;
      std::string out = "{";
      append_json_escaped(out, text);
      EXPECT_EQ(out, "{" + expected) << "byte " << b;
    }
  }
}

TEST(Jsonl, FormatsDoublesDeterministically) {
  EXPECT_EQ(json_double(1.0), "1");
  EXPECT_EQ(json_double(0.5), "0.5");
  EXPECT_EQ(json_double(1.0 / 3.0), json_double(1.0 / 3.0));
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(std::nan("")), "null");
}

TEST(Jsonl, BuildsObjectsInInsertionOrder) {
  JsonObject object;
  object.field("name", "kar").field("runs", std::uint64_t{3})
      .field("rate", 0.25).field("ok", true)
      .raw("nested", "{\"a\":1}");
  EXPECT_EQ(object.str(),
            "{\"name\":\"kar\",\"runs\":3,\"rate\":0.25,\"ok\":true,"
            "\"nested\":{\"a\":1}}");
}

TEST(Jsonl, SplicesPrerenderedFields) {
  JsonObject first;
  first.fields("\"a\":1,\"b\":[2]").field("c", true);
  EXPECT_EQ(first.str(), "{\"a\":1,\"b\":[2],\"c\":true}");
  JsonObject later;
  later.field("c", true).fields("\"a\":1");
  EXPECT_EQ(later.str(), "{\"c\":true,\"a\":1}");
}

TEST(Jsonl, MovedOutTextEqualsCopiedText) {
  JsonObject object(64);
  object.field("key", std::uint64_t{18446744073709551615ULL})
      .field("delta", std::int64_t{-42})
      .field("name", "a\"b");
  object.value("path") += "[\"x\"]";
  const std::string copied = object.str();
  EXPECT_EQ(copied,
            "{\"key\":18446744073709551615,\"delta\":-42,\"name\":\"a\\\"b\","
            "\"path\":[\"x\"]}");
  EXPECT_EQ(std::move(object).str(), copied);
}

TEST(Jsonl, WriterAppendsCompleteLines) {
  std::ostringstream out;
  JsonlWriter writer(out);
  writer.write(JsonObject().field("a", std::uint64_t{1}));
  writer.write("{\"b\":2}");
  EXPECT_EQ(out.str(), "{\"a\":1}\n{\"b\":2}\n");
  EXPECT_EQ(writer.lines_written(), 2u);
}

TEST(Jsonl, ConcurrentWritersNeverTearLines) {
  std::ostringstream out;
  JsonlWriter writer(out);
  constexpr int kThreads = 8;
  constexpr int kRecords = 200;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&writer, t] {
      for (int r = 0; r < kRecords; ++r) {
        JsonObject record;
        record.field("writer", static_cast<std::int64_t>(t))
            .field("record", static_cast<std::int64_t>(r))
            .field("payload", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
        writer.write(record);
      }
    });
  }
  for (std::thread& thread : writers) thread.join();
  // Every line must be a complete, well-formed record; the set of
  // (writer, record) pairs must be exactly kThreads x kRecords.
  std::istringstream in(out.str());
  std::string line;
  std::set<std::pair<int, int>> seen;
  while (std::getline(in, line)) {
    ASSERT_TRUE(line.starts_with("{\"writer\":")) << line;
    ASSERT_TRUE(line.ends_with("\"payload\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}"))
        << "torn line: " << line;
    int writer_id = -1;
    int record_id = -1;
    ASSERT_EQ(std::sscanf(line.c_str(), "{\"writer\":%d,\"record\":%d,",
                          &writer_id, &record_id),
              2)
        << line;
    EXPECT_TRUE(seen.emplace(writer_id, record_id).second)
        << "duplicate line: " << line;
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kThreads * kRecords));
  EXPECT_EQ(writer.lines_written(),
            static_cast<std::size_t>(kThreads * kRecords));
}

}  // namespace
}  // namespace kar::runner
