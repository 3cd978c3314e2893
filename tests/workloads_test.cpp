// Tests for data generators, scale planning, and the seven applications'
// functional correctness (each app's own self-validation must pass) and
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "dfs/dfs.hpp"
#include "mem/machine.hpp"
#include "runner/serialize.hpp"
#include "sim/simulator.hpp"
#include "spark/context.hpp"
#include "spark/pair_rdd.hpp"
#include "workloads/apps.hpp"
#include "workloads/datagen.hpp"
#include "workloads/ml/naive_bayes.hpp"
#include "workloads/runner.hpp"
#include "workloads/scales.hpp"
#include "workloads/vocabulary.hpp"

namespace tsx::workloads {
namespace {

// --- scales --------------------------------------------------------------------

TEST(Scales, LabelsRoundTrip) {
  for (const ScaleId s : kAllScales)
    EXPECT_EQ(scale_from_label(to_string(s)), s);
  EXPECT_THROW(scale_from_label("huge"), tsx::Error);
  EXPECT_EQ(scale_from_index(2), ScaleId::kLarge);
}

TEST(Scales, SamplePlanCapsAndMultiplies) {
  const SampledScale full = SampledScale::plan(100, 1000);
  EXPECT_EQ(full.sample, 100u);
  EXPECT_DOUBLE_EQ(full.multiplier, 1.0);
  const SampledScale capped = SampledScale::plan(100000, 1000);
  EXPECT_EQ(capped.sample, 1000u);
  EXPECT_DOUBLE_EQ(capped.multiplier, 100.0);
  EXPECT_THROW(SampledScale::plan(0, 10), tsx::Error);
}

// --- apps registry ----------------------------------------------------------------

TEST(Apps, NamesRoundTripAndCategories) {
  for (const App app : kAllApps)
    EXPECT_EQ(app_from_name(to_string(app)), app);
  EXPECT_EQ(category_of(App::kSort), AppCategory::kMicro);
  EXPECT_EQ(category_of(App::kLda), AppCategory::kMachineLearning);
  EXPECT_EQ(category_of(App::kPagerank), AppCategory::kWebSearch);
  EXPECT_THROW(app_from_name("nosuch"), tsx::Error);
}

// --- datagen -----------------------------------------------------------------------

TEST(Datagen, LinesHaveRequestedShape) {
  Rng rng(3);
  const std::vector<TextLine> lines = random_text_lines(rng, 20);
  ASSERT_EQ(lines.size(), 20u);
  std::set<std::string> keys;
  for (const TextLine& line : lines) {
    const std::string_view text = line.view();
    EXPECT_EQ(text.size(), 100u);
    EXPECT_EQ(text[10], ' ');
    keys.insert(std::string(text.substr(0, 10)));
  }
  EXPECT_GT(keys.size(), 18u);  // keys essentially unique
}

// The string generator the typed lines replaced, kept here as the reference
// they must reproduce draw for draw.
std::string reference_string_line(Rng& rng) {
  static constexpr char kAlphabet[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string line(100, '\0');
  for (std::size_t i = 0; i < 10; ++i)
    line[i] = kAlphabet[rng.uniform_u64(sizeof(kAlphabet) - 1)];
  line[10] = ' ';
  for (std::size_t i = 11; i < 100; ++i)
    line[i] = static_cast<char>('a' + rng.uniform_u64(26));
  return line;
}

TEST(Datagen, TextLinesMatchStringLineDraws) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 101ULL, 0xdeadbeefULL}) {
    Rng typed_rng(seed);
    Rng string_rng(seed);
    const std::vector<TextLine> lines = random_text_lines(typed_rng, 1000);
    ASSERT_EQ(lines.size(), 1000u);
    for (const TextLine& line : lines) {
      const std::string expected = reference_string_line(string_rng);
      ASSERT_EQ(line.view(), expected) << "seed " << seed;
      // The keyed form splits and rejoins to the same string.
      const std::pair<LineKey, LineTail> kv = split_key(line);
      EXPECT_EQ(kv.first.view(), expected.substr(0, 10));
      EXPECT_EQ(kv.second.view(), expected.substr(10));
      EXPECT_EQ(join_line(kv), expected);
    }
    EXPECT_EQ(typed_rng.next_u64(), string_rng.next_u64()) << "seed " << seed;
  }
  Rng empty_rng(9);
  Rng untouched(9);
  EXPECT_TRUE(random_text_lines(empty_rng, 0).empty());
  EXPECT_EQ(empty_rng.next_u64(), untouched.next_u64());
}

TEST(Datagen, TextRecordSizesMatchStrings) {
  using spark::est_bytes;
  const std::string line(100, 'x');
  Rng rng(11);
  const TextLine typed = random_text_lines(rng, 1).front();
  const std::pair<LineKey, LineTail> kv = split_key(typed);
  EXPECT_EQ(est_bytes(typed), est_bytes(line));
  EXPECT_EQ(est_bytes(typed), 108.0);
  EXPECT_EQ(est_bytes(kv.first), est_bytes(line.substr(0, 10)));
  EXPECT_EQ(est_bytes(kv.first), 18.0);
  EXPECT_EQ(est_bytes(kv.second), est_bytes(line.substr(10)));
  EXPECT_EQ(est_bytes(kv.second), 98.0);
  EXPECT_EQ(est_bytes(kv),
            est_bytes(std::make_pair(line.substr(0, 10), line.substr(10))));
  EXPECT_EQ(est_bytes(kv), 116.0);
  // Repartition keys each line with a u64 before its shuffle.
  EXPECT_EQ(est_bytes(std::make_pair(std::uint64_t{3}, typed)),
            est_bytes(std::make_pair(std::uint64_t{3}, line)));
}

TEST(Datagen, LineKeyOrderMatchesStringOrder) {
  auto key_of = [](const std::string& s) {
    LineKey k;
    std::copy(s.begin(), s.end(), k.chars.begin());
    return k;
  };
  auto expect_same_order = [&](const std::string& a, const std::string& b) {
    const LineKey ka = key_of(a);
    const LineKey kb = key_of(b);
    EXPECT_EQ(ka < kb, a < b) << a << " vs " << b;
    EXPECT_EQ(ka > kb, a > b) << a << " vs " << b;
    EXPECT_EQ(!(ka < kb) && !(kb < ka), a == b) << a << " vs " << b;
  };
  // Random keys over a small alphabet that includes bytes above 0x7f (a
  // negative signed char), so shared prefixes and the unsigned comparison
  // both occur often.
  static constexpr char kChars[] = {'A', 'B', '0', 'z', '\x80', '\xff'};
  Rng rng(17);
  auto random_key = [&] {
    std::string s(10, ' ');
    for (char& c : s) c = kChars[rng.uniform_u64(sizeof(kChars))];
    return s;
  };
  for (int i = 0; i < 100000; ++i) {
    const std::string a = random_key();
    std::string b = random_key();
    if (i % 4 == 0) b = a;                                  // equal keys
    if (i % 4 == 1) b.replace(0, 1 + i % 9, a, 0, 1 + i % 9);  // shared prefix
    expect_same_order(a, b);
  }
  expect_same_order("AAAAAAAAAA", "AAAAAAAAAB");
  expect_same_order("ZZZZZZZZZ9", "ZZZZZZZZZA");
  expect_same_order(std::string(10, '\x7f'), std::string(10, '\x80'));
}

TEST(Datagen, RatingsWithinDomain) {
  Rng rng(5);
  const auto ratings = random_ratings(rng, 500, 50, 70);
  for (const Rating& r : ratings) {
    EXPECT_LT(r.user, 50u);
    EXPECT_LT(r.product, 70u);
    EXPECT_GE(r.score, 1.0f);
    EXPECT_LE(r.score, 5.0f);
  }
}

TEST(Datagen, PointsHaveBalancedLabelsAndSignal) {
  Rng rng(7);
  const auto points = random_points(rng, 400, 50);
  int positives = 0;
  for (const auto& p : points) {
    EXPECT_EQ(p.features.size(), 50u);
    positives += p.label > 0.5f ? 1 : 0;
  }
  EXPECT_GT(positives, 80);
  EXPECT_LT(positives, 320);
}

TEST(Datagen, GraphRowsValidTargets) {
  Rng rng(9);
  const ZipfSampler targets(100, 1.0);
  const auto rows = random_graph_rows(rng, 10, 20, 100, targets, 6);
  ASSERT_EQ(rows.size(), 20u);
  for (const auto& [page, links] : rows) {
    EXPECT_GE(page, 10u);
    EXPECT_LT(page, 30u);
    EXPECT_FALSE(links.empty());
    for (const auto t : links) {
      EXPECT_LT(t, 100u);
      EXPECT_NE(t, page);  // no self-links
    }
    // Unique (sorted-unique by construction).
    EXPECT_TRUE(std::is_sorted(links.begin(), links.end()));
  }
}

TEST(Datagen, DocumentsUseZipfVocabulary) {
  Rng rng(11);
  const ZipfSampler vocab(1000, 1.2);
  const auto doc = random_document(rng, vocab, 500);
  EXPECT_EQ(doc.size(), 500u);
  std::size_t head = 0;
  for (const auto& w : doc)
    if (w == "w0" || w == "w1" || w == "w2") ++head;
  EXPECT_GT(head, 25u);  // head words dominate
}

// --- typed vocabulary tokens ------------------------------------------------------

std::string word_string(std::uint32_t rank) {
  return "w" + std::to_string(rank);
}

TEST(Vocabulary, HashAndBytesMatchTheStrings) {
  for (std::uint32_t r = 0; r < kVocabulary; ++r) {
    const std::string s = word_string(r);
    const std::size_t h = std::hash<std::string>{}(s);
    ASSERT_EQ(vocabulary()[r].hash, h) << s;
    ASSERT_EQ(spark::TsxHash<Word>{}(Word{r}), h) << s;
    ASSERT_EQ(spark::TsxHash<std::string>{}(s), h) << s;
    // Pair keys (the bayes shuffle key) combine to the same hash too.
    for (const int cls : {0, 7, 99}) {
      using TypedKey = std::pair<int, Word>;
      using StringKey = std::pair<int, std::string>;
      ASSERT_EQ(spark::TsxHash<TypedKey>{}(TypedKey(cls, Word{r})),
                spark::TsxHash<StringKey>{}(StringKey(cls, s)))
          << s;
    }
    ASSERT_EQ(est_bytes(Word{r}), spark::est_bytes(s)) << s;
  }
}

TEST(Vocabulary, OrderMatchesStringOrder) {
  const auto same_order = [](std::uint32_t a, std::uint32_t b) {
    const std::string sa = word_string(a);
    const std::string sb = word_string(b);
    return (Word{a} < Word{b}) == (sa < sb) &&
           (Word{b} < Word{a}) == (sb < sa) &&
           (Word{a} == Word{b}) == (sa == sb);
  };
  for (std::uint32_t r = 0; r + 1 < kVocabulary; ++r)
    ASSERT_TRUE(same_order(r, r + 1)) << r;
  // Neighbours in string order ("w10" < "w100" < "w1000" < "w1001" ...).
  std::vector<std::uint32_t> by_string(kVocabulary);
  for (std::uint32_t r = 0; r < kVocabulary; ++r) by_string[r] = r;
  std::sort(by_string.begin(), by_string.end(),
            [](std::uint32_t a, std::uint32_t b) {
              return word_string(a) < word_string(b);
            });
  for (std::size_t i = 0; i + 1 < by_string.size(); ++i)
    ASSERT_TRUE(Word{by_string[i]} < Word{by_string[i + 1]}) << i;
  EXPECT_TRUE(Word{10} < Word{2});
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_u64(kVocabulary));
    const auto b = static_cast<std::uint32_t>(rng.uniform_u64(kVocabulary));
    ASSERT_TRUE(same_order(a, b)) << a << " vs " << b;
  }
}

// The bayes workload's pages, as (label, tokens), drawn the way its
// generator draws them.
template <typename Token, typename MakeToken>
std::vector<std::pair<int, std::vector<Token>>> bayes_pages(
    std::uint64_t seed, std::size_t pages, int classes, MakeToken make) {
  Rng rng(seed);
  const ZipfSampler sampler(kVocabulary, 1.1);
  std::vector<std::pair<int, std::vector<Token>>> out(pages);
  for (auto& [label, tokens] : out) {
    label = static_cast<int>(
        rng.uniform_u64(static_cast<std::uint64_t>(classes)));
    for (std::size_t t = 0; t < 40; ++t)
      tokens.push_back(make(static_cast<std::uint32_t>(
          (sampler(rng) + static_cast<std::uint64_t>(label) * 37) %
          kVocabulary)));
  }
  return out;
}

// ((class, token), count) through the engine's combining shuffle, with the
// virtual cost of the job.
template <typename Token>
std::vector<std::pair<std::pair<int, Token>, std::uint64_t>> aggregate(
    const std::vector<std::pair<int, std::vector<Token>>>& pages,
    spark::JobMetrics& jm) {
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  dfs::Dfs fs;
  spark::SparkConf conf;
  spark::SparkContext sc(machine, fs, conf, 42);
  auto class_word = spark::flat_map_rdd(
      spark::cache_rdd(spark::parallelize(sc, pages, 8)),
      [](const std::pair<int, std::vector<Token>>& page) {
        std::vector<std::pair<std::pair<int, Token>, std::uint64_t>> out;
        for (const Token& t : page.second)
          out.emplace_back(std::make_pair(page.first, t), std::uint64_t{1});
        return out;
      });
  return spark::collect(
      spark::reduce_by_key(
          std::move(class_word),
          [](std::uint64_t a, std::uint64_t b) { return a + b; }),
      &jm);
}

// The string model builder and classifier the typed ones replaced: a class x
// rank table filled from parsed "w<rank>" words.
std::vector<std::vector<double>> string_log_likelihood(
    const std::vector<std::pair<std::pair<int, std::string>, std::uint64_t>>&
        counts,
    int classes, std::size_t vocabulary) {
  std::vector<double> class_tokens(static_cast<std::size_t>(classes), 0.0);
  for (const auto& [key, n] : counts)
    class_tokens[static_cast<std::size_t>(key.first)] +=
        static_cast<double>(n);
  std::vector<std::vector<double>> ll(static_cast<std::size_t>(classes));
  for (std::size_t c = 0; c < ll.size(); ++c)
    ll[c].assign(vocabulary,
                 std::log(1.0 / (class_tokens[c] +
                                 static_cast<double>(vocabulary))));
  for (const auto& [key, n] : counts) {
    const auto c = static_cast<std::size_t>(key.first);
    ll[c][std::stoul(key.second.substr(1))] =
        std::log((static_cast<double>(n) + 1.0) /
                 (class_tokens[c] + static_cast<double>(vocabulary)));
  }
  return ll;
}

int string_classify(const std::vector<double>& log_prior,
                    const std::vector<std::vector<double>>& ll,
                    const std::vector<std::string>& tokens) {
  int best = 0;
  double best_score = -1e300;
  for (std::size_t c = 0; c < ll.size(); ++c) {
    double score = log_prior[c];
    for (const auto& t : tokens) score += ll[c][std::stoul(t.substr(1))];
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(c);
    }
  }
  return best;
}

TEST(Vocabulary, TypedBayesPipelineMatchesStringPipeline) {
  for (const int classes : {10, 100}) {
    const std::uint64_t seed = 900 + static_cast<std::uint64_t>(classes);
    const std::size_t n_pages = 1500;
    const auto typed = bayes_pages<Word>(
        seed, n_pages, classes, [](std::uint32_t r) { return Word{r}; });
    const auto strings = bayes_pages<std::string>(seed, n_pages, classes,
                                                  word_string);

    spark::JobMetrics typed_jm;
    spark::JobMetrics string_jm;
    const auto typed_counts = aggregate(typed, typed_jm);
    const auto string_counts = aggregate(strings, string_jm);
    // Same records in the same order: partitioning and key order agree.
    ASSERT_EQ(typed_counts.size(), string_counts.size());
    for (std::size_t i = 0; i < typed_counts.size(); ++i) {
      ASSERT_EQ(typed_counts[i].first.first, string_counts[i].first.first);
      ASSERT_EQ(word_string(typed_counts[i].first.second.rank),
                string_counts[i].first.second)
          << i;
      ASSERT_EQ(typed_counts[i].second, string_counts[i].second);
    }
    // Same bytes charged: the simulated job is identical.
    EXPECT_EQ(typed_jm.duration(), string_jm.duration());
    EXPECT_EQ(typed_jm.num_tasks, string_jm.num_tasks);
    EXPECT_EQ(typed_jm.total_cost.cpu_seconds,
              string_jm.total_cost.cpu_seconds);
    EXPECT_EQ(typed_jm.total_cost.stream_read(),
              string_jm.total_cost.stream_read());
    EXPECT_EQ(typed_jm.total_cost.stream_write(),
              string_jm.total_cost.stream_write());
    EXPECT_EQ(typed_jm.total_cost.dep_reads, string_jm.total_cost.dep_reads);
    EXPECT_EQ(typed_jm.total_cost.dep_writes,
              string_jm.total_cost.dep_writes);

    std::vector<std::pair<int, std::uint64_t>> priors(
        static_cast<std::size_t>(classes));
    for (int c = 0; c < classes; ++c)
      priors[static_cast<std::size_t>(c)] = {c, 0};
    for (const auto& page : typed)
      ++priors[static_cast<std::size_t>(page.first)].second;
    const ml::NaiveBayesModel model = ml::build_naive_bayes(
        typed_counts, priors, classes, n_pages, kVocabulary);
    const auto ll = string_log_likelihood(string_counts, classes, kVocabulary);
    for (std::size_t r = 0; r < kVocabulary; ++r)
      for (std::size_t c = 0; c < ll.size(); ++c)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(
                      model.log_likelihood[r * ll.size() + c]),
                  std::bit_cast<std::uint64_t>(ll[c][r]))
            << "rank " << r << " class " << c;
    for (std::size_t i = 0; i < n_pages; ++i)
      ASSERT_EQ(ml::classify(model, typed[i].second),
                string_classify(model.log_prior, ll, strings[i].second))
          << "page " << i;
  }
}

// --- per-app functional validation -----------------------------------------------

class AppValidation : public ::testing::TestWithParam<App> {};

TEST_P(AppValidation, TinyScalePassesSelfCheck) {
  RunConfig cfg;
  cfg.app = GetParam();
  cfg.scale = ScaleId::kTiny;
  const RunResult r = run_workload(cfg);
  EXPECT_TRUE(r.valid) << r.validation;
  EXPECT_GT(r.exec_time.sec(), 0.0);
  EXPECT_GT(r.tasks, 0u);
}

TEST_P(AppValidation, SmallScalePassesSelfCheck) {
  RunConfig cfg;
  cfg.app = GetParam();
  cfg.scale = ScaleId::kSmall;
  const RunResult r = run_workload(cfg);
  EXPECT_TRUE(r.valid) << r.validation;
}

TEST_P(AppValidation, DeterministicAcrossRuns) {
  RunConfig cfg;
  cfg.app = GetParam();
  cfg.scale = ScaleId::kTiny;
  const RunResult a = run_workload(cfg);
  const RunResult b = run_workload(cfg);
  EXPECT_DOUBLE_EQ(a.exec_time.sec(), b.exec_time.sec());
  EXPECT_DOUBLE_EQ(a.total_cost.cpu_seconds, b.total_cost.cpu_seconds);
  EXPECT_EQ(a.nvdimm.media_writes, b.nvdimm.media_writes);
}

TEST_P(AppValidation, SeedChangesDataNotValidity) {
  RunConfig cfg;
  cfg.app = GetParam();
  cfg.scale = ScaleId::kTiny;
  cfg.seed = 777;
  const RunResult r = run_workload(cfg);
  EXPECT_TRUE(r.valid) << r.validation;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppValidation,
                         ::testing::ValuesIn(kAllApps),
                         [](const ::testing::TestParamInfo<App>& info) {
                           return to_string(info.param);
                         });

// --- runner ------------------------------------------------------------------------

TEST(Runner, ResultCarriesAllInstruments) {
  RunConfig cfg;
  cfg.app = App::kBayes;
  cfg.scale = ScaleId::kTiny;
  cfg.tier = mem::TierId::kTier2;
  const RunResult r = run_workload(cfg);
  EXPECT_EQ(r.traffic.size(), 4u);
  EXPECT_GT(r.nvdimm.total_media_ops(), 0u);  // bound to NVM
  EXPECT_EQ(r.energy.size(), 4u);
  EXPECT_GT(r.bound_node_energy_per_dimm().j(), 0.0);
  EXPECT_GT(r.wear.lifetime_fraction_used, 0.0);
  EXPECT_GT(r.events[metrics::SysEvent::kInstructions], 0.0);
  EXPECT_FALSE(r.config.describe().empty());
}

TEST(Runner, DramRunTouchesNoNvm) {
  RunConfig cfg;
  cfg.app = App::kSort;
  cfg.scale = ScaleId::kTiny;
  cfg.tier = mem::TierId::kTier0;
  const RunResult r = run_workload(cfg);
  EXPECT_EQ(r.nvdimm.total_media_ops(), 0u);
  EXPECT_DOUBLE_EQ(r.wear.lifetime_fraction_used, 0.0);
}

TEST(Runner, RepeatsVarySeedsDeterministically) {
  RunConfig cfg;
  cfg.app = App::kRepartition;
  cfg.scale = ScaleId::kTiny;
  const auto runs = run_repeats(cfg, 3);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_NE(runs[0].config.seed, runs[1].config.seed);
  // Same config re-run reproduces identical repeats.
  const auto runs2 = run_repeats(cfg, 3);
  for (int i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(runs[static_cast<std::size_t>(i)].exec_time.sec(),
                     runs2[static_cast<std::size_t>(i)].exec_time.sec());
}

TEST(Runner, ExecutorGridConfigApplies) {
  RunConfig cfg;
  cfg.app = App::kRepartition;
  cfg.scale = ScaleId::kTiny;
  cfg.executors = 4;
  cfg.cores_per_executor = 10;
  const RunResult r = run_workload(cfg);
  EXPECT_TRUE(r.valid);
}

// --- golden outputs -------------------------------------------------------------
//
// FNV-1a of the serialized RunResult for a fixed set of runs: one per app at
// tiny scale on DRAM, plus the two heaviest ML kernels (bayes small, lda
// large) on DRAM and NVM. Host-speed changes must leave every byte alone; a
// deliberate model change updates these values and says so in CHANGES.md.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct GoldenRun {
  App app;
  ScaleId scale;
  mem::TierId tier;
  std::uint64_t json_fnv1a;
};

TEST(Runner, GoldenOutputsAreByteStable) {
  const GoldenRun golden[] = {
      {App::kSort, ScaleId::kTiny, mem::TierId::kTier0, 0xe6bc1bc11193856dULL},
      {App::kRepartition, ScaleId::kTiny, mem::TierId::kTier0,
       0x2e9ca3d7185b8c7dULL},
      {App::kAls, ScaleId::kTiny, mem::TierId::kTier0, 0xbd17e6770f5597d3ULL},
      {App::kBayes, ScaleId::kTiny, mem::TierId::kTier0,
       0x2af296bffda01977ULL},
      {App::kRf, ScaleId::kTiny, mem::TierId::kTier0, 0xfa0ccd46342559c7ULL},
      {App::kLda, ScaleId::kTiny, mem::TierId::kTier0, 0xa02fd177108e3f33ULL},
      {App::kPagerank, ScaleId::kTiny, mem::TierId::kTier0,
       0xa2fdebd44cba2e79ULL},
      {App::kBayes, ScaleId::kSmall, mem::TierId::kTier0,
       0x48338332b1b71f5bULL},
      {App::kBayes, ScaleId::kSmall, mem::TierId::kTier2,
       0x9218dd41bdfe01bfULL},
      {App::kLda, ScaleId::kLarge, mem::TierId::kTier0, 0xf838c9d90f54caa3ULL},
      {App::kLda, ScaleId::kLarge, mem::TierId::kTier2, 0xd92b7b6375de3ae8ULL},
      {App::kSort, ScaleId::kLarge, mem::TierId::kTier0,
       0x071bf30fc72d2e1eULL},
      {App::kSort, ScaleId::kLarge, mem::TierId::kTier2,
       0xd960b2e4437b612cULL},
      {App::kRepartition, ScaleId::kLarge, mem::TierId::kTier0,
       0x0f92e997f3a15b74ULL},
      {App::kRepartition, ScaleId::kLarge, mem::TierId::kTier2,
       0x941e2b046b671f8cULL},
      {App::kPagerank, ScaleId::kLarge, mem::TierId::kTier0,
       0xfee31ede2516e6a9ULL},
      {App::kPagerank, ScaleId::kLarge, mem::TierId::kTier2,
       0x066b649ab747fa83ULL},
  };
  for (const GoldenRun& g : golden) {
    RunConfig cfg;
    cfg.app = g.app;
    cfg.scale = g.scale;
    cfg.tier = g.tier;
    EXPECT_EQ(fnv1a(runner::to_json(run_workload(cfg))), g.json_fnv1a)
        << cfg.describe();
  }
}

}  // namespace
}  // namespace tsx::workloads
