// Unit tests for the ML kernels the workloads are built from: the ridge
// solver behind ALS, the CART tree behind the random forest, the naive
// Bayes model builder/classifier and the LDA Gibbs topic scan.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "workloads/ml/decision_tree.hpp"
#include "workloads/ml/gibbs.hpp"
#include "workloads/ml/naive_bayes.hpp"
#include "workloads/ml/ridge.hpp"

namespace tsx::workloads::ml {
namespace {

// --- ridge solver -------------------------------------------------------------

TEST(Ridge, DotProduct) {
  const Factor<3> a = {1, 2, 3};
  const Factor<3> b = {4, 5, 6};
  EXPECT_DOUBLE_EQ((dot<3>(a, b)), 32.0);
}

TEST(Ridge, RecoversExactFactorFromCleanObservations) {
  // Other-side factors = identity basis, ratings = target coordinates:
  // with tiny ridge the solution converges to the target factor.
  FactorTable<3> basis = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  std::vector<std::pair<std::uint32_t, float>> obs = {
      {0, 2.0f}, {1, -1.0f}, {2, 0.5f}};
  const Factor<3> x = solve_ridge<3>(obs, basis, 1e-9);
  EXPECT_NEAR(x[0], 2.0, 1e-6);
  EXPECT_NEAR(x[1], -1.0, 1e-6);
  EXPECT_NEAR(x[2], 0.5, 1e-6);
}

TEST(Ridge, RidgeShrinksTowardZero) {
  FactorTable<2> basis = {{1, 0}, {0, 1}};
  std::vector<std::pair<std::uint32_t, float>> obs = {{0, 4.0f}, {1, 4.0f}};
  const Factor<2> strong = solve_ridge<2>(obs, basis, 100.0);
  const Factor<2> weak = solve_ridge<2>(obs, basis, 1e-9);
  EXPECT_LT(std::abs(strong[0]), std::abs(weak[0]));
  EXPECT_NEAR(weak[0], 4.0, 1e-6);
  EXPECT_NEAR(strong[0], 4.0 / 101.0, 1e-9);  // (1+ridge)x = y
}

TEST(Ridge, NoObservationsGivesZero) {
  FactorTable<4> others(10);
  const Factor<4> x = solve_ridge<4>({}, others, 0.1);
  for (const double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Ridge, RejectsBadInput) {
  FactorTable<2> others(2);
  std::vector<std::pair<std::uint32_t, float>> bad = {{7, 1.0f}};
  EXPECT_THROW((solve_ridge<2>(bad, others, 0.1)), tsx::Error);
  EXPECT_THROW((solve_ridge<2>({}, others, 0.0)), tsx::Error);
}

TEST(Ridge, LeastSquaresResidualOrthogonality) {
  // Overdetermined noisy system: the ridge solution with tiny ridge should
  // equal the normal-equation least squares solution; verify by checking
  // the residual is orthogonal to the design columns.
  Rng rng(3);
  FactorTable<2> others;
  std::vector<std::pair<std::uint32_t, float>> obs;
  const Factor<2> truth = {1.5, -0.5};
  for (int i = 0; i < 50; ++i) {
    Factor<2> f = {rng.normal(), rng.normal()};
    others.push_back(f);
    obs.emplace_back(static_cast<std::uint32_t>(i),
                     static_cast<float>(dot<2>(f, truth) + 0.1 * rng.normal()));
  }
  const Factor<2> x = solve_ridge<2>(obs, others, 1e-9);
  double r_dot_c0 = 0.0, r_dot_c1 = 0.0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const double r = obs[i].second - dot<2>(others[i], x);
    r_dot_c0 += r * others[i][0];
    r_dot_c1 += r * others[i][1];
  }
  EXPECT_NEAR(r_dot_c0, 0.0, 1e-6);
  EXPECT_NEAR(r_dot_c1, 0.0, 1e-6);
  EXPECT_NEAR(x[0], truth[0], 0.1);
  EXPECT_NEAR(x[1], truth[1], 0.1);
}

// The pre-hoist solver, kept as the reference: it accumulates all R^2 cells
// of the normal matrix, then eliminates exactly as solve_ridge does.
template <int Rank>
Factor<Rank> reference_solve_ridge(
    const std::vector<std::pair<std::uint32_t, float>>& observations,
    const FactorTable<Rank>& other, double ridge) {
  constexpr auto R = static_cast<std::size_t>(Rank);
  std::array<std::array<double, R>, R> a{};
  Factor<Rank> b{};
  for (std::size_t i = 0; i < R; ++i) a[i][i] = ridge;
  for (const auto& [other_id, score] : observations) {
    const Factor<Rank>& f = other[other_id];
    for (std::size_t i = 0; i < R; ++i) {
      b[i] += f[i] * score;
      for (std::size_t j = 0; j < R; ++j) a[i][j] += f[i] * f[j];
    }
  }
  for (std::size_t col = 0; col < R; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < R; ++row)
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const double d = a[col][col];
    for (std::size_t row = col + 1; row < R; ++row) {
      const double m = a[row][col] / d;
      for (std::size_t j = col; j < R; ++j) a[row][j] -= m * a[col][j];
      b[row] -= m * b[col];
    }
  }
  Factor<Rank> x{};
  for (std::size_t row = R; row-- > 0;) {
    double s = b[row];
    for (std::size_t j = row + 1; j < R; ++j) s -= a[row][j] * x[j];
    x[row] = s / a[row][row];
  }
  return x;
}

template <int Rank>
void expect_ridge_matches_reference(std::uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    FactorTable<Rank> others(40);
    for (auto& f : others)
      for (double& v : f) v = rng.normal(0.0, 1.0 + trial % 3);
    std::vector<std::pair<std::uint32_t, float>> obs;
    const auto count = rng.uniform_u64(60);
    for (std::uint64_t k = 0; k < count; ++k)
      obs.emplace_back(static_cast<std::uint32_t>(rng.uniform_u64(40)),
                       static_cast<float>(rng.uniform(1.0, 5.0)));
    const double ridge = trial % 2 == 0 ? 0.1 : 1e-9;
    const Factor<Rank> got = solve_ridge<Rank>(obs, others, ridge);
    const Factor<Rank> want = reference_solve_ridge<Rank>(obs, others, ridge);
    ASSERT_EQ(std::memcmp(got.data(), want.data(), sizeof got), 0)
        << "rank " << Rank << " trial " << trial;
  }
}

TEST(Ridge, UpperTriangleAccumulationIsBitwiseExact) {
  expect_ridge_matches_reference<2>(101);
  expect_ridge_matches_reference<3>(102);
  expect_ridge_matches_reference<8>(103);
}

// --- decision tree -------------------------------------------------------------

std::vector<LabeledPoint> separable_points(int n, float threshold) {
  // label = features[0] > threshold, feature 1 is noise.
  Rng rng(11);
  std::vector<LabeledPoint> out;
  for (int i = 0; i < n; ++i) {
    LabeledPoint p;
    p.features = {static_cast<float>(rng.uniform(-2, 2)),
                  static_cast<float>(rng.normal())};
    p.label = p.features[0] > threshold ? 1.0f : 0.0f;
    out.push_back(std::move(p));
  }
  return out;
}

TEST(DecisionTree, LearnsAxisAlignedSplit) {
  const auto data = separable_points(400, 0.3f);
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  Rng rng(5);
  const Tree tree = grow_tree(data, idx, {0, 1}, TreeParams{}, rng);

  int correct = 0;
  for (const auto& p : data)
    correct += (tree_predict(tree, p.features) >= 0.5f) ==
                       (p.label >= 0.5f)
                   ? 1
                   : 0;
  EXPECT_GT(static_cast<double>(correct) / data.size(), 0.9);
  EXPECT_GE(tree.nodes[0].feature, 0);  // the root actually split
}

TEST(DecisionTree, PureLeafStopsGrowing) {
  std::vector<LabeledPoint> data(20);
  for (auto& p : data) {
    p.features = {1.0f};
    p.label = 1.0f;  // all positive -> pure
  }
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  Rng rng(7);
  const Tree tree = grow_tree(data, idx, {0}, TreeParams{}, rng);
  EXPECT_EQ(tree.nodes[0].feature, -1);
  EXPECT_FLOAT_EQ(tree.nodes[0].leaf_value, 1.0f);
}

TEST(DecisionTree, RespectsDepthBound) {
  const auto data = separable_points(500, 0.0f);
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  Rng rng(9);
  TreeParams params;
  params.max_depth = 1;
  const Tree tree = grow_tree(data, idx, {0, 1}, params, rng);
  ASSERT_EQ(tree.nodes.size(), 3u);  // 2^(1+1) - 1
  // Children of a depth-1 tree must be leaves.
  if (tree.nodes[0].feature >= 0) {
    EXPECT_EQ(tree.nodes[1].feature, -1);
    EXPECT_EQ(tree.nodes[2].feature, -1);
  }
}

TEST(DecisionTree, DeterministicGivenRngState) {
  const auto data = separable_points(100, 0.1f);
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  Rng a(13), b(13);
  const Tree ta = grow_tree(data, idx, {0, 1}, TreeParams{}, a);
  const Tree tb = grow_tree(data, idx, {0, 1}, TreeParams{}, b);
  ASSERT_EQ(ta.nodes.size(), tb.nodes.size());
  for (std::size_t i = 0; i < ta.nodes.size(); ++i) {
    EXPECT_EQ(ta.nodes[i].feature, tb.nodes[i].feature);
    EXPECT_FLOAT_EQ(ta.nodes[i].threshold, tb.nodes[i].threshold);
  }
}

TEST(DecisionTree, SizerHooks) {
  Tree t;
  t.nodes.resize(7);
  EXPECT_DOUBLE_EQ(est_bytes(t), 16.0 + 12.0 * 7);
  EXPECT_DOUBLE_EQ(est_bytes(TreeNode{}), 12.0);
}

// --- naive Bayes ------------------------------------------------------------------

using ClassWordCounts =
    std::vector<std::pair<std::pair<int, Word>, std::uint64_t>>;

TEST(NaiveBayes, ClassifiesSeparableVocabulary) {
  // Class 0 uses w0/w1, class 1 uses w2/w3.
  const ClassWordCounts counts = {{{0, Word{0}}, 50},
                                  {{0, Word{1}}, 50},
                                  {{1, Word{2}}, 50},
                                  {{1, Word{3}}, 50}};
  std::vector<std::pair<int, std::uint64_t>> docs = {{0, 10}, {1, 10}};
  const NaiveBayesModel model = build_naive_bayes(counts, docs, 2, 20, 4);
  EXPECT_EQ(classify(model, {Word{0}, Word{1}, Word{0}}), 0);
  EXPECT_EQ(classify(model, {Word{2}, Word{3}}), 1);
}

TEST(NaiveBayes, PriorsBreakTies) {
  // Symmetric likelihoods; class 1 has 9x the documents.
  const ClassWordCounts counts = {{{0, Word{0}}, 10}, {{1, Word{0}}, 10}};
  std::vector<std::pair<int, std::uint64_t>> docs = {{0, 1}, {1, 9}};
  const NaiveBayesModel model = build_naive_bayes(counts, docs, 2, 10, 1);
  EXPECT_EQ(classify(model, {Word{0}}), 1);
}

TEST(NaiveBayes, SmoothingHandlesUnseenWords) {
  const ClassWordCounts counts = {{{0, Word{0}}, 100}, {{1, Word{1}}, 100}};
  std::vector<std::pair<int, std::uint64_t>> docs = {{0, 5}, {1, 5}};
  const NaiveBayesModel model = build_naive_bayes(counts, docs, 2, 10, 3);
  // w2 was never seen: likelihoods are smoothed, not -inf; classification
  // still works through the informative token.
  EXPECT_EQ(classify(model, {Word{2}, Word{0}}), 0);
  ASSERT_EQ(model.log_likelihood.size(), 3u * 2u);
  for (int c = 0; c < 2; ++c)
    EXPECT_TRUE(std::isfinite(
        model.log_likelihood[2 * 2 + static_cast<std::size_t>(c)]));
}

TEST(NaiveBayes, RejectsDegenerateDimensions) {
  EXPECT_THROW(build_naive_bayes({}, {}, 0, 10, 5), tsx::Error);
  EXPECT_THROW(build_naive_bayes({}, {}, 2, 0, 5), tsx::Error);
  EXPECT_THROW(build_naive_bayes({}, {}, 2, 10, 0), tsx::Error);
  const ClassWordCounts bad = {{{0, Word{9}}, 1}};
  EXPECT_THROW(build_naive_bayes(bad, {}, 1, 1, 5), tsx::Error);
}

// The reference classifier sums class-major: one class at a time, over every
// token, as the class x rank table did.
int reference_classify(const NaiveBayesModel& model,
                       const std::vector<Word>& tokens) {
  const auto n_classes = static_cast<std::size_t>(model.classes());
  int best = 0;
  double best_score = -1e300;
  for (std::size_t c = 0; c < n_classes; ++c) {
    double score = model.log_prior[c];
    for (const Word t : tokens)
      score += model.log_likelihood[t.rank * n_classes + c];
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(c);
    }
  }
  return best;
}

TEST(NaiveBayes, ClassifyMatchesPerClassParsingReference) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    // Random model; coarse log-likelihoods make exact score ties common, so
    // the first-best tie rule is exercised too.
    NaiveBayesModel model;
    model.vocabulary = 1 + rng.uniform_u64(300);
    const auto classes = 1 + rng.uniform_u64(12);
    for (std::uint64_t c = 0; c < classes; ++c)
      model.log_prior.push_back(-static_cast<double>(rng.uniform_u64(4)));
    model.log_likelihood.resize(model.vocabulary * classes);
    for (double& v : model.log_likelihood)
      v = trial % 2 == 0 ? -static_cast<double>(rng.uniform_u64(3))
                         : std::log(rng.uniform(1e-6, 1.0));
    for (int doc = 0; doc < 40; ++doc) {
      std::vector<Word> tokens(rng.uniform_u64(50));
      for (Word& t : tokens)
        t.rank = static_cast<std::uint32_t>(
            rng.bernoulli(0.1) ? 0 : rng.uniform_u64(model.vocabulary));
      ASSERT_EQ(classify(model, tokens), reference_classify(model, tokens))
          << "trial " << trial << " doc " << doc;
    }
  }
}

TEST(NaiveBayes, ClassifyRejectsMalformedTokens) {
  const ClassWordCounts counts = {{{0, Word{0}}, 3}, {{1, Word{1}}, 3}};
  std::vector<std::pair<int, std::uint64_t>> docs = {{0, 1}, {1, 1}};
  const NaiveBayesModel model = build_naive_bayes(counts, docs, 2, 2, 2);
  EXPECT_THROW(classify(model, {Word{0}, Word{2}}), tsx::Error);
  EXPECT_THROW(classify(model, {Word{kVocabulary}}), tsx::Error);
  EXPECT_EQ(classify(model, {Word{1}}), 1);
  const ClassWordCounts beyond = {{{0, Word{2}}, 1}};
  EXPECT_THROW(build_naive_bayes(beyond, docs, 2, 2, 2), tsx::Error);
}

// --- LDA Gibbs topic scan -------------------------------------------------------

// The early-exit scan the lane scan replaced, kept here as the reference it
// must match: one draw per token, first topic whose remainder is <= 0.
std::uint32_t reference_topic(const GibbsTable& table, std::uint32_t w,
                              Rng& rng) {
  const int topics = table.topics;
  const double* weights =
      &table.weight[static_cast<std::size_t>(w) *
                    static_cast<std::size_t>(topics)];
  double u = rng.uniform() * table.total[w];
  int chosen = topics - 1;
  for (int k = 0; k < topics; ++k) {
    u -= weights[k];
    if (u <= 0.0) {
      chosen = k;
      break;
    }
  }
  return static_cast<std::uint32_t>(chosen);
}

// Samples `words` with both scans from equal rng states; the topics and the
// rng states afterwards must be equal.
void expect_scans_agree(const GibbsTable& table,
                        const std::vector<std::uint32_t>& words, Rng& rng) {
  Rng reference_rng = rng;
  std::vector<std::uint32_t> chosen(words.size());
  sample_topics(table, words, rng, chosen);
  for (std::size_t t = 0; t < words.size(); ++t)
    ASSERT_EQ(chosen[t], reference_topic(table, words[t], reference_rng))
        << "topics " << table.topics << " token " << t << " of "
        << words.size();
  Rng probe = rng;
  EXPECT_EQ(probe.next_u64(), reference_rng.next_u64());
}

TEST(Gibbs, LaneScanMatchesEarlyExitScan) {
  Rng rng(23);
  for (const int topics : {1, 2, 10, 30}) {
    const std::size_t vocab = 40;
    std::vector<double> counts(static_cast<std::size_t>(topics) * vocab);
    for (int table_trial = 0; table_trial < 5; ++table_trial) {
      // Positive counts spanning several orders of magnitude, so some
      // columns are dominated by one topic and others are flat.
      for (double& c : counts)
        c = 0.1 + (rng.bernoulli(0.3) ? rng.uniform(0.0, 500.0)
                                      : static_cast<double>(
                                            rng.uniform_u64(4)));
      const GibbsTable table = build_gibbs_table(counts, topics, vocab);
      for (std::size_t length = 0; length <= 9; ++length) {
        for (int doc = 0; doc < 20; ++doc) {
          std::vector<std::uint32_t> words(length);
          for (std::uint32_t& w : words)
            w = static_cast<std::uint32_t>(rng.uniform_u64(vocab));
          expect_scans_agree(table, words, rng);
        }
      }
    }
  }
}

TEST(Gibbs, BoundaryDrawsMatchEarlyExitScan) {
  // Five tokens: one lane group plus a tail. Word t's table is built from
  // token t's own draw u_t, read off a copy of the rng.
  const std::size_t tokens = 5;
  std::vector<std::uint32_t> words(tokens);
  for (std::size_t t = 0; t < tokens; ++t)
    words[t] = static_cast<std::uint32_t>(t);
  Rng rng(31);
  Rng peek = rng;
  std::vector<double> u(tokens);
  for (double& x : u) {
    x = peek.uniform();
    ASSERT_GT(x, 0.01);
  }

  // u lands exactly on a partial sum: weights u/2, u/2, 1 with total 1, so
  // the remainder is exactly 0 after topic 1, which is chosen.
  GibbsTable on_sum;
  on_sum.topics = 3;
  for (std::size_t t = 0; t < tokens; ++t) {
    on_sum.weight.insert(on_sum.weight.end(), {u[t] / 2, u[t] - u[t] / 2, 1.0});
    on_sum.total.push_back(1.0);
  }
  {
    Rng lanes = rng;
    std::vector<std::uint32_t> chosen(tokens);
    sample_topics(on_sum, words, lanes, chosen);
    for (const std::uint32_t k : chosen) EXPECT_EQ(k, 1u);
    Rng check = rng;
    expect_scans_agree(on_sum, words, check);
  }

  // u * total lies past the last partial sum: the remainder stays > 0 over
  // every topic, and the last topic is chosen.
  for (const int topics : {1, 4, 10}) {
    GibbsTable past;
    past.topics = topics;
    for (std::size_t t = 0; t < tokens; ++t) {
      for (int k = 0; k < topics; ++k) past.weight.push_back(1e-3);
      past.total.push_back(1.0);
    }
    Rng lanes = rng;
    std::vector<std::uint32_t> chosen(tokens);
    sample_topics(past, words, lanes, chosen);
    for (const std::uint32_t k : chosen)
      EXPECT_EQ(k, static_cast<std::uint32_t>(topics - 1));
    Rng check = rng;
    expect_scans_agree(past, words, check);
  }
}

TEST(Gibbs, TableMatchesCountsAndRejectsNonPositiveWeights) {
  const std::vector<double> counts = {1.0, 3.0, 0.5, 2.0, 2.0, 4.0};  // 2x3
  const GibbsTable table = build_gibbs_table(counts, 2, 3);
  ASSERT_EQ(table.weight.size(), 6u);
  for (std::size_t w = 0; w < 3; ++w) {
    double total = 0.0;
    for (std::size_t k = 0; k < 2; ++k) {
      const double expected = counts[k * 3 + w] / (k == 0 ? 4.5 : 8.0);
      EXPECT_EQ(table.weight[w * 2 + k], expected);
      total += expected;
    }
    EXPECT_EQ(table.total[w], total);
  }
  // A zero count gives a zero weight; an empty topic gives 0 / 0.
  EXPECT_THROW(build_gibbs_table({1.0, 0.0, 1.0, 1.0}, 2, 2), tsx::Error);
  EXPECT_THROW(build_gibbs_table({1.0, 1.0, 0.0, 0.0}, 2, 2), tsx::Error);
  EXPECT_THROW(build_gibbs_table({1.0, -1.0, 3.0, 1.0}, 2, 2), tsx::Error);
  EXPECT_THROW(build_gibbs_table({1.0, 1.0, 1.0}, 2, 2), tsx::Error);
  EXPECT_THROW(build_gibbs_table({}, 0, 2), tsx::Error);
}

}  // namespace
}  // namespace tsx::workloads::ml
