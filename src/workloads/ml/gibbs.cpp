#include "workloads/ml/gibbs.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace tsx::workloads::ml {

GibbsTable build_gibbs_table(const std::vector<double>& counts, int topics,
                             std::size_t vocab) {
  TSX_CHECK(topics > 0, "gibbs table needs topics");
  const auto k_topics = static_cast<std::size_t>(topics);
  TSX_CHECK(counts.size() == k_topics * vocab, "count matrix shape mismatch");
  std::vector<double> topic_totals(k_topics, 0.0);
  for (std::size_t k = 0; k < k_topics; ++k)
    for (std::size_t w = 0; w < vocab; ++w)
      topic_totals[k] += counts[k * vocab + w];
  GibbsTable table;
  table.topics = topics;
  table.weight.resize(vocab * k_topics);
  table.total.assign(vocab, 0.0);
  bool positive = true;
  for (std::size_t w = 0; w < vocab; ++w) {
    for (std::size_t k = 0; k < k_topics; ++k) {
      const double weight = counts[k * vocab + w] / topic_totals[k];
      positive = positive && std::isfinite(weight) && weight > 0.0;
      table.weight[w * k_topics + k] = weight;
      table.total[w] += weight;
    }
  }
  TSX_CHECK(positive, "gibbs weights must be finite and > 0");
  return table;
}

void sample_topics(const GibbsTable& table,
                   std::span<const std::uint32_t> words, Rng& rng,
                   std::span<std::uint32_t> chosen) {
  TSX_CHECK(chosen.size() == words.size(), "one topic per token");
  const auto k_topics = static_cast<std::size_t>(table.topics);
  const std::uint32_t last = static_cast<std::uint32_t>(k_topics) - 1;
  const double* weight = table.weight.data();
  const double* total = table.total.data();
  // Draw through a local copy so the stores to `chosen` cannot alias the
  // generator state; the draws stay one per token, in token order.
  Rng local = rng;
  const std::size_t n = words.size();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const double* w0 = weight + words[t] * k_topics;
    const double* w1 = weight + words[t + 1] * k_topics;
    const double* w2 = weight + words[t + 2] * k_topics;
    const double* w3 = weight + words[t + 3] * k_topics;
    double r0 = local.uniform() * total[words[t]];
    double r1 = local.uniform() * total[words[t + 1]];
    double r2 = local.uniform() * total[words[t + 2]];
    double r3 = local.uniform() * total[words[t + 3]];
    std::uint32_t n0 = 0, n1 = 0, n2 = 0, n3 = 0;
    for (std::size_t k = 0; k < k_topics; ++k) {
      r0 -= w0[k];
      r1 -= w1[k];
      r2 -= w2[k];
      r3 -= w3[k];
      n0 += r0 > 0.0;
      n1 += r1 > 0.0;
      n2 += r2 > 0.0;
      n3 += r3 > 0.0;
    }
    chosen[t] = std::min(n0, last);
    chosen[t + 1] = std::min(n1, last);
    chosen[t + 2] = std::min(n2, last);
    chosen[t + 3] = std::min(n3, last);
  }
  for (; t < n; ++t) {
    const double* w = weight + words[t] * k_topics;
    double r = local.uniform() * total[words[t]];
    std::uint32_t above = 0;
    for (std::size_t k = 0; k < k_topics; ++k) {
      r -= w[k];
      above += r > 0.0;
    }
    chosen[t] = std::min(above, last);
  }
  rng = local;
}

}  // namespace tsx::workloads::ml
