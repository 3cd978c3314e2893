// Topic sampling kernel for the LDA workload's Gibbs sweep.
//
// Each token of word w draws one uniform u and takes the first topic k at
// which u * total[w] minus w's weights of topics 0..k drops to <= 0, or the
// last topic if it never does. sample_topics scans four tokens in lockstep
// over every topic with no early exit, counting the topics at which the
// remainder is still > 0. Every weight is > 0, so the remainder never rises
// and that count is the first topic at which it is <= 0: the same topic
// from the same subtractions, without a data-dependent branch per topic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.hpp"

namespace tsx::workloads::ml {

/// One iteration's Gibbs conditional, word-major: weight[w * topics + k] =
/// counts[k][w] / (topic k's total count), and total[w] = the sum of word
/// w's weights in topic order.
struct GibbsTable {
  int topics = 0;
  std::vector<double> weight;  ///< vocabulary x topics, row-major
  std::vector<double> total;   ///< per word
};

/// Builds the table from topic-major counts (topics x vocab). Throws
/// tsx::Error unless every weight is finite and > 0, which sample_topics
/// relies on.
GibbsTable build_gibbs_table(const std::vector<double>& counts, int topics,
                             std::size_t vocab);

/// Samples a topic for each word of `words` into `chosen` (same length),
/// drawing one rng.uniform() per token in token order.
void sample_topics(const GibbsTable& table,
                   std::span<const std::uint32_t> words, Rng& rng,
                   std::span<std::uint32_t> chosen);

}  // namespace tsx::workloads::ml
