// Multinomial naive Bayes model — built at the driver from the ((class,
// word), count) aggregation the bayes workload produces, with Laplace
// smoothing; classification sums log-likelihoods over a document's tokens.
// Words are typed vocabulary tokens (workloads/vocabulary.hpp) whose rank
// indexes a dense word-major likelihood table.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "workloads/vocabulary.hpp"

namespace tsx::workloads::ml {

struct NaiveBayesModel {
  std::vector<double> log_prior;  ///< per class
  /// Word-major: the classes' log-likelihoods of rank r are the `classes()`
  /// entries from r * classes().
  std::vector<double> log_likelihood;
  std::size_t vocabulary = 0;

  int classes() const { return static_cast<int>(log_prior.size()); }
};

/// Builds the model from aggregated ((class, word), count) pairs and per-
/// class document counts. `documents` is the training-set size (for the
/// priors); `vocabulary` bounds the word ranks.
NaiveBayesModel build_naive_bayes(
    const std::vector<std::pair<std::pair<int, Word>, std::uint64_t>>&
        class_word_counts,
    const std::vector<std::pair<int, std::uint64_t>>& class_doc_counts,
    int classes, std::size_t documents, std::size_t vocabulary);

/// Most probable class for a token list: each class's score adds its terms
/// in token order, and the first class with the highest score wins.
int classify(const NaiveBayesModel& model, const std::vector<Word>& tokens);

}  // namespace tsx::workloads::ml
