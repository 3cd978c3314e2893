#include "workloads/ml/naive_bayes.hpp"

#include <cmath>
#include <cstdlib>

#include "core/error.hpp"

namespace tsx::workloads::ml {

namespace {
std::size_t rank_of(const std::string& word) {
  TSX_CHECK(!word.empty() && word[0] == 'w', "words must be 'w<rank>'");
  return static_cast<std::size_t>(
      std::strtoull(word.c_str() + 1, nullptr, 10));
}
}  // namespace

NaiveBayesModel build_naive_bayes(
    const std::vector<std::pair<std::pair<int, std::string>, std::uint64_t>>&
        class_word_counts,
    const std::vector<std::pair<int, std::uint64_t>>& class_doc_counts,
    int classes, std::size_t documents, std::size_t vocabulary) {
  TSX_CHECK(classes > 0 && documents > 0 && vocabulary > 0,
            "degenerate naive Bayes dimensions");
  NaiveBayesModel model;
  model.vocabulary = vocabulary;
  model.log_prior.assign(static_cast<std::size_t>(classes), std::log(1e-9));
  for (const auto& [cls, n] : class_doc_counts) {
    TSX_CHECK(cls >= 0 && cls < classes, "class out of range");
    model.log_prior[static_cast<std::size_t>(cls)] =
        std::log(static_cast<double>(n) / static_cast<double>(documents));
  }

  std::vector<double> class_tokens(static_cast<std::size_t>(classes), 0.0);
  for (const auto& [key, n] : class_word_counts)
    class_tokens[static_cast<std::size_t>(key.first)] +=
        static_cast<double>(n);

  model.log_likelihood.resize(static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c) {
    model.log_likelihood[static_cast<std::size_t>(c)].assign(
        vocabulary,
        std::log(1.0 / (class_tokens[static_cast<std::size_t>(c)] +
                        static_cast<double>(vocabulary))));
  }
  for (const auto& [key, n] : class_word_counts) {
    const std::size_t rank = rank_of(key.second);
    TSX_CHECK(rank < vocabulary, "word rank exceeds vocabulary");
    model.log_likelihood[static_cast<std::size_t>(key.first)][rank] =
        std::log((static_cast<double>(n) + 1.0) /
                 (class_tokens[static_cast<std::size_t>(key.first)] +
                  static_cast<double>(vocabulary)));
  }
  return model;
}

int classify(const NaiveBayesModel& model,
             const std::vector<std::string>& tokens) {
  int best = 0;
  // Each token's rank is parsed once per document, not once per class; the
  // per-class sums still add the same terms in token order.
  thread_local std::vector<std::size_t> ranks;
  ranks.clear();
  for (const auto& t : tokens) ranks.push_back(rank_of(t));
  double best_score = -1e300;
  for (int c = 0; c < model.classes(); ++c) {
    double score = model.log_prior[static_cast<std::size_t>(c)];
    const auto& row = model.log_likelihood[static_cast<std::size_t>(c)];
    for (const std::size_t r : ranks) score += row[r];
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

}  // namespace tsx::workloads::ml
