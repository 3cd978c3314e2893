#include "workloads/ml/naive_bayes.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "core/error.hpp"

namespace tsx::workloads::ml {

NaiveBayesModel build_naive_bayes(
    const std::vector<std::pair<std::pair<int, Word>, std::uint64_t>>&
        class_word_counts,
    const std::vector<std::pair<int, std::uint64_t>>& class_doc_counts,
    int classes, std::size_t documents, std::size_t vocabulary) {
  TSX_CHECK(classes > 0 && documents > 0 && vocabulary > 0,
            "degenerate naive Bayes dimensions");
  const auto n_classes = static_cast<std::size_t>(classes);
  NaiveBayesModel model;
  model.vocabulary = vocabulary;
  model.log_prior.assign(n_classes, std::log(1e-9));
  for (const auto& [cls, n] : class_doc_counts) {
    TSX_CHECK(cls >= 0 && cls < classes, "class out of range");
    model.log_prior[static_cast<std::size_t>(cls)] =
        std::log(static_cast<double>(n) / static_cast<double>(documents));
  }

  std::vector<double> class_tokens(n_classes, 0.0);
  for (const auto& [key, n] : class_word_counts)
    class_tokens[static_cast<std::size_t>(key.first)] +=
        static_cast<double>(n);

  // Every (word, class) cell starts at its class's unseen-word likelihood.
  std::vector<double> unseen(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c)
    unseen[c] = std::log(
        1.0 / (class_tokens[c] + static_cast<double>(vocabulary)));
  model.log_likelihood.resize(vocabulary * n_classes);
  for (std::size_t r = 0; r < vocabulary; ++r)
    std::copy(unseen.begin(), unseen.end(),
              model.log_likelihood.begin() +
                  static_cast<std::ptrdiff_t>(r * n_classes));
  for (const auto& [key, n] : class_word_counts) {
    const std::size_t rank = key.second.rank;
    TSX_CHECK(rank < vocabulary, "word rank exceeds vocabulary");
    const auto c = static_cast<std::size_t>(key.first);
    model.log_likelihood[rank * n_classes + c] =
        std::log((static_cast<double>(n) + 1.0) /
                 (class_tokens[c] + static_cast<double>(vocabulary)));
  }
  return model;
}

int classify(const NaiveBayesModel& model, const std::vector<Word>& tokens) {
  const auto n_classes = static_cast<std::size_t>(model.classes());
  // All classes advance together over word-major rows, four tokens per
  // pass; each class's sum still adds the same terms in token order.
  thread_local std::vector<double> scores;
  scores.assign(model.log_prior.begin(), model.log_prior.end());
  double* const score = scores.data();
  const auto row = [&](Word w) {
    TSX_CHECK(w.rank < model.vocabulary, "word rank exceeds vocabulary");
    return model.log_likelihood.data() + w.rank * n_classes;
  };
  std::size_t t = 0;
  for (; t + 4 <= tokens.size(); t += 4) {
    const double* r0 = row(tokens[t]);
    const double* r1 = row(tokens[t + 1]);
    const double* r2 = row(tokens[t + 2]);
    const double* r3 = row(tokens[t + 3]);
    for (std::size_t c = 0; c < n_classes; ++c)
      score[c] = (((score[c] + r0[c]) + r1[c]) + r2[c]) + r3[c];
  }
  for (; t < tokens.size(); ++t) {
    const double* r = row(tokens[t]);
    for (std::size_t c = 0; c < n_classes; ++c) score[c] += r[c];
  }
  int best = 0;
  double best_score = -1e300;
  for (std::size_t c = 0; c < n_classes; ++c) {
    if (score[c] > best_score) {
      best_score = score[c];
      best = static_cast<int>(c);
    }
  }
  return best;
}

}  // namespace tsx::workloads::ml
