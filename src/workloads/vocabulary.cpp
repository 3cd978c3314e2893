#include "workloads/vocabulary.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <string>
#include <vector>

namespace tsx::workloads::detail {

const VocabularyEntry* build_vocabulary() {
  static std::array<VocabularyEntry, kVocabulary> table;
  std::vector<std::string> words(kVocabulary);
  for (std::uint32_t r = 0; r < kVocabulary; ++r) {
    words[r] = "w" + std::to_string(r);
    table[r].hash = std::hash<std::string>{}(words[r]);
    table[r].bytes = static_cast<std::uint32_t>(8 + words[r].size());
  }
  std::vector<std::uint32_t> by_string(kVocabulary);
  std::iota(by_string.begin(), by_string.end(), 0U);
  std::sort(by_string.begin(), by_string.end(),
            [&words](std::uint32_t a, std::uint32_t b) {
              return words[a] < words[b];
            });
  for (std::uint32_t pos = 0; pos < kVocabulary; ++pos)
    table[by_string[pos]].order = pos;
  return table.data();
}

}  // namespace tsx::workloads::detail
