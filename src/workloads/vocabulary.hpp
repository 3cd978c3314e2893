// Typed vocabulary tokens for the bayes workload.
//
// A bayes document models JVM strings "w<rank>", rank < kVocabulary. The
// engine must see each word exactly as it would see that string: the same
// hash (so the same reduce partition and the same hash-map layout), the
// same key order (so the same bucket and output order; "w10" < "w2") and
// the same sizer bytes (so the same cache, shuffle and collect charges).
// The host, though, carries only a u32 rank. One table, built once for the
// whole vocabulary, holds the three string-derived facts per rank.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace tsx::workloads {

inline constexpr std::uint32_t kVocabulary = 8000;

/// One token: the rank of the word "w<rank>".
struct Word {
  std::uint32_t rank = 0;
};

/// What the string path would compute for "w<rank>".
struct VocabularyEntry {
  std::size_t hash = 0;     ///< std::hash<std::string>
  std::uint32_t order = 0;  ///< position in lexicographic string order
  std::uint32_t bytes = 0;  ///< est_bytes(std::string): 8 + its length
};

namespace detail {
const VocabularyEntry* build_vocabulary();
}  // namespace detail

/// The table for ranks [0, kVocabulary), built on first use.
inline const VocabularyEntry* vocabulary() {
  static const VocabularyEntry* const table = detail::build_vocabulary();
  return table;
}

inline bool operator==(Word a, Word b) { return a.rank == b.rank; }

/// String order of the words, not numeric order of the ranks.
inline std::strong_ordering operator<=>(Word a, Word b) {
  const VocabularyEntry* v = vocabulary();
  return v[a.rank].order <=> v[b.rank].order;
}

/// ADL hook for the Spark sizer: the string's bytes.
inline double est_bytes(Word w) {
  return static_cast<double>(vocabulary()[w.rank].bytes);
}

}  // namespace tsx::workloads

/// The string's hash, so TsxHash<Word> (which defers to std::hash) and every
/// pair hash built on it partition exactly as string keys did.
template <>
struct std::hash<tsx::workloads::Word> {
  std::size_t operator()(tsx::workloads::Word w) const noexcept {
    return tsx::workloads::vocabulary()[w.rank].hash;
  }
};
