// HiBench-style data generators.
//
// All generators are pure functions of (parameters, Rng), so a partition's
// data is identical every time it is regenerated — the property the lazy
// RDD sources rely on. Word and page popularity follow Zipf distributions,
// as in HiBench's RandomTextWriter/PagerankData.
//
// Text lines for sort and repartition model 100-byte JVM strings but travel
// as fixed-width records (TextLine, and LineKey/LineTail once keyed). Each
// record's est_bytes is the string's (8-byte header plus payload), and
// LineKey orders exactly as std::string does, so the engine charges and
// sorts them as it would the strings; only the host stops allocating them.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace tsx::workloads {

inline constexpr std::size_t kTextLineWidth = 100;
inline constexpr std::size_t kTextKeyWidth = 10;

/// Fixed-width characters standing in for a string of exactly N bytes.
template <std::size_t N>
struct FixedText {
  std::array<char, N> chars{};

  std::string_view view() const { return {chars.data(), N}; }
};

/// One text line: a kTextKeyWidth-character sortable key from [A-Z0-9], a
/// space, then lowercase filler.
struct TextLine : FixedText<kTextLineWidth> {};
/// A line's sort key (its first kTextKeyWidth characters).
struct LineKey : FixedText<kTextKeyWidth> {};
/// The rest of a line after its key (the space and the filler).
struct LineTail : FixedText<kTextLineWidth - kTextKeyWidth> {};

/// ADL hooks for the Spark sizer: the string's 8-byte header plus payload.
inline double est_bytes(const TextLine&) { return 8.0 + kTextLineWidth; }
inline double est_bytes(const LineKey&) { return 8.0 + kTextKeyWidth; }
inline double est_bytes(const LineTail&) {
  return 8.0 + (kTextLineWidth - kTextKeyWidth);
}

/// std::string order: memcmp compares as unsigned char, as
/// char_traits<char> does.
inline bool operator<(const LineKey& a, const LineKey& b) {
  return std::memcmp(a.chars.data(), b.chars.data(), kTextKeyWidth) < 0;
}
inline bool operator>(const LineKey& a, const LineKey& b) { return b < a; }

/// Splits a line into its sort key and the remainder.
std::pair<LineKey, LineTail> split_key(const TextLine& line);

/// The line as a string: key then tail, 100 characters.
std::string join_line(const std::pair<LineKey, LineTail>& kv);

/// `count` random text lines, one rng draw per character in line order.
std::vector<TextLine> random_text_lines(Rng& rng, std::size_t count);

/// Word "w<k>" with Zipf-distributed k < vocabulary.
std::string zipf_word(Rng& rng, const ZipfSampler& sampler);

/// A document of `tokens` Zipf-distributed words.
std::vector<std::string> random_document(Rng& rng, const ZipfSampler& sampler,
                                         std::size_t tokens);

/// Rating triple for ALS.
struct Rating {
  std::uint32_t user = 0;
  std::uint32_t product = 0;
  float score = 0.0f;
};
double est_bytes(const Rating&);  // ADL hook for the Spark sizer

std::vector<Rating> random_ratings(Rng& rng, std::size_t count,
                                   std::uint32_t users,
                                   std::uint32_t products);

/// Labeled feature vector for the classifier workloads. Labels come from a
/// sparse linear ground-truth model plus noise, so learners have signal.
struct LabeledPoint {
  float label = 0.0f;
  std::vector<float> features;
};
double est_bytes(const LabeledPoint&);

std::vector<LabeledPoint> random_points(Rng& rng, std::size_t count,
                                        std::size_t features);

/// Adjacency row of a web graph: page -> out-links. Link targets are
/// Zipf-distributed (popular pages attract links), in-degree skew included.
using AdjacencyRow = std::pair<std::uint32_t, std::vector<std::uint32_t>>;

std::vector<AdjacencyRow> random_graph_rows(Rng& rng, std::uint32_t first_page,
                                            std::uint32_t count,
                                            std::uint32_t total_pages,
                                            const ZipfSampler& target_sampler,
                                            std::size_t mean_degree = 8);

}  // namespace tsx::workloads
