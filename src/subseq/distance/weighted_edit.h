// Weighted edit distance — the biological variant the paper's related
// work points at (BLAST approximates "variations of the Edit distance,
// with appropriate weights"; Smith-Waterman / Needleman-Wunsch scoring).
//
// The distance is metric iff the per-symbol cost model is itself a metric
// on the alphabet extended with the gap symbol; SubstitutionCostModel
// validates exactly that at construction. Consistency holds for any
// non-negative cost model (the Section 4 sum-alignment argument).

#ifndef SUBSEQ_DISTANCE_WEIGHTED_EDIT_H_
#define SUBSEQ_DISTANCE_WEIGHTED_EDIT_H_

#include <array>
#include <span>
#include <string>

#include "subseq/core/status.h"
#include "subseq/distance/alignment.h"
#include "subseq/distance/distance.h"

namespace subseq {

/// Symmetric per-symbol substitution/gap costs over a byte alphabet.
class SubstitutionCostModel {
 public:
  /// Builds and validates a model. `alphabet` lists the admissible
  /// symbols; `substitution` is row-major |alphabet| x |alphabet|;
  /// `gap` has one entry per symbol. Fails unless the extended cost
  /// function is a metric: zero diagonal, symmetry, positivity off the
  /// diagonal, positive gap costs, and all triangle inequalities among
  /// substitutions and gaps.
  static Result<SubstitutionCostModel> Create(
      std::string alphabet, std::vector<double> substitution,
      std::vector<double> gap);

  /// Unit costs over the given alphabet (== classic Levenshtein).
  static SubstitutionCostModel UnitCosts(std::string alphabet);

  /// A simple biochemical model over the 20 amino acids: substitutions
  /// within the same physicochemical group cost 0.5, across groups 1.0,
  /// gaps 0.8 (triangle-valid by construction).
  static SubstitutionCostModel ProteinClasses();

  /// Cost of substituting a with b (0 if equal).
  double Substitution(char a, char b) const;
  /// Cost of deleting / inserting a.
  double Gap(char a) const;
  /// True if the symbol is part of the alphabet.
  bool Admits(char c) const;

  /// Index of a symbol in the alphabet, -1 when not admitted. The raw
  /// table accessors below are keyed by these indices; the DP kernels
  /// gather rows directly instead of per-cell Substitution() calls.
  int16_t IndexOf(char c) const {
    return symbol_index_[static_cast<unsigned char>(c)];
  }
  /// Row `ia` of the substitution matrix (|alphabet| entries).
  const double* SubstitutionRow(int16_t ia) const {
    return substitution_.data() +
           static_cast<size_t>(ia) * alphabet_.size();
  }
  /// Gap cost table indexed by symbol index.
  const double* gap_data() const { return gap_.data(); }

  const std::string& alphabet() const { return alphabet_; }

 private:
  SubstitutionCostModel() = default;

  std::string alphabet_;
  std::array<int16_t, 256> symbol_index_;  // -1 when not in the alphabet
  std::vector<double> substitution_;       // row-major over alphabet
  std::vector<double> gap_;
};

/// Edit distance under a SubstitutionCostModel. Elements outside the
/// model's alphabet are rejected via SUBSEQ_CHECK (programming error).
class WeightedEditDistance final : public SequenceDistance<char> {
 public:
  explicit WeightedEditDistance(SubstitutionCostModel model)
      : model_(std::move(model)) {}

  double Compute(std::span<const char> a,
                 std::span<const char> b) const override;

  double ComputeBounded(std::span<const char> a, std::span<const char> b,
                        double upper_bound) const override;

  /// One row DP of a against b, every prefix read off its row.
  void ComputePrefixes(std::span<const char> a, std::span<const char> b,
                       size_t min_len, double* out) const override;

  /// Distance plus an optimal weighted edit script.
  Alignment ComputeWithPath(std::span<const char> a,
                            std::span<const char> b) const;

  std::string_view name() const override { return "weighted-edit"; }
  bool is_metric() const override { return true; }
  bool is_consistent() const override { return true; }

  const SubstitutionCostModel& model() const { return model_; }

 private:
  // The row DP behind ComputeBounded and ComputePrefixes: rows run over
  // a, so after row i the last column holds the distance of a.first(i)
  // to b; when `prefixes` is non-null, prefixes[i - min_len] receives it
  // for every i >= min_len. Returns +inf once a row minimum exceeds
  // upper_bound, else the distance of the whole of a.
  double Rows(std::span<const char> a, std::span<const char> b,
              double upper_bound, size_t min_len, double* prefixes) const;

  SubstitutionCostModel model_;
};

}  // namespace subseq

#endif  // SUBSEQ_DISTANCE_WEIGHTED_EDIT_H_
