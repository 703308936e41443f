// Copyright 2026 The vfps Authors.
// The matching-cost and space-cost model of Section 3.1 (formulas 3.1/3.2).
// Costs are in abstract "work units per event"; the constants mirror the
// paper's K_r, C_h, K_h and the linear checking assumption. Space is in
// bytes and mirrors our actual data-structure layout, so the optimizer's
// space budget is directly comparable to MemoryUsage() of the matchers.

#ifndef VFPS_COST_COST_MODEL_H_
#define VFPS_COST_COST_MODEL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/core/attribute_set.h"
#include "src/core/subscription.h"
#include "src/cost/event_statistics.h"

namespace vfps {

/// The model constants. The unit is one cluster-row check (a single
/// result-vector load in the unrolled kernel, ~1ns). Defaults were
/// calibrated against an earlier node-based table directory whose probe
/// cost on the order of a hundred row checks, which is what makes
/// additional tables a real tradeoff — with an underpriced C_h the greedy
/// algorithm buys dozens of tables whose probe overhead exceeds the checks
/// they save. The flat directory probed from the per-lane value cache now
/// measures ~35-50 ns per (table, event) (W0, 50k subscriptions, 147
/// tables); the constants are deliberately not recalibrated to it, because
/// cheaper tables change placement (DESIGN.md, "Cost calibration").
struct CostParams {
  /// K_r: per-event cost of considering one hashing structure.
  double k_index_retrieve = 2.0;
  /// C_h: fixed cost of one hash lookup in a relevant structure.
  double c_hash = 80.0;
  /// K_h: additional hash cost per schema attribute.
  double k_hash_per_attr = 10.0;
  /// Per-row fixed checking cost.
  double k_check_base = 0.5;
  /// Per-row, per-residual-predicate checking cost.
  double k_check_per_pred = 1.0;

  /// Space: fixed bytes for an empty hash table.
  double table_base_bytes = 256.0;
  /// Space: bytes per occupied table entry (key + bucket + ClusterList).
  double entry_bytes = 96.0;
  /// Space: bytes per residual predicate slot stored in a cluster column.
  double slot_bytes = 4.0;
  /// Space: bytes per subscription line entry.
  double line_bytes = 8.0;
};

/// checking(p, c) contribution of one subscription with `residual_preds`
/// predicates left to verify after its access predicate.
inline double CheckingCost(size_t residual_preds, const CostParams& params) {
  return params.k_check_base +
         params.k_check_per_pred * static_cast<double>(residual_preds);
}

/// ν(p) * checking for subscription `s` clustered under access schema
/// `schema` (the empty schema means the always-checked fallback list,
/// ν = 1). Residual count = |s| minus the equality predicates absorbed by
/// the schema.
double SubscriptionAccessCost(const Subscription& s,
                              const AttributeSet& schema,
                              const EventStatistics& stats,
                              const CostParams& params);

/// Number of residual predicates of `s` under access schema `schema`.
size_t ResidualPredicateCount(const Subscription& s,
                              const AttributeSet& schema);

/// Per-event overhead of one hashing structure: K_r + μ(H)(C_h + K_h |A|).
double TableOverheadCost(const AttributeSet& schema,
                         const EventStatistics& stats,
                         const CostParams& params);

/// Full matching cost (formula 3.2) of assigning each subscription in
/// `subs` to its best schema among `schemas` (empty-schema fallback used
/// when no schema applies).
double TotalMatchingCost(std::span<const Subscription> subs,
                         std::span<const AttributeSet> schemas,
                         const EventStatistics& stats,
                         const CostParams& params);

/// Among `schemas`, the one minimizing ν * checking for `s` (only schemas
/// that are subsets of A(s) apply). Returns -1 if none applies (the
/// subscription goes to the fallback list). Ties break toward the earlier
/// schema, making assignment deterministic.
int ChooseBestSchema(const Subscription& s,
                     std::span<const AttributeSet> schemas,
                     const EventStatistics& stats, const CostParams& params);

}  // namespace vfps

#endif  // VFPS_COST_COST_MODEL_H_
