#ifndef CEP2ASP_RUNTIME_COLUMNAR_BATCH_H_
#define CEP2ASP_RUNTIME_COLUMNAR_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "event/event.h"

namespace cep2asp {

/// \brief Columnar (struct-of-arrays) row block.
///
/// Nothing in the runtime builds these any more: tuples cross every edge
/// row-major and the sliding-window join keeps its own row-major store.
/// The type survives only as the argument of the row-scatter defaults of
/// `Operator::ProcessColumnar` and `Collector::EmitColumnar`, which the
/// end-to-end benchmark's tracing wrappers forward.
///
/// A row is one Tuple of `num_slots` events. Per (event slot, attribute)
/// the block keeps one contiguous double column; the event fields that the
/// six double attributes cannot carry (the EventTypeId and the wall-clock
/// create_ts) ride in per-slot sidecar columns, and tuple-level identity
/// (partition key, event time) in exact int64 columns, so an append ->
/// RowTuple round trip reproduces every row bit-for-bit. id/ts/aux_ts
/// travel as doubles under the documented GetAttribute contract
/// (timestamps are exact in double for the ranges this library produces);
/// partition keys stay exact int64 because key pools may exceed 2^53.
class ColumnarBatch {
 public:
  ColumnarBatch() { Reset(1); }
  explicit ColumnarBatch(size_t num_slots) { Reset(num_slots); }

  /// Re-shapes to `num_slots` events per row and clears all rows; column
  /// capacity is kept, so a recycled batch allocates nothing.
  void Reset(size_t num_slots);

  /// Events per row (tuple arity this batch was shaped for).
  size_t num_slots() const { return num_slots_; }

  size_t rows() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Gathers one tuple into the columns. The tuple's arity must equal
  /// num_slots().
  void AppendTuple(const Tuple& tuple);

  /// Scatters row `i` back into a row-major Tuple.
  Tuple RowTuple(size_t i) const;

 private:
  size_t num_slots_ = 1;
  size_t rows_ = 0;
  /// attr_cols_[slot * kNumEventAttrs + attr]: the double columns.
  std::vector<std::vector<double>> attr_cols_;
  /// Per-slot sidecars for the event fields outside the attribute schema.
  std::vector<std::vector<EventTypeId>> type_cols_;
  std::vector<std::vector<Timestamp>> create_ts_cols_;
  /// Tuple-level identity, exact.
  std::vector<int64_t> keys_;
  std::vector<Timestamp> event_times_;
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_COLUMNAR_BATCH_H_
