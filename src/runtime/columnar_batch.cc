#include "runtime/columnar_batch.h"

#include "common/logging.h"

namespace cep2asp {

void ColumnarBatch::Reset(size_t num_slots) {
  CEP2ASP_DCHECK(num_slots > 0);
  num_slots_ = num_slots;
  rows_ = 0;
  attr_cols_.resize(num_slots * kNumEventAttrs);
  type_cols_.resize(num_slots);
  create_ts_cols_.resize(num_slots);
  for (std::vector<double>& col : attr_cols_) col.clear();
  for (std::vector<EventTypeId>& col : type_cols_) col.clear();
  for (std::vector<Timestamp>& col : create_ts_cols_) col.clear();
  keys_.clear();
  event_times_.clear();
}

void ColumnarBatch::AppendTuple(const Tuple& tuple) {
  CEP2ASP_DCHECK(tuple.size() == num_slots_)
      << "tuple arity " << tuple.size() << " vs batch shape " << num_slots_;
  for (size_t s = 0; s < num_slots_; ++s) {
    const SimpleEvent& e = tuple.event(s);
    std::vector<double>* cols = &attr_cols_[s * kNumEventAttrs];
    cols[0].push_back(e.value);
    cols[1].push_back(e.lat);
    cols[2].push_back(e.lon);
    cols[3].push_back(static_cast<double>(e.ts));
    cols[4].push_back(static_cast<double>(e.id));
    cols[5].push_back(static_cast<double>(e.aux_ts));
    type_cols_[s].push_back(e.type);
    create_ts_cols_[s].push_back(e.create_ts);
  }
  keys_.push_back(tuple.key());
  event_times_.push_back(tuple.event_time());
  ++rows_;
}

Tuple ColumnarBatch::RowTuple(size_t i) const {
  CEP2ASP_DCHECK(i < rows_);
  Tuple out;
  for (size_t s = 0; s < num_slots_; ++s) {
    const std::vector<double>* cols = &attr_cols_[s * kNumEventAttrs];
    SimpleEvent e;
    e.value = cols[0][i];
    e.lat = cols[1][i];
    e.lon = cols[2][i];
    e.ts = static_cast<Timestamp>(cols[3][i]);
    e.id = static_cast<int64_t>(cols[4][i]);
    e.aux_ts = static_cast<Timestamp>(cols[5][i]);
    e.type = type_cols_[s][i];
    e.create_ts = create_ts_cols_[s][i];
    out.AppendEvent(e);
  }
  out.set_event_time(event_times_[i]);
  out.set_key(keys_[i]);
  return out;
}

}  // namespace cep2asp
