#include "runtime/columnar_batch.h"

#include <algorithm>
#include <numeric>

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

SimpleEvent ColumnarBatch::RowEvent(size_t slot, size_t i) const {
  CEP2ASP_DCHECK(slot < num_slots_ && i < rows_);
  const std::vector<double>* cols = &attr_cols_[slot * kNumEventAttrs];
  SimpleEvent e;
  e.value = cols[0][i];
  e.lat = cols[1][i];
  e.lon = cols[2][i];
  e.ts = static_cast<Timestamp>(cols[3][i]);
  e.id = static_cast<int64_t>(cols[4][i]);
  e.aux_ts = static_cast<Timestamp>(cols[5][i]);
  e.type = type_cols_[slot][i];
  e.create_ts = create_ts_cols_[slot][i];
  return e;
}

void ColumnarBatch::ErasePrefix(size_t n) {
  if (n == 0) return;
  CEP2ASP_DCHECK(n <= rows_);
  const ptrdiff_t d = static_cast<ptrdiff_t>(n);
  for (std::vector<double>& col : attr_cols_) {
    col.erase(col.begin(), col.begin() + d);
  }
  for (std::vector<EventTypeId>& col : type_cols_) {
    col.erase(col.begin(), col.begin() + d);
  }
  for (std::vector<Timestamp>& col : create_ts_cols_) {
    col.erase(col.begin(), col.begin() + d);
  }
  keys_.erase(keys_.begin(), keys_.begin() + d);
  event_times_.erase(event_times_.begin(), event_times_.begin() + d);
  rows_ -= n;
}

namespace {

template <typename T>
void ApplyPermutation(std::vector<T>* col, size_t from,
                      const std::vector<uint32_t>& perm) {
  std::vector<T> tmp(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    tmp[i] = (*col)[from + perm[i]];
  }
  std::copy(tmp.begin(), tmp.end(), col->begin() + static_cast<ptrdiff_t>(from));
}

}  // namespace

void ColumnarBatch::StableSortByEventTime(size_t from) {
  if (from >= rows_) return;
  const size_t n = rows_ - from;
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  const Timestamp* ts = event_times_.data() + from;
  std::stable_sort(perm.begin(), perm.end(),
                   [ts](uint32_t a, uint32_t b) { return ts[a] < ts[b]; });
  bool identity = true;
  for (size_t i = 0; i < n; ++i) {
    if (perm[i] != i) {
      identity = false;
      break;
    }
  }
  if (identity) return;
  for (std::vector<double>& col : attr_cols_) ApplyPermutation(&col, from, perm);
  for (std::vector<EventTypeId>& col : type_cols_) {
    ApplyPermutation(&col, from, perm);
  }
  for (std::vector<Timestamp>& col : create_ts_cols_) {
    ApplyPermutation(&col, from, perm);
  }
  ApplyPermutation(&keys_, from, perm);
  ApplyPermutation(&event_times_, from, perm);
}

}  // namespace cep2asp
