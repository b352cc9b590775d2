// Tests of ColumnarBatch as the sliding-window join's struct-of-arrays
// window store: appending rows and scattering them back must reproduce
// every row bit-for-bit, and the store operations the join runs (stable
// event-time sort, dead-prefix reclaim, per-event gather, reshape) must
// keep rows intact and in order.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/columnar_batch.h"

namespace cep2asp {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

double RandomMeasure(std::mt19937_64& rng, bool allow_non_finite) {
  static const double kFinite[] = {0.0,  -0.0, 0.5,    -1.25, 3.0,
                                   42.0, 59.9, 60.0,   100.0, -273.15,
                                   1e6,  1e-9, -1e300, 7.25,  13.0};
  static const double kSpecial[] = {kNaN, kInf, -kInf};
  if (allow_non_finite && rng() % 8 == 0) return kSpecial[rng() % 3];
  return kFinite[rng() % (sizeof(kFinite) / sizeof(kFinite[0]))];
}

SimpleEvent RandomEvent(std::mt19937_64& rng, bool allow_non_finite) {
  SimpleEvent e;
  e.type = static_cast<EventTypeId>(1 + rng() % 3);
  e.id = static_cast<int64_t>(rng() % 8);
  e.ts = static_cast<Timestamp>(rng() % 10000);
  e.aux_ts = static_cast<Timestamp>(rng() % 10000);
  e.create_ts = static_cast<Timestamp>(rng() % 10000);
  e.value = RandomMeasure(rng, allow_non_finite);
  e.lat = RandomMeasure(rng, allow_non_finite);
  e.lon = RandomMeasure(rng, allow_non_finite);
  return e;
}

Tuple RandomTuple(std::mt19937_64& rng, int arity, bool allow_non_finite) {
  Tuple t;
  for (int i = 0; i < arity; ++i) {
    t.AppendEvent(RandomEvent(rng, allow_non_finite));
  }
  t.set_event_time(static_cast<Timestamp>(rng() % 10000));
  t.set_key(static_cast<int64_t>(rng() % 100));
  return t;
}

/// Bitwise-aware double equality: NaN == NaN, -0.0 != +0.0 is fine here
/// because the gather writes the same bit pattern it read.
bool SameDouble(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

void ExpectSameTuple(const Tuple& a, const Tuple& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.key(), b.key());
  EXPECT_EQ(a.event_time(), b.event_time());
  for (size_t i = 0; i < a.size(); ++i) {
    const SimpleEvent& ea = a.event(i);
    const SimpleEvent& eb = b.event(i);
    EXPECT_EQ(ea.type, eb.type);
    EXPECT_EQ(ea.id, eb.id);
    EXPECT_EQ(ea.ts, eb.ts);
    EXPECT_EQ(ea.create_ts, eb.create_ts);
    EXPECT_EQ(ea.aux_ts, eb.aux_ts);
    EXPECT_TRUE(SameDouble(ea.value, eb.value));
    EXPECT_TRUE(SameDouble(ea.lat, eb.lat));
    EXPECT_TRUE(SameDouble(ea.lon, eb.lon));
  }
}

// Gather -> scatter must reproduce every row bit-for-bit (types, ids,
// timestamps, keys, event times, and non-finite measurements included).
TEST(ColumnarTest, GatherScatterRoundTripIsExact) {
  std::mt19937_64 rng(0xc01c0003);
  for (int arity = 1; arity <= 3; ++arity) {
    ColumnarBatch batch(static_cast<size_t>(arity));
    std::vector<Tuple> tuples;
    for (int i = 0; i < 40; ++i) {
      tuples.push_back(RandomTuple(rng, arity, /*non_finite=*/true));
      batch.AppendTuple(tuples.back());
    }
    ASSERT_EQ(batch.rows(), tuples.size());
    for (size_t i = 0; i < tuples.size(); ++i) {
      ExpectSameTuple(batch.RowTuple(i), tuples[i]);
    }
  }
}

// The join's store operations: StableSortByEventTime orders rows [from,
// rows) by event time, keeping equal times in append order and rows before
// `from` untouched; RowEvent gathers the same events RowTuple does;
// ErasePrefix drops the front rows; Reset reshapes and empties the store.
TEST(ColumnarTest, WindowStoreSortEraseAndReset) {
  std::mt19937_64 rng(0xc01c0004);
  for (int arity = 1; arity <= 2; ++arity) {
    ColumnarBatch store(static_cast<size_t>(arity));
    std::vector<Tuple> tuples;
    for (int i = 0; i < 64; ++i) {
      tuples.push_back(RandomTuple(rng, arity, /*non_finite=*/true));
      // Few distinct times, so the sort's stability is exercised.
      tuples.back().set_event_time(static_cast<Timestamp>(rng() % 8));
      store.AppendTuple(tuples.back());
    }
    constexpr size_t kFrom = 10;
    store.StableSortByEventTime(kFrom);
    std::vector<Tuple> want = tuples;
    std::stable_sort(want.begin() + kFrom, want.end(),
                     [](const Tuple& a, const Tuple& b) {
                       return a.event_time() < b.event_time();
                     });
    ASSERT_EQ(store.rows(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectSameTuple(store.RowTuple(i), want[i]);
      EXPECT_EQ(store.event_time(i), want[i].event_time());
      for (size_t s = 0; s < static_cast<size_t>(arity); ++s) {
        const SimpleEvent e = store.RowEvent(s, i);
        EXPECT_EQ(e.id, want[i].event(s).id);
        EXPECT_EQ(e.ts, want[i].event(s).ts);
        EXPECT_TRUE(SameDouble(e.value, want[i].event(s).value));
      }
    }

    store.ErasePrefix(kFrom + 3);
    ASSERT_EQ(store.rows(), want.size() - kFrom - 3);
    for (size_t i = 0; i < store.rows(); ++i) {
      ExpectSameTuple(store.RowTuple(i), want[kFrom + 3 + i]);
    }

    store.Reset(3);
    EXPECT_EQ(store.rows(), 0u);
    EXPECT_TRUE(store.empty());
    EXPECT_EQ(store.num_slots(), 3u);
  }
}

}  // namespace
}  // namespace cep2asp
