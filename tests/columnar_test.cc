// Tests of ColumnarBatch, the struct-of-arrays block behind the
// row-scatter defaults of Operator::ProcessColumnar and
// Collector::EmitColumnar: appending rows and scattering them back must
// reproduce every row bit-for-bit, and Reset must reshape and empty a
// block so it can be recycled.

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

// Reset reshapes and empties a block; a recycled block then round-trips
// rows of the new arity exactly, with nothing left over from before.
TEST(ColumnarTest, ResetReshapesAndRecycles) {
  std::mt19937_64 rng(0xc01c0004);
  ColumnarBatch batch(2);
  for (int i = 0; i < 16; ++i) batch.AppendTuple(RandomTuple(rng, 2, true));
  ASSERT_EQ(batch.rows(), 16u);

  batch.Reset(3);
  EXPECT_EQ(batch.rows(), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.num_slots(), 3u);

  std::vector<Tuple> tuples;
  for (int i = 0; i < 5; ++i) {
    tuples.push_back(RandomTuple(rng, 3, /*non_finite=*/true));
    batch.AppendTuple(tuples.back());
  }
  ASSERT_EQ(batch.rows(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    ExpectSameTuple(batch.RowTuple(i), tuples[i]);
  }
}

}  // namespace
}  // namespace cep2asp
