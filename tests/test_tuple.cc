// Unit + property tests for values, tuples, patterns, codec and the index.

#include <gtest/gtest.h>

#include "sim/random.h"
#include "tuple/codec.h"
#include "tuple/index.h"
#include "tuple/pattern.h"
#include "tuple/tuple.h"
#include "tuple/value.h"

namespace tiamat::tuples {
namespace {

// ---------------- Value ----------------

TEST(Value, TypesAndAccessors) {
  EXPECT_TRUE(Value(std::int64_t{5}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_TRUE(Value(Blob{1, 2}).is_blob());
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_EQ(Value(Blob{1, 2}).as_blob(), (Blob{1, 2}));
}

TEST(Value, EqualityIsTypeAware) {
  EXPECT_NE(Value(1), Value(1.0));  // int vs double
  EXPECT_NE(Value(true), Value(1));
  EXPECT_EQ(Value("a"), Value(std::string("a")));
}

TEST(Value, WrongAccessorThrows) {
  EXPECT_THROW(Value("s").as_int(), std::bad_variant_access);
  EXPECT_THROW(Value(1).as_string(), std::bad_variant_access);
}

TEST(Value, HashEqualValuesAgree) {
  EXPECT_EQ(Value("abc").hash(), Value("abc").hash());
  EXPECT_EQ(Value(42).hash(), Value(42).hash());
  EXPECT_NE(Value(42).hash(), Value(43).hash());
}

TEST(Value, FootprintTracksSize) {
  EXPECT_EQ(Value(1).footprint(), 8u);
  EXPECT_GT(Value(std::string(100, 'x')).footprint(), 100u);
}

TEST(Value, ToString) {
  EXPECT_EQ(Value(5).to_string(), "5");
  EXPECT_EQ(Value("x").to_string(), "\"x\"");
  EXPECT_EQ(Value(true).to_string(), "true");
}

// ---------------- Tuple ----------------

TEST(TupleTest, BasicConstructionAndAccess) {
  Tuple t{"req", 42, 3.5, true};
  EXPECT_EQ(t.arity(), 4u);
  EXPECT_EQ(t[0].as_string(), "req");
  EXPECT_EQ(t[1].as_int(), 42);
  EXPECT_EQ(t.at(2).as_double(), 3.5);
  EXPECT_TRUE(t[3].as_bool());
}

TEST(TupleTest, EqualityAndOrdering) {
  EXPECT_EQ((Tuple{"a", 1}), (Tuple{"a", 1}));
  EXPECT_NE((Tuple{"a", 1}), (Tuple{"a", 2}));
  EXPECT_NE((Tuple{"a"}), (Tuple{"a", 1}));
  EXPECT_LT((Tuple{1}), (Tuple{2}));
}

TEST(TupleTest, ToString) {
  EXPECT_EQ((Tuple{"a", 1}).to_string(), "(\"a\", 1)");
  EXPECT_EQ(Tuple{}.to_string(), "()");
}

TEST(TupleTest, HashConsistency) {
  EXPECT_EQ((Tuple{"a", 1}).hash(), (Tuple{"a", 1}).hash());
  EXPECT_NE((Tuple{"a", 1}).hash(), (Tuple{"a", 2}).hash());
}

// ---------------- Pattern matching ----------------

TEST(PatternTest, ActualsMatchExactly) {
  Pattern p{"req", 42};
  EXPECT_TRUE(p.matches(Tuple{"req", 42}));
  EXPECT_FALSE(p.matches(Tuple{"req", 43}));
  EXPECT_FALSE(p.matches(Tuple{"resp", 42}));
}

TEST(PatternTest, ArityMustAgree) {
  Pattern p{"req"};
  EXPECT_FALSE(p.matches(Tuple{"req", 42}));
  EXPECT_TRUE(p.matches(Tuple{"req"}));
  EXPECT_TRUE(Pattern{}.matches(Tuple{}));
  EXPECT_FALSE(Pattern{}.matches(Tuple{1}));
}

TEST(PatternTest, FormalsMatchByType) {
  Pattern p{"req", any_int()};
  EXPECT_TRUE(p.matches(Tuple{"req", 1}));
  EXPECT_TRUE(p.matches(Tuple{"req", -100}));
  EXPECT_FALSE(p.matches(Tuple{"req", "str"}));
  EXPECT_FALSE(p.matches(Tuple{"req", 1.0}));
}

TEST(PatternTest, WildcardMatchesAnything) {
  Pattern p{any(), any()};
  EXPECT_TRUE(p.matches(Tuple{1, "x"}));
  EXPECT_TRUE(p.matches(Tuple{true, Blob{}}));
}

TEST(PatternTest, RangeMatchesNumerics) {
  Pattern p{Field::range(10, 20)};
  EXPECT_TRUE(p.matches(Tuple{15}));
  EXPECT_TRUE(p.matches(Tuple{10}));
  EXPECT_TRUE(p.matches(Tuple{20}));
  EXPECT_TRUE(p.matches(Tuple{12.5}));
  EXPECT_FALSE(p.matches(Tuple{9}));
  EXPECT_FALSE(p.matches(Tuple{21.0}));
  EXPECT_FALSE(p.matches(Tuple{"15"}));
}

TEST(PatternTest, PrefixMatchesStrings) {
  Pattern p{Field::prefix("http://")};
  EXPECT_TRUE(p.matches(Tuple{"http://example.org"}));
  EXPECT_TRUE(p.matches(Tuple{"http://"}));
  EXPECT_FALSE(p.matches(Tuple{"https://example.org"}));
  EXPECT_FALSE(p.matches(Tuple{42}));
}

TEST(PatternTest, ExactlyMatchesOnlyThatTuple) {
  Tuple t{"a", 1, 2.0};
  Pattern p = Pattern::exactly(t);
  EXPECT_TRUE(p.matches(t));
  EXPECT_FALSE(p.matches(Tuple{"a", 1, 2.5}));
}

TEST(PatternTest, KeyExtractsLeadingActual) {
  EXPECT_EQ(*(Pattern{"req", any()}.key()), Value("req"));
  EXPECT_FALSE((Pattern{any(), "req"}.key()).has_value());
  EXPECT_FALSE(Pattern{}.key().has_value());
}

// Parameterized sweep: every field kind against every value type.
struct FieldCase {
  Field field;
  Value value;
  bool expect;
};

// Names each case by its contents. Without it gtest prints the raw bytes of
// the struct, which hold heap pointers and padding, so the discovered test
// names would change from one build to the next.
void PrintTo(const FieldCase& c, std::ostream* os) {
  *os << c.field.to_string() << (c.expect ? " matches " : " rejects ")
      << c.value.to_string();
}

class FieldMatch : public ::testing::TestWithParam<FieldCase> {};

TEST_P(FieldMatch, Matches) {
  const auto& c = GetParam();
  EXPECT_EQ(c.field.matches(c.value), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FieldMatch,
    ::testing::Values(
        FieldCase{Field(5), Value(5), true},
        FieldCase{Field(5), Value(6), false},
        FieldCase{Field("a"), Value("a"), true},
        FieldCase{Field(1.5), Value(1.5), true},
        FieldCase{Field(true), Value(false), false},
        FieldCase{any_int(), Value(0), true},
        FieldCase{any_int(), Value(0.0), false},
        FieldCase{any_double(), Value(0.5), true},
        FieldCase{any_string(), Value(""), true},
        FieldCase{any_blob(), Value(Blob{}), true},
        FieldCase{any_bool(), Value(false), true},
        FieldCase{any(), Value(Blob{9}), true},
        FieldCase{Field::range(0, 1), Value(0.5), true},
        FieldCase{Field::range(0, 1), Value(2), false},
        FieldCase{Field::prefix("ab"), Value("abc"), true},
        FieldCase{Field::prefix("ab"), Value("ba"), false}));

// ---------------- Codec ----------------

TEST(Codec, VarintRoundTrip) {
  Writer w;
  std::vector<std::uint64_t> vals{0, 1, 127, 128, 300, 1ull << 32,
                                  UINT64_MAX};
  for (auto v : vals) w.varint(v);
  Reader r(w.data());
  for (auto v : vals) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Codec, ScalarRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-1.25e10);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -1.25e10);
}

TEST(Codec, TupleRoundTrip) {
  Tuple t{"req", 42, 3.5, true, Blob{1, 2, 3}};
  auto bytes = encode_tuple(t);
  auto back = try_decode_tuple(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

TEST(Codec, EmptyTupleRoundTrip) {
  auto back = try_decode_tuple(encode_tuple(Tuple{}));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->arity(), 0u);
}

TEST(Codec, PatternRoundTrip) {
  Pattern p{"req", any_int(), any(), Field::range(1, 9),
            Field::prefix("http")};
  auto back = try_decode_pattern(encode_pattern(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, p);
  // Behavioural equivalence too.
  Tuple yes{"req", 5, "anything", 3, "http://x"};
  Tuple no{"req", 5, "anything", 30, "http://x"};
  EXPECT_TRUE(back->matches(yes));
  EXPECT_FALSE(back->matches(no));
}

TEST(Codec, TruncatedInputRejected) {
  auto bytes = encode_tuple(Tuple{"hello", 42});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Bytes prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(try_decode_tuple(prefix).has_value()) << "cut=" << cut;
  }
}

TEST(Codec, TrailingGarbageRejected) {
  auto bytes = encode_tuple(Tuple{1});
  bytes.push_back(0);
  EXPECT_FALSE(try_decode_tuple(bytes).has_value());
}

TEST(Codec, BadTagRejected) {
  Bytes b{1 /*arity*/, 0xEE /*bogus type tag*/};
  EXPECT_FALSE(try_decode_tuple(b).has_value());
}

TEST(Codec, HugeArityClaimRejected) {
  Writer w;
  w.varint(1'000'000);  // claims a million fields with no data
  EXPECT_FALSE(try_decode_tuple(w.data()).has_value());
}

// Property: random tuples always round-trip.
class CodecFuzz : public ::testing::TestWithParam<int> {};

Tuple random_tuple(sim::Rng& rng, int max_arity = 6) {
  std::vector<Value> fields;
  int n = static_cast<int>(rng.uniform(0, max_arity));
  for (int i = 0; i < n; ++i) {
    switch (rng.uniform(0, 4)) {
      case 0:
        fields.emplace_back(rng.uniform(-1000000, 1000000));
        break;
      case 1:
        fields.emplace_back(rng.real(-1e6, 1e6));
        break;
      case 2:
        fields.emplace_back(rng.chance(0.5));
        break;
      case 3: {
        std::string s;
        int len = static_cast<int>(rng.uniform(0, 32));
        for (int k = 0; k < len; ++k) {
          s.push_back(static_cast<char>(rng.uniform(32, 126)));
        }
        fields.emplace_back(std::move(s));
        break;
      }
      default: {
        Blob b;
        int len = static_cast<int>(rng.uniform(0, 64));
        for (int k = 0; k < len; ++k) {
          b.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
        }
        fields.emplace_back(std::move(b));
        break;
      }
    }
  }
  return Tuple(std::move(fields));
}

TEST_P(CodecFuzz, RandomTuplesRoundTrip) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Tuple t = random_tuple(rng);
    auto back = try_decode_tuple(encode_tuple(t));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, t);
    EXPECT_EQ(back->hash(), t.hash());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range(1, 9));

// ---------------- Index ----------------

TEST(Index, InsertFindErase) {
  TupleIndex idx;
  idx.insert(1, Tuple{"a", 1});
  idx.insert(2, Tuple{"a", 2});
  idx.insert(3, Tuple{"b", 1});
  EXPECT_EQ(idx.size(), 3u);
  auto ids = idx.find_matches(Pattern{"a", any_int()});
  EXPECT_EQ(ids, (std::vector<TupleId>{1, 2}));
  auto t = idx.erase(1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, (Tuple{"a", 1}));
  EXPECT_EQ(idx.find_matches(Pattern{"a", any_int()}).size(), 1u);
}

TEST(Index, KeyedLookupIgnoresOtherKeys) {
  TupleIndex idx;
  for (int i = 0; i < 100; ++i) {
    idx.insert(static_cast<TupleId>(i + 1), Tuple{"k" + std::to_string(i), i});
  }
  auto ids = idx.find_matches(Pattern{"k42", any_int()});
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*idx.get(ids[0]), (Tuple{"k42", 42}));
}

TEST(Index, UnkeyedPatternScansArity) {
  TupleIndex idx;
  idx.insert(1, Tuple{"x", 1});
  idx.insert(2, Tuple{"y", 2});
  idx.insert(3, Tuple{"z"});  // different arity
  auto ids = idx.find_matches(Pattern{any_string(), any_int()});
  EXPECT_EQ(ids.size(), 2u);
}

TEST(Index, NullaryTuples) {
  TupleIndex idx;
  idx.insert(1, Tuple{});
  EXPECT_EQ(idx.find_matches(Pattern{}).size(), 1u);
  EXPECT_TRUE(idx.erase(1).has_value());
  EXPECT_TRUE(idx.empty());
}

TEST(Index, LimitStopsEarly) {
  TupleIndex idx;
  for (int i = 0; i < 50; ++i) {
    idx.insert(static_cast<TupleId>(i + 1), Tuple{"k", i});
  }
  EXPECT_EQ(idx.find_matches(Pattern{"k", any_int()}, 5).size(), 5u);
}

TEST(Index, FootprintTracksContents) {
  TupleIndex idx;
  EXPECT_EQ(idx.total_footprint(), 0u);
  idx.insert(1, Tuple{std::string(100, 'x')});
  std::size_t f = idx.total_footprint();
  EXPECT_GT(f, 100u);
  idx.insert(2, Tuple{1});
  EXPECT_GT(idx.total_footprint(), f);
  idx.erase(1);
  idx.erase(2);
  EXPECT_EQ(idx.total_footprint(), 0u);
}

TEST(Index, EraseMissingReturnsNullopt) {
  TupleIndex idx;
  EXPECT_FALSE(idx.erase(99).has_value());
}

TEST(Index, ForEachVisitsAllInIdOrder) {
  TupleIndex idx;
  idx.insert(3, Tuple{"c"});
  idx.insert(1, Tuple{"a"});
  idx.insert(2, Tuple{"b"});
  std::vector<TupleId> seen;
  idx.for_each([&](TupleId id, const Tuple&) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<TupleId>{1, 2, 3}));
}

}  // namespace
}  // namespace tiamat::tuples
