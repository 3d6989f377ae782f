#include "core/value.hpp"

#include <gtest/gtest.h>

#include <map>

namespace cod::core {
namespace {

TEST(AttributeValue, TypedAccessors) {
  EXPECT_TRUE(AttributeValue(true).asBool());
  EXPECT_EQ(AttributeValue(42).asInt(), 42);
  EXPECT_DOUBLE_EQ(AttributeValue(3.5).asDouble(), 3.5);
  EXPECT_EQ(AttributeValue("hi").asString(), "hi");
  EXPECT_EQ(AttributeValue(math::Vec3{1, 2, 3}).asVec3(), math::Vec3(1, 2, 3));
  const std::vector<std::uint8_t> blob{9, 8};
  EXPECT_EQ(AttributeValue(blob).asBlob(), blob);
}

TEST(AttributeValue, NumericCoercion) {
  EXPECT_DOUBLE_EQ(AttributeValue(7).asDouble(), 7.0);
  EXPECT_EQ(AttributeValue(7.9).asInt(), 7);
  EXPECT_TRUE(AttributeValue(1).asBool());
  EXPECT_FALSE(AttributeValue(0).asBool());
  EXPECT_EQ(AttributeValue(true).asInt(), 1);
}

TEST(AttributeValue, FallbacksOnWrongType) {
  const AttributeValue s("text");
  EXPECT_DOUBLE_EQ(s.asDouble(9.0), 9.0);
  EXPECT_EQ(s.asInt(5), 5);
  EXPECT_EQ(s.asVec3({1, 1, 1}), math::Vec3(1, 1, 1));
  EXPECT_TRUE(AttributeValue(1.0).asString().empty());
}

TEST(AttributeValue, TypePredicates) {
  EXPECT_TRUE(AttributeValue(true).isBool());
  EXPECT_TRUE(AttributeValue(1).isInt());
  EXPECT_TRUE(AttributeValue(1.0).isDouble());
  EXPECT_TRUE(AttributeValue("x").isString());
  EXPECT_TRUE(AttributeValue(math::Vec3{}).isVec3());
  EXPECT_TRUE(AttributeValue(std::vector<std::uint8_t>{1}).isBlob());
  EXPECT_FALSE(AttributeValue(1).isDouble());
}

TEST(AttributeValue, EncodeDecodeAllTypes) {
  const AttributeValue values[] = {
      AttributeValue(true),
      AttributeValue(false),
      AttributeValue(std::int64_t{-123456789}),
      AttributeValue(2.718281828),
      AttributeValue(std::string("a string")),
      AttributeValue(math::Vec3{-1.5, 2.5, 3.5}),
      AttributeValue(std::vector<std::uint8_t>{0, 1, 2, 255}),
  };
  for (const AttributeValue& v : values) {
    net::WireWriter w;
    v.encode(w);
    net::WireReader r(w.bytes());
    const auto decoded = AttributeValue::decode(r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, v);
  }
}

TEST(AttributeValue, DecodeMalformedFails) {
  const std::vector<std::uint8_t> garbage{200};  // unknown tag
  net::WireReader r(garbage);
  EXPECT_FALSE(AttributeValue::decode(r).has_value());
  net::WireReader empty(std::span<const std::uint8_t>{});
  EXPECT_FALSE(AttributeValue::decode(empty).has_value());
}

TEST(AttributeSet, SetGetHas) {
  AttributeSet a;
  a.set("x", 1.5);
  a.set("name", "crane");
  a.set("on", true);
  EXPECT_TRUE(a.has("x"));
  EXPECT_FALSE(a.has("y"));
  EXPECT_DOUBLE_EQ(a.getDouble("x"), 1.5);
  EXPECT_EQ(a.getString("name"), "crane");
  EXPECT_TRUE(a.getBool("on"));
  EXPECT_EQ(a.size(), 3u);
}

TEST(AttributeSet, FallbacksForMissingKeys) {
  const AttributeSet a;
  EXPECT_DOUBLE_EQ(a.getDouble("missing", 7.5), 7.5);
  EXPECT_EQ(a.getInt("missing", -2), -2);
  EXPECT_EQ(a.getString("missing", "dflt"), "dflt");
  EXPECT_FALSE(a.getBool("missing"));
  EXPECT_EQ(a.getVec3("missing", {1, 2, 3}), math::Vec3(1, 2, 3));
  EXPECT_EQ(a.find("missing"), nullptr);
}

TEST(AttributeSet, OverwriteReplacesValue) {
  AttributeSet a;
  a.set("k", 1);
  a.set("k", 2);
  EXPECT_EQ(a.getInt("k"), 2);
  EXPECT_EQ(a.size(), 1u);
}

TEST(AttributeSet, InitializerListConstruction) {
  const AttributeSet a{{"speed", AttributeValue(3.0)},
                       {"gear", AttributeValue(2)}};
  EXPECT_DOUBLE_EQ(a.getDouble("speed"), 3.0);
  EXPECT_EQ(a.getInt("gear"), 2);
}

TEST(AttributeSet, EncodeDecodeRoundTrip) {
  AttributeSet a;
  a.set("b", true);
  a.set("i", -42);
  a.set("d", 0.125);
  a.set("s", "text");
  a.set("v", math::Vec3{1, -2, 3});
  const auto bytes = a.encode();
  const auto decoded = AttributeSet::decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, a);
}

TEST(AttributeSet, EmptySetRoundTrips) {
  const AttributeSet a;
  const auto decoded = AttributeSet::decode(a.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(AttributeSet, DecodeTruncatedFails) {
  AttributeSet a;
  a.set("key", 1.0);
  auto bytes = a.encode();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(AttributeSet::decode(bytes).has_value());
}

TEST(AttributeSet, IterationIsOrdered) {
  AttributeSet a;
  a.set("zeta", 1);
  a.set("alpha", 2);
  std::vector<std::string> keys;
  for (const auto& [k, v] : a) keys.push_back(k);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "alpha");  // std::map ordering, stable on the wire
  EXPECT_EQ(keys[1], "zeta");
}

TEST(AttributeSet, EncodingIsPinned) {
  const AttributeSet a{{"name", "hi"}, {"b", 2}, {"a", true}};
  const std::vector<std::uint8_t> expected{
      0x03, 0x00,                          // 3 attributes
      0x01, 0x00, 'a', 0x00, 0x01,         // "a": bool true
      0x01, 0x00, 'b', 0x01,               // "b": int 2
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 'n', 'a', 'm', 'e',      // "name": string "hi"
      0x03, 0x02, 0x00, 'h', 'i'};
  EXPECT_EQ(a.encode(), expected);
}

// The flat set against a std::map<std::string, AttributeValue> reference:
// the same inputs must give the same iteration order, lookups, equality
// and encoded bytes, repeated names included (set and decode keep the
// last value for a name, the initializer list the first).
TEST(AttributeSet, MatchesStdMapModel) {
  using Model = std::map<std::string, AttributeValue>;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  // Short names and names past the small-string buffer, "" included, in
  // an order that is not sorted.
  const std::vector<std::string> names{
      "zeta", "a", "", "boomPitch", "carrierPosition_x", "b", "ab",
      "an_attribute_name_longer_than_sso"};
  const auto randomName = [&] { return names[next() % names.size()]; };
  const auto randomValue = [&]() -> AttributeValue {
    switch (next() % 6) {
      case 0: return AttributeValue((next() & 1) != 0);
      case 1: return AttributeValue(static_cast<std::int64_t>(next()));
      case 2: return AttributeValue(static_cast<double>(next() % 100000) / 7.0);
      case 3: return AttributeValue(std::string(next() % 24, 'x'));
      case 4: return AttributeValue(math::Vec3{1.0, -2.0, double(next() % 9)});
      default:
        return AttributeValue(std::vector<std::uint8_t>(next() % 5, 0xAB));
    }
  };
  const auto encodeModel = [](const Model& m) {
    net::WireWriter w;
    w.u16(static_cast<std::uint16_t>(m.size()));
    for (const auto& [name, value] : m) {
      w.str(name);
      value.encode(w);
    }
    return w.take();
  };
  const auto build = [&](AttributeSet& set, Model& model) {
    switch (next() % 3) {
      case 0: {  // set() sequence with overwrites
        const std::size_t n = next() % 12;
        for (std::size_t i = 0; i < n; ++i) {
          const std::string name = randomName();
          const AttributeValue v = randomValue();
          set.set(name, v);
          model[name] = v;
        }
        break;
      }
      case 1: {  // initializer list; names repeat often with 8 to pick
        const std::string n0 = randomName(), n1 = randomName(),
                          n2 = randomName(), n3 = randomName();
        const AttributeValue v0 = randomValue(), v1 = randomValue(),
                             v2 = randomValue(), v3 = randomValue();
        set = AttributeSet{{n0, v0}, {n1, v1}, {n2, v2}, {n3, v3}};
        model = Model{{n0, v0}, {n1, v1}, {n2, v2}, {n3, v3}};
        break;
      }
      default: {  // hand-encoded bytes, names unsorted or repeated
        const std::size_t n = next() % 10;
        net::WireWriter w;
        w.u16(static_cast<std::uint16_t>(n));
        for (std::size_t i = 0; i < n; ++i) {
          const std::string name = randomName();
          const AttributeValue v = randomValue();
          w.str(name);
          v.encode(w);
          model[name] = v;
        }
        auto decoded = AttributeSet::decode(w.take());
        ASSERT_TRUE(decoded.has_value());
        set = std::move(*decoded);
        break;
      }
    }
  };
  const auto check = [&](const AttributeSet& set, const Model& model,
                         int iter) {
    ASSERT_EQ(set.size(), model.size()) << "iter=" << iter;
    ASSERT_EQ(set.empty(), model.empty());
    auto it = set.begin();
    for (const auto& [name, value] : model) {
      ASSERT_NE(it, set.end());
      EXPECT_EQ(it->first, name) << "iter=" << iter;
      EXPECT_EQ(it->second, value) << "iter=" << iter << " name=" << name;
      ++it;
    }
    EXPECT_EQ(it, set.end());
    for (const std::string& name : names) {
      const auto m = model.find(name);
      const AttributeValue* found = set.find(name);
      EXPECT_EQ(set.has(name), m != model.end()) << "iter=" << iter;
      ASSERT_EQ(found != nullptr, m != model.end()) << "iter=" << iter;
      if (found != nullptr) {
        EXPECT_EQ(*found, m->second);
      }
    }
    EXPECT_EQ(set.encode(), encodeModel(model)) << "iter=" << iter;
  };
  for (int iter = 0; iter < 2000; ++iter) {
    AttributeSet a, b;
    Model ma, mb;
    build(a, ma);
    check(a, ma, iter);
    if (next() % 2 == 0) {
      // Equal contents reached another way: through the wire.
      b = *AttributeSet::decode(a.encode());
      mb = ma;
    } else {
      build(b, mb);
    }
    check(b, mb, iter);
    EXPECT_EQ(a == b, ma == mb) << "iter=" << iter;
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace cod::core
