// Typed attribute values and attribute sets — the payload vocabulary of the
// Communication Backbone, modelled on HLA attribute updates: an object class
// is a named bag of attributes, and an update carries a subset of them.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "math/vec.hpp"
#include "net/wire.hpp"

namespace cod::core {

/// One attribute value. The variant covers every type the simulator's
/// object models exchange (dashboard signals, poses, events, blobs).
class AttributeValue {
 public:
  using Storage = std::variant<bool, std::int64_t, double, std::string,
                               math::Vec3, std::vector<std::uint8_t>>;

  AttributeValue() : v_(false) {}
  AttributeValue(bool b) : v_(b) {}
  AttributeValue(std::int64_t i) : v_(i) {}
  AttributeValue(int i) : v_(static_cast<std::int64_t>(i)) {}
  AttributeValue(double d) : v_(d) {}
  AttributeValue(std::string s) : v_(std::move(s)) {}
  AttributeValue(const char* s) : v_(std::string(s)) {}
  AttributeValue(math::Vec3 v) : v_(v) {}
  AttributeValue(std::vector<std::uint8_t> b) : v_(std::move(b)) {}

  bool isBool() const { return std::holds_alternative<bool>(v_); }
  bool isInt() const { return std::holds_alternative<std::int64_t>(v_); }
  bool isDouble() const { return std::holds_alternative<double>(v_); }
  bool isString() const { return std::holds_alternative<std::string>(v_); }
  bool isVec3() const { return std::holds_alternative<math::Vec3>(v_); }
  bool isBlob() const {
    return std::holds_alternative<std::vector<std::uint8_t>>(v_);
  }

  bool asBool(bool fallback = false) const;
  std::int64_t asInt(std::int64_t fallback = 0) const;
  /// Numeric coercion: returns the value for double *or* int storage.
  double asDouble(double fallback = 0.0) const;
  const std::string& asString() const;
  math::Vec3 asVec3(math::Vec3 fallback = {}) const;
  const std::vector<std::uint8_t>& asBlob() const;

  void encode(net::WireWriter& w) const;
  static std::optional<AttributeValue> decode(net::WireReader& r);

  bool operator==(const AttributeValue&) const = default;

 private:
  Storage v_;
};

/// An ordered name → value map: the payload of one attribute update.
///
/// One vector of (name, value) pairs kept sorted by name, so a decoded set
/// costs one allocation however many attributes it carries. Iteration
/// order, lookups, equality and the encoding are those of a std::map keyed
/// by name, repeated names included: set() and decode() keep the last
/// value given for a name, the initializer-list constructor keeps the
/// first.
class AttributeSet {
 public:
  AttributeSet() = default;
  AttributeSet(std::initializer_list<std::pair<const std::string, AttributeValue>> init);

  void set(const std::string& name, AttributeValue v);
  bool has(const std::string& name) const { return find(name) != nullptr; }
  /// Null if absent.
  const AttributeValue* find(const std::string& name) const;

  bool getBool(const std::string& name, bool fallback = false) const;
  std::int64_t getInt(const std::string& name, std::int64_t fallback = 0) const;
  double getDouble(const std::string& name, double fallback = 0.0) const;
  std::string getString(const std::string& name,
                        const std::string& fallback = {}) const;
  math::Vec3 getVec3(const std::string& name, math::Vec3 fallback = {}) const;

  std::size_t size() const { return attrs_.size(); }
  bool empty() const { return attrs_.empty(); }
  auto begin() const { return attrs_.begin(); }
  auto end() const { return attrs_.end(); }

  std::vector<std::uint8_t> encode() const;
  /// Append the encoding to `w` without an intermediate buffer — the
  /// zero-copy path updateAttributeValues uses to write the payload
  /// straight into the reusable UPDATE frame. Bytes are identical to
  /// encode().
  void encodeInto(net::WireWriter& w) const;
  static std::optional<AttributeSet> decode(std::span<const std::uint8_t> bytes);

  bool operator==(const AttributeSet&) const = default;

 private:
  /// Sorted by name; names are unique.
  std::vector<std::pair<std::string, AttributeValue>> attrs_;
};

}  // namespace cod::core
