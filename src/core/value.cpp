#include "core/value.hpp"

#include <algorithm>

namespace cod::core {

namespace {
// Wire type tags; stable across versions.
enum class Tag : std::uint8_t {
  kBool = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kVec3 = 4,
  kBlob = 5,
};

const std::string kEmptyString;
const std::vector<std::uint8_t> kEmptyBlob;

/// First entry of a name-sorted attribute vector whose name is not below
/// `name`.
template <typename Attrs>
auto lowerBound(Attrs& attrs, const std::string& name) {
  return std::lower_bound(
      attrs.begin(), attrs.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
}
}  // namespace

bool AttributeValue::asBool(bool fallback) const {
  if (const bool* b = std::get_if<bool>(&v_)) return *b;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v_)) return *i != 0;
  return fallback;
}

std::int64_t AttributeValue::asInt(std::int64_t fallback) const {
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v_)) return *i;
  if (const double* d = std::get_if<double>(&v_))
    return static_cast<std::int64_t>(*d);
  if (const bool* b = std::get_if<bool>(&v_)) return *b ? 1 : 0;
  return fallback;
}

double AttributeValue::asDouble(double fallback) const {
  if (const double* d = std::get_if<double>(&v_)) return *d;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v_))
    return static_cast<double>(*i);
  return fallback;
}

const std::string& AttributeValue::asString() const {
  if (const std::string* s = std::get_if<std::string>(&v_)) return *s;
  return kEmptyString;
}

math::Vec3 AttributeValue::asVec3(math::Vec3 fallback) const {
  if (const math::Vec3* v = std::get_if<math::Vec3>(&v_)) return *v;
  return fallback;
}

const std::vector<std::uint8_t>& AttributeValue::asBlob() const {
  if (const auto* b = std::get_if<std::vector<std::uint8_t>>(&v_)) return *b;
  return kEmptyBlob;
}

void AttributeValue::encode(net::WireWriter& w) const {
  if (const bool* b = std::get_if<bool>(&v_)) {
    w.u8(static_cast<std::uint8_t>(Tag::kBool));
    w.boolean(*b);
  } else if (const std::int64_t* i = std::get_if<std::int64_t>(&v_)) {
    w.u8(static_cast<std::uint8_t>(Tag::kInt));
    w.i64(*i);
  } else if (const double* d = std::get_if<double>(&v_)) {
    w.u8(static_cast<std::uint8_t>(Tag::kDouble));
    w.f64(*d);
  } else if (const std::string* s = std::get_if<std::string>(&v_)) {
    w.u8(static_cast<std::uint8_t>(Tag::kString));
    w.str(*s);
  } else if (const math::Vec3* v = std::get_if<math::Vec3>(&v_)) {
    w.u8(static_cast<std::uint8_t>(Tag::kVec3));
    w.f64(v->x);
    w.f64(v->y);
    w.f64(v->z);
  } else if (const auto* blob = std::get_if<std::vector<std::uint8_t>>(&v_)) {
    w.u8(static_cast<std::uint8_t>(Tag::kBlob));
    w.blob(*blob);
  }
}

std::optional<AttributeValue> AttributeValue::decode(net::WireReader& r) {
  const auto tag = r.u8();
  if (!tag) return std::nullopt;
  switch (static_cast<Tag>(*tag)) {
    case Tag::kBool: {
      const auto v = r.boolean();
      if (!v) return std::nullopt;
      return AttributeValue(*v);
    }
    case Tag::kInt: {
      const auto v = r.i64();
      if (!v) return std::nullopt;
      return AttributeValue(*v);
    }
    case Tag::kDouble: {
      const auto v = r.f64();
      if (!v) return std::nullopt;
      return AttributeValue(*v);
    }
    case Tag::kString: {
      auto v = r.str();
      if (!v) return std::nullopt;
      return AttributeValue(std::move(*v));
    }
    case Tag::kVec3: {
      const auto x = r.f64();
      const auto y = r.f64();
      const auto z = r.f64();
      if (!x || !y || !z) return std::nullopt;
      return AttributeValue(math::Vec3{*x, *y, *z});
    }
    case Tag::kBlob: {
      auto v = r.blob();
      if (!v) return std::nullopt;
      return AttributeValue(std::move(*v));
    }
  }
  return std::nullopt;
}

AttributeSet::AttributeSet(
    std::initializer_list<std::pair<const std::string, AttributeValue>> init) {
  attrs_.reserve(init.size());
  // std::map's rule: of repeated names the first one listed stays.
  for (const auto& [name, value] : init)
    if (!has(name)) set(name, value);
}

void AttributeSet::set(const std::string& name, AttributeValue v) {
  const auto it = lowerBound(attrs_, name);
  if (it != attrs_.end() && it->first == name) {
    it->second = std::move(v);
  } else {
    attrs_.emplace(it, name, std::move(v));
  }
}

const AttributeValue* AttributeSet::find(const std::string& name) const {
  const auto it = lowerBound(attrs_, name);
  return it != attrs_.end() && it->first == name ? &it->second : nullptr;
}

bool AttributeSet::getBool(const std::string& name, bool fallback) const {
  const AttributeValue* v = find(name);
  return v != nullptr ? v->asBool(fallback) : fallback;
}

std::int64_t AttributeSet::getInt(const std::string& name,
                                  std::int64_t fallback) const {
  const AttributeValue* v = find(name);
  return v != nullptr ? v->asInt(fallback) : fallback;
}

double AttributeSet::getDouble(const std::string& name, double fallback) const {
  const AttributeValue* v = find(name);
  return v != nullptr ? v->asDouble(fallback) : fallback;
}

std::string AttributeSet::getString(const std::string& name,
                                    const std::string& fallback) const {
  const AttributeValue* v = find(name);
  return v != nullptr && v->isString() ? v->asString() : fallback;
}

math::Vec3 AttributeSet::getVec3(const std::string& name,
                                 math::Vec3 fallback) const {
  const AttributeValue* v = find(name);
  return v != nullptr ? v->asVec3(fallback) : fallback;
}

std::vector<std::uint8_t> AttributeSet::encode() const {
  net::WireWriter w;
  encodeInto(w);
  return w.take();
}

void AttributeSet::encodeInto(net::WireWriter& w) const {
  w.u16(static_cast<std::uint16_t>(attrs_.size()));
  for (const auto& [name, value] : attrs_) {
    w.str(name);
    value.encode(w);
  }
}

std::optional<AttributeSet> AttributeSet::decode(
    std::span<const std::uint8_t> bytes) {
  net::WireReader r(bytes);
  const auto n = r.u16();
  if (!n) return std::nullopt;
  AttributeSet set;
  // An entry takes at least 4 bytes (u16 name length, tag, 1-byte bool),
  // so a corrupt count cannot reserve more than the payload could hold.
  set.attrs_.reserve(std::min<std::size_t>(*n, r.remaining() / 4));
  for (std::uint16_t i = 0; i < *n; ++i) {
    auto name = r.str();
    if (!name) return std::nullopt;
    auto value = AttributeValue::decode(r);
    if (!value) return std::nullopt;
    // encode() writes names in ascending order, so a well-formed payload
    // appends; names that arrive unsorted or repeated take set()'s path.
    if (set.attrs_.empty() || set.attrs_.back().first < *name) {
      set.attrs_.emplace_back(std::move(*name), std::move(*value));
    } else {
      set.set(*name, std::move(*value));
    }
  }
  return set;
}

}  // namespace cod::core
