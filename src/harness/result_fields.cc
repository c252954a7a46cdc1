#include "src/harness/result_fields.h"

#include <bit>
#include <type_traits>
#include <vector>

namespace chronotier {
namespace {

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

// --- first difference ---

template <typename T>
std::string Diff(const T& a, const T& b, const std::string& path);

template <typename Struct>
std::string DiffFields(const Struct& a, const Struct& b, const std::string& prefix) {
  std::string diff;
  ForEachResultField<Struct>([&](const auto& field) {
    if (diff.empty()) {
      diff = Diff(a.*field.member, b.*field.member, prefix + std::string(field.name));
    }
  });
  return diff;
}

template <typename T>
std::string Diff(const T& a, const T& b, const std::string& path) {
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b) ? "" : path;
  } else if constexpr (std::is_same_v<T, TenantResult>) {
    return DiffFields(a, b, path + ".");
  } else if constexpr (kIsVector<T>) {
    if (a.size() != b.size()) {
      return path + ".size";
    }
    for (size_t i = 0; i < a.size(); ++i) {
      std::string diff = Diff(a[i], b[i], path + "[" + std::to_string(i) + "]");
      if (!diff.empty()) {
        return diff;
      }
    }
    return "";
  } else {
    return a == b ? "" : path;
  }
}

// --- fingerprint ---

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

template <typename T>
uint64_t MixValue(uint64_t h, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    return Mix(h, std::bit_cast<uint64_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    return Mix(h, static_cast<uint64_t>(v));
  } else if constexpr (std::is_same_v<T, TenantResult>) {
    ForEachResultField<TenantResult>(
        [&](const auto& field) { h = MixValue(h, v.*field.member); });
    return h;
  } else {  // std::string or std::vector: length, then elements.
    h = Mix(h, v.size());
    for (const auto& element : v) {
      h = MixValue(h, element);
    }
    return h;
  }
}

// --- JSON ---

template <typename T>
void WriteValue(JsonWriter& json, const T& v) {
  if constexpr (std::is_same_v<T, TenantResult>) {
    json.BeginObject();
    ForEachResultField<TenantResult>([&](const auto& field) {
      json.Key(field.name);
      WriteValue(json, v.*field.member);
    });
    json.EndObject();
  } else if constexpr (kIsVector<T>) {
    json.BeginArray();
    for (const auto& element : v) {
      WriteValue(json, element);
    }
    json.EndArray();
  } else {
    json.Value(v);
  }
}

}  // namespace

std::string FirstDifference(const ExperimentResult& a, const ExperimentResult& b) {
  return DiffFields(a, b, "");
}

uint64_t ResultFingerprint(const ExperimentResult& result) {
  uint64_t h = 1469598103934665603ull;
  ForEachResultField<ExperimentResult>(
      [&](const auto& field) { h = MixValue(h, result.*field.member); });
  return h;
}

void WriteResultFields(JsonWriter& json, const ExperimentResult& result) {
  ForEachResultField<ExperimentResult>([&](const auto& field) {
    json.Key(field.name);
    WriteValue(json, result.*field.member);
  });
}

}  // namespace chronotier
