#include "prism/event.h"

#include <algorithm>

namespace dif::prism {

void Event::set(std::string key, ParamValue value) {
  const auto it =
      std::find_if(params_.begin(), params_.end(),
                   [&](const auto& p) { return p.first == key; });
  if (it != params_.end()) {
    it->second = std::move(value);
  } else {
    params_.emplace_back(std::move(key), std::move(value));
  }
}

bool Event::has(std::string_view key) const {
  return std::any_of(params_.begin(), params_.end(),
                     [&](const auto& p) { return p.first == key; });
}

namespace {
const ParamValue* find_param(
    const std::vector<std::pair<std::string, ParamValue>>& params,
    std::string_view key) {
  const auto it = std::find_if(params.begin(), params.end(),
                               [&](const auto& p) { return p.first == key; });
  return it == params.end() ? nullptr : &it->second;
}
}  // namespace

std::optional<bool> Event::get_bool(std::string_view key) const {
  const ParamValue* v = find_param(params_, key);
  if (!v) return std::nullopt;
  if (const bool* b = std::get_if<bool>(v)) return *b;
  return std::nullopt;
}

std::optional<double> Event::get_double(std::string_view key) const {
  const ParamValue* v = find_param(params_, key);
  if (!v) return std::nullopt;
  if (const double* d = std::get_if<double>(v)) return *d;
  return std::nullopt;
}

const std::string* Event::get_string(std::string_view key) const {
  const ParamValue* v = find_param(params_, key);
  return v ? std::get_if<std::string>(v) : nullptr;
}

const std::vector<std::uint8_t>* Event::get_bytes(std::string_view key) const {
  const ParamValue* v = find_param(params_, key);
  return v ? std::get_if<std::vector<std::uint8_t>>(v) : nullptr;
}

namespace {
/// What set(flag, true) stores under a flag's key.
const ParamValue kFlagValue = true;

/// Encoded size of a parameter: length-prefixed key, type tag, value.
std::size_t param_wire_size(std::string_view key, const ParamValue& value) {
  const std::size_t head = 4 + key.size() + 1;
  switch (value.index()) {
    case 0: return head + 1;
    case 1: return head + 8;
    case 2: return head + 4 + std::get<std::string>(value).size();
    default:
      return head + 4 + std::get<std::vector<std::uint8_t>>(value).size();
  }
}

void write_param(ByteWriter& w, std::string_view key, const ParamValue& value) {
  w.str(key);
  w.u8(static_cast<std::uint8_t>(value.index()));
  switch (value.index()) {
    case 0: w.u8(std::get<bool>(value) ? 1 : 0); break;
    case 1: w.f64(std::get<double>(value)); break;
    case 2: w.str(std::get<std::string>(value)); break;
    case 3: w.bytes(std::get<std::vector<std::uint8_t>>(value)); break;
  }
}
}  // namespace

std::size_t Event::flag_index(const std::string_view* flag) const {
  if (!flag) return params_.size() + 1;  // no flag: matches nothing
  const auto it = std::find_if(params_.begin(), params_.end(),
                               [&](const auto& p) { return p.first == *flag; });
  return static_cast<std::size_t>(it - params_.begin());
}

std::size_t Event::accounted_bytes(const std::string_view* flag) const {
  // Header + param payload; close enough for bandwidth accounting.
  std::size_t bytes = name_.size() + to_.size() + from_.size() + 16;
  const auto add = [&bytes](std::string_view key, const ParamValue& value) {
    bytes += key.size() + 8;
    if (const auto* s = std::get_if<std::string>(&value)) bytes += s->size();
    if (const auto* b = std::get_if<std::vector<std::uint8_t>>(&value))
      bytes += b->size();
  };
  const std::size_t at = flag_index(flag);
  for (std::size_t i = 0; i < params_.size(); ++i)
    add(params_[i].first, i == at ? kFlagValue : params_[i].second);
  if (at == params_.size()) add(*flag, kFlagValue);
  return bytes;
}

double Event::size_kb() const {
  return static_cast<double>(accounted_bytes(nullptr)) / 1024.0;
}

double Event::size_kb_flagged(std::string_view flag) const {
  return static_cast<double>(accounted_bytes(&flag)) / 1024.0;
}

std::vector<std::uint8_t> Event::encode(const std::string_view* flag) const {
  // set(flag, true) overwrites the first parameter with that key in place
  // or appends one; `at` is that position.
  const std::size_t at = flag_index(flag);
  const bool append_flag = at == params_.size();
  const auto value = [&](std::size_t i) -> const ParamValue& {
    return i == at ? kFlagValue : params_[i].second;
  };
  // Size the buffer once: three length-prefixed strings, the param count,
  // the params.
  std::size_t total = 12 + name_.size() + to_.size() + from_.size() + 4;
  for (std::size_t i = 0; i < params_.size(); ++i)
    total += param_wire_size(params_[i].first, value(i));
  if (append_flag) total += param_wire_size(*flag, kFlagValue);

  ByteWriter w;
  w.reserve(total);
  w.str(name_);
  w.str(to_);
  w.str(from_);
  w.u32(static_cast<std::uint32_t>(params_.size() + (append_flag ? 1 : 0)));
  for (std::size_t i = 0; i < params_.size(); ++i)
    write_param(w, params_[i].first, value(i));
  if (append_flag) write_param(w, *flag, kFlagValue);
  return w.take();
}

std::vector<std::uint8_t> Event::serialize() const { return encode(nullptr); }

std::vector<std::uint8_t> Event::serialize_flagged(
    std::string_view flag) const {
  return encode(&flag);
}

Event Event::deserialize(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  Event event(r.str());
  event.to_ = r.str();
  event.from_ = r.str();
  const std::uint32_t count = r.u32();
  // Every encoded parameter takes at least 6 bytes (empty key, tag, bool),
  // so a corrupt count cannot reserve more than the input could hold.
  event.params_.reserve(std::min<std::size_t>(count, r.remaining() / 6));
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key = r.str();
    switch (r.u8()) {
      case 0: event.params_.emplace_back(std::move(key), r.u8() != 0); break;
      case 1: event.params_.emplace_back(std::move(key), r.f64()); break;
      case 2: event.params_.emplace_back(std::move(key), r.str()); break;
      case 3: event.params_.emplace_back(std::move(key), r.bytes()); break;
      default: throw DecodeError("Event: unknown parameter type tag");
    }
  }
  return event;
}

}  // namespace dif::prism
