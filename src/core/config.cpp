#include "core/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "core/error.hpp"

namespace pvc {

void reject_option(const std::string& key, const std::string& value,
                   const std::string& problem) {
  raise(ErrorCode::InvalidArgument, "Config: value for '" + key + "' " +
                                        problem + ": " + key + "=" + value);
}

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      const std::string key = arg.substr(0, eq);
      ensure(!cfg.has(key), ErrorCode::InvalidArgument,
             "Config: option '" + key + "' given more than once");
      cfg.set(arg);
    } else {
      cfg.positional_.push_back(arg);
    }
  }
  return cfg;
}

void Config::set(const std::string& entry) {
  const auto eq = entry.find('=');
  ensure(eq != std::string::npos && eq > 0,
         "Config: malformed entry (expected key=value): " + entry);
  set(entry.substr(0, eq), entry.substr(eq + 1));
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) {
    out.push_back(key);
  }
  return out;
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

long Config::get_int(const std::string& key, long fallback) const {
  const auto v = get(key);
  if (!v) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const long out = std::strtol(v->c_str(), &end, 10);
  if (v->empty() || *end != '\0') {
    reject_option(key, *v, "is not an integer");
  }
  if (errno == ERANGE) {
    reject_option(key, *v, "is out of range");
  }
  return out;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) {
    return fallback;
  }
  char* end = nullptr;
  const double out = std::strtod(v->c_str(), &end);
  if (v->empty() || *end != '\0') {
    reject_option(key, *v, "is not a number");
  }
  if (!std::isfinite(out)) {
    reject_option(key, *v, "is not a finite number");
  }
  return out;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) {
    return fallback;
  }
  std::string lower = *v;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off") {
    return false;
  }
  reject_option(key, *v, "is not a boolean");
}

}  // namespace pvc
