#pragma once
// Key/value run configuration.
//
// Bench binaries and examples accept `key=value` arguments (mirroring the
// paper artifact's environment-variable knobs); Config parses them and
// serves typed lookups with defaults.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pvc {

/// Immutable-after-parse configuration dictionary.
class Config {
 public:
  Config() = default;

  /// Parses `argv[1..argc)` entries of the form `key=value`.  Arguments
  /// without '=' are collected as positional arguments.  A key given
  /// twice throws ErrorCode::InvalidArgument naming it.
  static Config from_args(int argc, const char* const* argv);

  /// Parses a single `key=value` string; throws on malformed input.
  void set(const std::string& entry);
  void set(const std::string& key, const std::string& value);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Typed getters with defaults.  A present value that fails to parse
  /// as the requested type throws ErrorCode::InvalidArgument naming the
  /// key, as does an integer outside the range of long or a double that
  /// is not finite (`nan`, `inf`).
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Every option key that was set, sorted ascending (the map order).
  /// Benches validate these against their accepted-key sets so a typo
  /// like `simranks=512` fails loudly instead of being ignored.
  [[nodiscard]] std::vector<std::string> keys() const;

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Refuses an option's value: throws ErrorCode::InvalidArgument reading
/// `Config: value for '<key>' <problem>: <key>=<value>`, the one format
/// every binary uses to name the option it cannot use.
[[noreturn]] void reject_option(const std::string& key,
                                const std::string& value,
                                const std::string& problem);

}  // namespace pvc
