// cli.hpp — minimal command-line flag parser for the tonosim tools.
//
// Deliberately tiny: typed flags (`--name value`), boolean switches
// (`--name`), defaults, required flags, numeric bounds, string choices and
// generated `--help` text. A value outside its bounds or choices fails in
// parse(), with a message naming the flag and the bound, so a tool needs no
// hand-written range checks. No external dependency, so the CLI builds in
// the offline environment.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tono {

/// Bounds of a numeric flag: `min`/`max` inclusive, `above` exclusive
/// (value > above).
struct Bounds {
  std::optional<double> min{};
  std::optional<double> above{};
  std::optional<double> max{};
};

class ArgParser {
 public:
  explicit ArgParser(std::string program, std::string description = "");

  /// Registers flags. `name` without the leading dashes.
  void add_flag(const std::string& name, const std::string& help);  // boolean
  /// Bounds and choices constrain user values and the default alike; a
  /// default outside them throws std::invalid_argument (a programming error).
  /// Empty `choices` admits any string.
  void add_string(const std::string& name, const std::string& help,
                  std::optional<std::string> default_value = std::nullopt,
                  std::vector<std::string> choices = {});
  void add_double(const std::string& name, const std::string& help,
                  std::optional<double> default_value = std::nullopt, Bounds bounds = {});
  void add_int(const std::string& name, const std::string& help,
               std::optional<long> default_value = std::nullopt, Bounds bounds = {});

  /// Parses argv (excluding argv[0] handling — pass argc/argv as received).
  /// Returns false and fills error() on failure or if --help was requested
  /// (help_requested() distinguishes the two).
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] bool flag(const std::string& name) const;
  [[nodiscard]] std::string string_value(const std::string& name) const;
  [[nodiscard]] double double_value(const std::string& name) const;
  [[nodiscard]] long int_value(const std::string& name) const;

  /// Positional arguments (anything not starting with --).
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] bool help_requested() const noexcept { return help_requested_; }
  [[nodiscard]] std::string help_text() const;

 private:
  enum class Kind { kFlag, kString, kDouble, kInt };
  struct Option {
    Kind kind;
    std::string help;
    std::optional<std::string> default_value;
    std::optional<std::string> value;
    std::string constraint;  ///< e.g. ">= 1" or "one of drop|block"; empty = none
    std::function<bool(const std::string&)> admits;  ///< a syntax-checked value obeys it
  };

  void add(const std::string& name, Kind kind, const std::string& help,
           std::optional<std::string> default_value, std::string constraint = "",
           std::function<bool(const std::string&)> admits = {});
  void add_bounded(const std::string& name, Kind kind, const std::string& help,
                   std::optional<std::string> default_value, Bounds bounds);
  [[nodiscard]] const Option& option_or_throw(const std::string& name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
  std::string error_;
  bool help_requested_{false};
};

}  // namespace tono
