#include "src/common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace tono {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

namespace {

/// Appends "<op><bound>" to a constraint, joining clauses with " and ".
void add_clause(std::string& constraint, const char* op, std::optional<double> bound) {
  if (!bound) return;
  std::ostringstream oss;
  oss << op << *bound;
  constraint += (constraint.empty() ? "" : " and ") + oss.str();
}

}  // namespace

void ArgParser::add(const std::string& name, Kind kind, const std::string& help,
                    std::optional<std::string> default_value, std::string constraint,
                    std::function<bool(const std::string&)> admits) {
  if (options_.count(name) != 0) {
    throw std::invalid_argument{"ArgParser: duplicate option --" + name};
  }
  if (default_value && admits && !admits(*default_value)) {
    throw std::invalid_argument{"ArgParser: default of --" + name + " is not " +
                                constraint};
  }
  options_[name] = Option{kind, help, std::move(default_value), std::nullopt,
                          std::move(constraint), std::move(admits)};
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  add(name, Kind::kFlag, help, std::nullopt);
}

void ArgParser::add_string(const std::string& name, const std::string& help,
                           std::optional<std::string> default_value,
                           std::vector<std::string> choices) {
  if (choices.empty()) {
    add(name, Kind::kString, help, std::move(default_value));
    return;
  }
  std::string constraint = "one of ";
  for (std::size_t i = 0; i < choices.size(); ++i) {
    constraint += (i == 0 ? "" : "|") + choices[i];
  }
  add(name, Kind::kString, help, std::move(default_value), std::move(constraint),
      [choices = std::move(choices)](const std::string& v) {
        return std::find(choices.begin(), choices.end(), v) != choices.end();
      });
}

void ArgParser::add_double(const std::string& name, const std::string& help,
                           std::optional<double> default_value, Bounds bounds) {
  std::optional<std::string> def;
  if (default_value) {
    std::ostringstream oss;
    oss << *default_value;
    def = oss.str();
  }
  add_bounded(name, Kind::kDouble, help, std::move(def), bounds);
}

void ArgParser::add_int(const std::string& name, const std::string& help,
                        std::optional<long> default_value, Bounds bounds) {
  std::optional<std::string> def;
  if (default_value) def = std::to_string(*default_value);
  add_bounded(name, Kind::kInt, help, std::move(def), bounds);
}

void ArgParser::add_bounded(const std::string& name, Kind kind, const std::string& help,
                            std::optional<std::string> default_value, Bounds bounds) {
  std::string constraint;
  add_clause(constraint, ">= ", bounds.min);
  add_clause(constraint, "> ", bounds.above);
  add_clause(constraint, "<= ", bounds.max);
  // Integers compare as doubles: exact for every flag value below 2^53.
  add(name, kind, help, std::move(default_value), std::move(constraint),
      [bounds](const std::string& v) {
        const double x = std::strtod(v.c_str(), nullptr);
        return (!bounds.min || x >= *bounds.min) && (!bounds.above || x > *bounds.above) &&
               (!bounds.max || x <= *bounds.max);
      });
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string name = arg.substr(2);
    auto it = options_.find(name);
    if (it == options_.end()) {
      error_ = "unknown option --" + name;
      return false;
    }
    if (it->second.kind == Kind::kFlag) {
      it->second.value = "true";
      continue;
    }
    if (i + 1 >= argc) {
      error_ = "option --" + name + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    if (it->second.kind == Kind::kDouble) {
      // strtod's end pointer alone accepts "nan", "inf" and overflowing
      // exponents ("1e999" parses to +inf with ERANGE) — all of which would
      // propagate NaN/inf into scenario math. Finite values only.
      char* end = nullptr;
      errno = 0;
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        error_ = "option --" + name + " expects a number, got '" + value + "'";
        return false;
      }
      if (!std::isfinite(parsed)) {
        error_ = errno == ERANGE
                     ? "option --" + name + " number out of range: '" + value + "'"
                     : "option --" + name + " expects a finite number, got '" +
                           value + "'";
        return false;
      }
    } else if (it->second.kind == Kind::kInt) {
      // Validate with the same parser int_value() reads with: strtod would
      // accept "1.5" here only for strtol to truncate it silently later.
      char* end = nullptr;
      errno = 0;
      (void)std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        error_ = "option --" + name + " expects an integer, got '" + value + "'";
        return false;
      }
      if (errno == ERANGE) {
        error_ = "option --" + name + " integer out of range: '" + value + "'";
        return false;
      }
    }
    if (it->second.admits && !it->second.admits(value)) {
      error_ = "option --" + name + " must be " + it->second.constraint + ", got '" +
               value + "'";
      return false;
    }
    it->second.value = value;
  }
  // Required (no-default, non-flag) options must be present.
  for (const auto& [name, opt] : options_) {
    if (opt.kind != Kind::kFlag && !opt.value && !opt.default_value) {
      error_ = "missing required option --" + name;
      return false;
    }
  }
  return true;
}

const ArgParser::Option& ArgParser::option_or_throw(const std::string& name,
                                                    Kind kind) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.kind != kind) {
    throw std::invalid_argument{"ArgParser: unregistered option --" + name};
  }
  return it->second;
}

bool ArgParser::has(const std::string& name) const {
  const auto it = options_.find(name);
  return it != options_.end() && it->second.value.has_value();
}

bool ArgParser::flag(const std::string& name) const {
  return option_or_throw(name, Kind::kFlag).value.has_value();
}

std::string ArgParser::string_value(const std::string& name) const {
  const auto& opt = option_or_throw(name, Kind::kString);
  if (opt.value) return *opt.value;
  return opt.default_value.value_or("");
}

double ArgParser::double_value(const std::string& name) const {
  const auto& opt = option_or_throw(name, Kind::kDouble);
  const std::string raw = opt.value ? *opt.value : opt.default_value.value_or("0");
  // parse() already validated user input; a failure here means a registered
  // default was malformed — a programming error, not a usage error.
  char* end = nullptr;
  const double parsed = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    throw std::logic_error{"ArgParser: --" + name +
                           " holds unparsable double '" + raw + "'"};
  }
  return parsed;
}

long ArgParser::int_value(const std::string& name) const {
  const auto& opt = option_or_throw(name, Kind::kInt);
  const std::string raw = opt.value ? *opt.value : opt.default_value.value_or("0");
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::logic_error{"ArgParser: --" + name +
                           " holds unparsable integer '" + raw + "'"};
  }
  return parsed;
}

std::string ArgParser::help_text() const {
  std::ostringstream oss;
  oss << "usage: " << program_ << " [options]\n";
  if (!description_.empty()) oss << description_ << "\n";
  oss << "options:\n";
  for (const auto& name : order_) {
    const auto& opt = options_.at(name);
    oss << "  --" << name;
    switch (opt.kind) {
      case Kind::kFlag: break;
      case Kind::kString: oss << " <str>"; break;
      case Kind::kDouble: oss << " <num>"; break;
      case Kind::kInt: oss << " <int>"; break;
    }
    oss << "  " << opt.help;
    if (opt.default_value) oss << " (default " << *opt.default_value << ")";
    if (!opt.constraint.empty()) oss << " [" << opt.constraint << "]";
    oss << '\n';
  }
  oss << "  --help  show this message\n";
  return oss.str();
}

}  // namespace tono
