// Command-line flag handling shared by the BRISK executables.
//
// FlagRegistry is a declarative flag table: each flag is declared once with
// (name, type, default, help), --help output is generated from the
// declarations, and unknown flags and type errors are rejected against
// them. Flags are written --key=value, --key value, or bare --key for a
// boolean. The daemon mains declare their knob tables (core/knobs.hpp)
// with add_knobs and copy the parsed values into their configs with
// apply_knobs; nothing is stringly-typed twice.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/string_util.hpp"
#include "core/knobs.hpp"

namespace brisk::apps {

/// Declarative flag table: declare every flag once, parse against the
/// declarations, read typed values by name. `--help` prints the generated
/// usage text and exits 0; unknown flags, missing declarations, and type
/// mismatches exit 2.
class FlagRegistry {
 public:
  FlagRegistry(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  FlagRegistry& add_string(const std::string& name, const std::string& fallback,
                           const std::string& help) {
    return declare(name, fallback, help);
  }
  FlagRegistry& add_int(const std::string& name, long long fallback, const std::string& help) {
    return declare(name, fallback, help);
  }
  FlagRegistry& add_double(const std::string& name, double fallback, const std::string& help) {
    return declare(name, fallback, help);
  }
  FlagRegistry& add_bool(const std::string& name, bool fallback, const std::string& help) {
    return declare(name, fallback, help);
  }

  /// Declares the flag of every knob row that has one, in table order. Each
  /// default is the knob's value in a default-constructed Config.
  template <typename Config>
  FlagRegistry& add_knobs(std::span<const Knob<Config>> knobs) {
    const Config defaults{};
    for (const Knob<Config>& knob : knobs) {
      if (knob.flag != nullptr) declare(knob.flag, knob.field.get(defaults), knob.help);
    }
    return *this;
  }

  /// Checks every knob flag against its row's range and stores it into
  /// `config` through the row; a row without a setter is only checked (its
  /// main reads the flag). A value out of range, or one the setter rejects,
  /// exits 2 with a message naming the flag.
  template <typename Config>
  void apply_knobs(std::span<const Knob<Config>> knobs, Config& config) const {
    for (const Knob<Config>& knob : knobs) {
      if (knob.flag == nullptr) continue;
      const KnobValue& value = find(knob.flag).value;
      std::string error = knob_range_error(value, knob.min, knob.max);
      if (error.empty() && knob.field.set != nullptr) {
        error = knob.field.set(config, value).message();  // empty when stored
      }
      if (error.empty()) continue;
      const std::string key = knob.key != nullptr ? std::string(" (") + knob.key + ")" : "";
      std::fprintf(stderr, "%s: flag --%s%s: %s\n", program_.c_str(), knob.flag, key.c_str(),
                   error.c_str());
      std::exit(2);
    }
  }

  /// Tokenizes argv, handles --help, and type-checks every provided value
  /// against its declaration (even values the program never reads).
  void parse(int argc, char** argv) {
    std::map<std::string, std::string> values = tokenize(argc, argv);
    if (values.count("help") != 0) {
      std::printf("%s", help_text().c_str());
      std::exit(0);
    }
    for (auto& spec : specs_) {
      const auto it = values.find(spec.name);
      if (it == values.end()) continue;
      spec.provided = true;
      if (!assign(spec.value, it->second)) {
        std::fprintf(stderr, "%s: flag --%s expects %s, got '%s'\n", program_.c_str(),
                     spec.name.c_str(), kTypes[spec.value.index()].expected,
                     it->second.c_str());
        std::exit(2);
      }
      values.erase(it);
    }
    if (!values.empty()) {
      std::fprintf(stderr, "unknown flag: --%s\n", values.begin()->first.c_str());
      std::exit(2);
    }
  }

  [[nodiscard]] std::string str(const std::string& name) const { return typed<std::string>(name); }
  [[nodiscard]] long long num(const std::string& name) const { return typed<long long>(name); }
  /// Reads an integer flag that counts, sizes or names something as a T.
  /// Negative values and values past `max` (the largest T by default) exit
  /// 2 with a message naming the flag — a cast would wrap them silently.
  template <typename T>
  [[nodiscard]] T count(const std::string& name,
                        unsigned long long max = std::numeric_limits<T>::max()) const {
    const long long value = num(name);
    if (value < 0 || static_cast<unsigned long long>(value) > max) {
      std::fprintf(stderr, "%s: flag --%s must be in [0, %llu], got %lld\n", program_.c_str(),
                   name.c_str(), max, value);
      std::exit(2);
    }
    return static_cast<T>(value);
  }
  /// A node id flag: below 0xFFFFFFFF, the id reserved for ISM-originated
  /// metrics records.
  [[nodiscard]] std::uint32_t node_id(const std::string& name) const {
    return count<std::uint32_t>(name, 0xFFFF'FFFEu);
  }
  [[nodiscard]] double real(const std::string& name) const { return typed<double>(name); }
  [[nodiscard]] bool flag(const std::string& name) const { return typed<bool>(name); }
  [[nodiscard]] bool provided(const std::string& name) const {
    for (const auto& spec : specs_) {
      if (spec.name == name) return spec.provided;
    }
    return false;
  }

  [[nodiscard]] std::string help_text() const {
    // Every help text starts in one column, two spaces past the longest name.
    std::size_t width = std::string("help").size();
    for (const auto& spec : specs_) width = std::max(width, spec.name.size());
    std::string out = "usage: " + program_ + " [--flag[=value] ...]\n  " + summary_ + "\n\n";
    auto line = [&out, width](const std::string& name, const std::string& text) {
      out += "  --" + name + std::string(width + 2 - name.size(), ' ') + text + "\n";
    };
    for (const auto& spec : specs_) {
      line(spec.name, spec.help + " [" + kTypes[spec.value.index()].name +
                          ", default: " + spec.fallback + "]");
    }
    line("help", "print this help and exit");
    return out;
  }

 private:
  struct Spec {
    std::string name;
    KnobValue value;       // the default until parse() overwrites it
    std::string fallback;  // the default as --help shows it
    std::string help;
    bool provided = false;
  };

  // Per KnobValue alternative, in its order: the --help type name and what
  // a bad value was expected to be.
  struct TypeInfo {
    const char* name;
    const char* expected;
  };
  static constexpr TypeInfo kTypes[] = {{"int", "an integer"},
                                        {"float", "a number"},
                                        {"bool", "a boolean (true/false/1/0/yes/no)"},
                                        {"string", "a string"}};

  /// Splits argv into flag → value: --key=value, --key value, or a bare
  /// --key (value "true") when the next argument is another flag or absent.
  /// A positional argument exits 2.
  static std::map<std::string, std::string> tokenize(int argc, char** argv) {
    std::map<std::string, std::string> values;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      arg = arg.substr(2);
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values[arg] = argv[++i];
      } else {
        values[arg] = "true";
      }
    }
    return values;
  }

  FlagRegistry& declare(const std::string& name, KnobValue fallback, const std::string& help) {
    for (const auto& spec : specs_) {
      if (spec.name == name) {
        std::fprintf(stderr, "%s: flag --%s declared twice\n", program_.c_str(), name.c_str());
        std::exit(2);
      }
    }
    char text[64] = "";
    if (const auto* integer = std::get_if<long long>(&fallback)) {
      std::snprintf(text, sizeof text, "%lld", *integer);
    } else if (const auto* real = std::get_if<double>(&fallback)) {
      std::snprintf(text, sizeof text, "%g", *real);
    } else if (const auto* boolean = std::get_if<bool>(&fallback)) {
      std::snprintf(text, sizeof text, "%s", *boolean ? "true" : "false");
    }
    const auto* string = std::get_if<std::string>(&fallback);
    specs_.push_back(Spec{name, fallback, string != nullptr ? "\"" + *string + "\"" : text, help});
    return *this;
  }

  /// Parses `text` as the type `value` holds into `value`; false if it is not one.
  static bool assign(KnobValue& value, const std::string& text) {
    if (std::holds_alternative<long long>(value)) {
      const auto parsed = parse_int(text);
      if (parsed) value = *parsed;
      return parsed.has_value();
    }
    if (std::holds_alternative<double>(value)) {
      const auto parsed = parse_double(text);
      if (parsed) value = *parsed;
      return parsed.has_value();
    }
    if (std::holds_alternative<bool>(value)) {
      const bool yes = text == "true" || text == "1" || text == "yes";
      value = yes;
      return yes || text == "false" || text == "0" || text == "no";
    }
    value = text;
    return true;
  }

  template <typename T>
  [[nodiscard]] const T& typed(const std::string& name) const {
    const Spec& spec = find(name);
    if (!std::holds_alternative<T>(spec.value)) {
      std::fprintf(stderr, "%s: flag --%s read with the wrong type\n", program_.c_str(),
                   name.c_str());
      std::exit(2);
    }
    return std::get<T>(spec.value);
  }

  [[nodiscard]] const Spec& find(const std::string& name) const {
    for (const auto& spec : specs_) {
      if (spec.name == name) return spec;
    }
    std::fprintf(stderr, "%s: flag --%s read but never declared\n", program_.c_str(),
                 name.c_str());
    std::exit(2);
  }

  std::string program_;
  std::string summary_;
  std::vector<Spec> specs_;
};

}  // namespace brisk::apps
