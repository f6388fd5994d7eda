// Command-line flag handling shared by the BRISK executables.
//
// Two layers:
//  * FlagParser — the minimal --key=value / --key value tokenizer. No
//    external dependencies, fails loudly on unknown flags.
//  * FlagRegistry — a declarative registry on top of it: each flag is
//    declared once with (name, type, default, help), --help output is
//    generated from the declarations, unknown flags and type errors are
//    rejected against them. The daemon mains declare their knobs and read
//    typed values; nothing is stringly-typed twice.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/string_util.hpp"

namespace brisk::apps {

class FlagParser {
 public:
  FlagParser(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      arg = arg.substr(2);
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";  // bare boolean flag
      }
    }
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) {
    auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    consumed_.insert({key, true});
    return it->second;
  }

  [[nodiscard]] std::string get_string(const std::string& key, const std::string& fallback) {
    auto v = get(key);
    return v.has_value() ? *v : fallback;
  }

  [[nodiscard]] long long get_int(const std::string& key, long long fallback) {
    auto v = get(key);
    if (!v.has_value()) return fallback;
    auto parsed = parse_int(*v);
    if (!parsed) {
      std::fprintf(stderr, "flag --%s expects an integer, got '%s'\n", key.c_str(), v->c_str());
      std::exit(2);
    }
    return *parsed;
  }

  [[nodiscard]] double get_double(const std::string& key, double fallback) {
    auto v = get(key);
    if (!v.has_value()) return fallback;
    auto parsed = parse_double(*v);
    if (!parsed) {
      std::fprintf(stderr, "flag --%s expects a number, got '%s'\n", key.c_str(), v->c_str());
      std::exit(2);
    }
    return *parsed;
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) {
    auto v = get(key);
    if (!v.has_value()) return fallback;
    return *v == "true" || *v == "1" || *v == "yes";
  }

  /// Exits with an error if any provided flag was never consumed.
  void reject_unknown() {
    for (const auto& [key, value] : values_) {
      if (consumed_.find(key) == consumed_.end()) {
        std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
        std::exit(2);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
};

/// Declarative flag table: declare every flag once, parse against the
/// declarations, read typed values by name. `--help` prints the generated
/// usage text and exits 0; unknown flags, missing declarations, and type
/// mismatches exit 2.
class FlagRegistry {
 public:
  enum class Type { string, integer, real, boolean };

  FlagRegistry(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  FlagRegistry& add_string(const std::string& name, const std::string& fallback,
                           const std::string& help) {
    return declare(name, Type::string, fallback, help);
  }
  FlagRegistry& add_int(const std::string& name, long long fallback, const std::string& help) {
    return declare(name, Type::integer, std::to_string(fallback), help);
  }
  FlagRegistry& add_double(const std::string& name, double fallback, const std::string& help) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%g", fallback);
    return declare(name, Type::real, buf, help);
  }
  FlagRegistry& add_bool(const std::string& name, bool fallback, const std::string& help) {
    return declare(name, Type::boolean, fallback ? "true" : "false", help);
  }

  /// Tokenizes argv, handles --help, and type-checks every provided value
  /// against its declaration (even values the program never reads).
  void parse(int argc, char** argv) {
    FlagParser parser(argc, argv);
    if (parser.get("help").has_value()) {
      std::printf("%s", help_text().c_str());
      std::exit(0);
    }
    for (auto& spec : specs_) {
      auto v = parser.get(spec.name);
      if (!v.has_value()) continue;
      spec.value = *v;
      spec.provided = true;
      check_type(spec);
    }
    parser.reject_unknown();
  }

  [[nodiscard]] std::string str(const std::string& name) const {
    return find(name, Type::string).value;
  }
  [[nodiscard]] long long num(const std::string& name) const {
    return *parse_int(find(name, Type::integer).value);
  }
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
  [[nodiscard]] double real(const std::string& name) const {
    return *parse_double(find(name, Type::real).value);
  }
  [[nodiscard]] bool flag(const std::string& name) const {
    const std::string& v = find(name, Type::boolean).value;
    return v == "true" || v == "1" || v == "yes";
  }
  [[nodiscard]] bool provided(const std::string& name) const {
    for (const auto& spec : specs_) {
      if (spec.name == name) return spec.provided;
    }
    return false;
  }

  [[nodiscard]] std::string help_text() const {
    std::string out = "usage: " + program_ + " [--flag[=value] ...]\n  " + summary_ + "\n\n";
    for (const auto& spec : specs_) {
      char head[96];
      std::snprintf(head, sizeof head, "  --%-24s", spec.name.c_str());
      out += head;
      out += spec.help;
      out += " [";
      out += type_name(spec.type);
      out += ", default: ";
      out += spec.type == Type::string ? ("\"" + spec.fallback + "\"") : spec.fallback;
      out += "]\n";
    }
    out += "  --help                     print this help and exit\n";
    return out;
  }

 private:
  struct Spec {
    std::string name;
    Type type = Type::string;
    std::string fallback;
    std::string help;
    std::string value;     // fallback until parse() overwrites it
    bool provided = false;
  };

  FlagRegistry& declare(const std::string& name, Type type, const std::string& fallback,
                        const std::string& help) {
    for (const auto& spec : specs_) {
      if (spec.name == name) {
        std::fprintf(stderr, "%s: flag --%s declared twice\n", program_.c_str(), name.c_str());
        std::exit(2);
      }
    }
    specs_.push_back(Spec{name, type, fallback, help, fallback, false});
    return *this;
  }

  void check_type(const Spec& spec) const {
    switch (spec.type) {
      case Type::string:
        return;
      case Type::integer:
        if (!parse_int(spec.value)) fail_type(spec, "an integer");
        return;
      case Type::real:
        if (!parse_double(spec.value)) fail_type(spec, "a number");
        return;
      case Type::boolean:
        if (spec.value != "true" && spec.value != "false" && spec.value != "1" &&
            spec.value != "0" && spec.value != "yes" && spec.value != "no") {
          fail_type(spec, "a boolean (true/false/1/0/yes/no)");
        }
        return;
    }
  }

  [[noreturn]] void fail_type(const Spec& spec, const char* expected) const {
    std::fprintf(stderr, "%s: flag --%s expects %s, got '%s'\n", program_.c_str(),
                 spec.name.c_str(), expected, spec.value.c_str());
    std::exit(2);
  }

  [[nodiscard]] const Spec& find(const std::string& name, Type type) const {
    for (const auto& spec : specs_) {
      if (spec.name != name) continue;
      if (spec.type != type) {
        std::fprintf(stderr, "%s: flag --%s read with the wrong type\n", program_.c_str(),
                     name.c_str());
        std::exit(2);
      }
      return spec;
    }
    std::fprintf(stderr, "%s: flag --%s read but never declared\n", program_.c_str(),
                 name.c_str());
    std::exit(2);
  }

  static const char* type_name(Type type) noexcept {
    switch (type) {
      case Type::string: return "string";
      case Type::integer: return "int";
      case Type::real: return "float";
      case Type::boolean: return "bool";
    }
    return "?";
  }

  std::string program_;
  std::string summary_;
  std::vector<Spec> specs_;
};

}  // namespace brisk::apps
