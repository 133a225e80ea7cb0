// Minimal command-line flag parsing for examples and bench binaries.
//
// Flags are "--name=value" or "--name value"; "--help" prints registered
// flags. This is intentionally tiny — just enough for reproducible
// experiment parameterization without an external dependency.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sunflow {

class CliFlags {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed flags.
  CliFlags(int argc, const char* const* argv);

  /// Typed getters with defaults; records the flag for --help output.
  double GetDouble(const std::string& name, double def,
                   const std::string& help = "");
  std::int64_t GetInt(const std::string& name, std::int64_t def,
                      const std::string& help = "");
  bool GetBool(const std::string& name, bool def,
               const std::string& help = "");
  std::string GetString(const std::string& name, const std::string& def,
                        const std::string& help = "");

  bool help_requested() const { return help_; }
  /// Prints registered flags and their defaults.
  void PrintHelp(const std::string& program_description) const;

  /// Positional (non-flag) arguments.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Parsed flags that no Get* call has registered, sorted by name.
  std::vector<std::string> Unregistered() const;

 private:
  std::optional<std::string> Raw(const std::string& name) const;
  void Register(const std::string& name, const std::string& def,
                const std::string& help);

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  bool help_ = false;

  struct FlagDoc {
    std::string name, def, help;
  };
  mutable std::vector<FlagDoc> docs_;
};

}  // namespace sunflow
