#include "common/cli.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace sunflow {

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        values_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[body] = argv[++i];
      } else {
        values_[body] = "true";  // bare flag => boolean true
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

std::optional<std::string> CliFlags::Raw(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

void CliFlags::Register(const std::string& name, const std::string& def,
                        const std::string& help) {
  docs_.push_back({name, def, help});
}

double CliFlags::GetDouble(const std::string& name, double def,
                           const std::string& help) {
  Register(name, std::to_string(def), help);
  if (auto raw = Raw(name)) {
    try {
      return std::stod(*raw);
    } catch (const std::exception&) {
      throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                  *raw + "'");
    }
  }
  return def;
}

std::int64_t CliFlags::GetInt(const std::string& name, std::int64_t def,
                              const std::string& help) {
  Register(name, std::to_string(def), help);
  if (auto raw = Raw(name)) {
    try {
      return std::stoll(*raw);
    } catch (const std::exception&) {
      throw std::invalid_argument("flag --" + name +
                                  " expects an integer, got '" + *raw + "'");
    }
  }
  return def;
}

bool CliFlags::GetBool(const std::string& name, bool def,
                       const std::string& help) {
  Register(name, def ? "true" : "false", help);
  if (auto raw = Raw(name)) {
    if (*raw == "true" || *raw == "1" || *raw == "yes") return true;
    if (*raw == "false" || *raw == "0" || *raw == "no") return false;
    throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                                *raw + "'");
  }
  return def;
}

std::string CliFlags::GetString(const std::string& name,
                                const std::string& def,
                                const std::string& help) {
  Register(name, def, help);
  if (auto raw = Raw(name)) return *raw;
  return def;
}

std::vector<std::string> CliFlags::Unregistered() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : values_) {
    if (std::ranges::none_of(docs_, [&](const FlagDoc& d) {
          return d.name == name;
        }))
      names.push_back(name);
  }
  return names;
}

void CliFlags::PrintHelp(const std::string& program_description) const {
  std::printf("%s\n\nFlags:\n", program_description.c_str());
  for (const auto& d : docs_) {
    std::printf("  --%-24s (default: %s) %s\n", d.name.c_str(), d.def.c_str(),
                d.help.c_str());
  }
}

}  // namespace sunflow
