// Minimal command-line flag parsing for benchmark and example binaries.
// Supports --name=value and --name value forms plus typed getters.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace ust {

/// \brief Parsed --key=value command line flags.
///
/// Unknown flags are retained (benchmark binaries forward the rest to
/// google-benchmark). GetInt and GetDouble exit the process with status 2
/// and a usage error naming the flag when its value does not parse in full
/// or is out of range: `--worlds=1e4` or `--worlds=abc` never runs with a
/// silently truncated count.
class Flags {
 public:
  /// Parse argv. Positional (non `--`) arguments are ignored.
  static Flags Parse(int argc, char** argv);

  bool Has(const std::string& name) const;

  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace ust
