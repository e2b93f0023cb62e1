#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace prdma::bench {

/// One documented flag: `--name=<value_hint>` (or `--name` when
/// value_hint is empty) plus its help line.
struct FlagSpec {
  std::string name;
  std::string value_hint;
  std::string help;
};

/// --key=value flag parser shared by every bench binary.
///
/// Beyond the historical bare parser this carries a declarative
/// registry: the common knobs every binary answers (--seed --ops
/// --jobs --json --trace --quick) plus per-binary extras, from which
/// --help output is generated. Unknown flags are still silently
/// ignored (pre-existing idiom; see the verify notes).
class Flags {
 public:
  Flags(int argc, char** argv);
  Flags(int argc, char** argv, std::vector<FlagSpec> extra,
        std::string synopsis = {});

  // ---- typed accessors ----

  [[nodiscard]] std::uint64_t u64(const std::string& key,
                                  std::uint64_t def) const;
  [[nodiscard]] double f64(const std::string& key, double def) const;
  [[nodiscard]] bool flag(const std::string& key) const;
  [[nodiscard]] std::string str(const std::string& key,
                                std::string def) const;

  // ---- generated help ----

  [[nodiscard]] bool help_requested() const { return flag("help"); }
  [[nodiscard]] std::string usage(const std::string& argv0 = "bench") const;
  void print_help(std::ostream& os) const;
  void print_help() const;  ///< to stdout

  /// The registry of common knobs every bench binary understands.
  static const std::vector<FlagSpec>& common_flags();

 private:
  std::map<std::string, std::string> kv_;
  std::vector<FlagSpec> specs_;
  std::string synopsis_;
  std::string argv0_;
};

}  // namespace prdma::bench
