// A tiny declarative command-line parser for the bench/example binaries.
//
//   util::ArgParser args("fig5_tradeoff", "SkipTrain vs D-PSGD trade-off");
//   args.add_int("nodes", 256, "number of nodes");
//   args.add_flag("full", "run at full paper scale");
//   args.parse(argc, argv);           // exits(0) on --help
//   int nodes = args.get_int("nodes");
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace skiptrain::util {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);
  void add_flag(const std::string& name, const std::string& help);

  /// Parses --name=value / --name value / --flag arguments. Unknown options
  /// and malformed values (trailing garbage, integers outside int64, doubles
  /// out of range or not finite) throw std::runtime_error. "--help" prints
  /// usage and exits(0).
  void parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kInt, kDouble, kString, kFlag };
  struct Option {
    Kind kind;
    std::string value;  // textual representation, "0"/"1" for flags
    std::string default_value;
    std::string help;
  };

  const Option& find(const std::string& name, Kind kind) const;
  void add_option(const std::string& name, Kind kind,
                  const std::string& default_value, const std::string& help);

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
};

}  // namespace skiptrain::util
