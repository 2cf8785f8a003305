// Minimal command-line flag parser for bench/example binaries.
//
// Supports --name=value and --name value forms plus boolean switches
// (--verbose). Unknown flags are an error so typos in sweep scripts fail
// loudly instead of silently running the default experiment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace wsf::support {

/// Declarative flag registry + parser.
///
/// Usage:
///   ArgParser args("sim_explorer — run one graph on the simulator");
///   auto& p = args.add_int("procs", 8, "simulated processors");
///   args.parse(argc, argv);   // throws CheckError on bad input
///   use(p.value);
class ArgParser {
 public:
  explicit ArgParser(std::string program_description);

  struct IntFlag {
    std::int64_t value;
  };
  struct DoubleFlag {
    double value;
  };
  struct StringFlag {
    std::string value;
  };
  struct BoolFlag {
    bool value;
  };

  /// Registers a flag; the returned reference stays valid for the parser's
  /// lifetime and holds the parsed (or default) value after parse().
  IntFlag& add_int(const std::string& name, std::int64_t def,
                   const std::string& help);
  DoubleFlag& add_double(const std::string& name, double def,
                         const std::string& help);
  StringFlag& add_string(const std::string& name, const std::string& def,
                         const std::string& help);
  BoolFlag& add_bool(const std::string& name, bool def,
                     const std::string& help);

  /// Parses argv. Handles --help by printing usage and returning false (the
  /// caller should exit 0). Throws wsf::CheckError on malformed input.
  bool parse(int argc, const char* const* argv);

  /// Renders the usage/help text.
  std::string usage() const;

 private:
  enum class Kind { Int, Double, String, Bool };
  struct Entry {
    Kind kind;
    std::string help;
    std::string default_repr;
    std::size_t index;  // into the per-kind storage deque
  };

  void set_value(const std::string& name, const std::string& value);

  std::string description_;
  std::map<std::string, Entry> entries_;
  // Heap-owned flag cells so the references handed out by add_*() stay valid
  // as more flags are registered.
  std::vector<std::unique_ptr<IntFlag>> ints_;
  std::vector<std::unique_ptr<DoubleFlag>> doubles_;
  std::vector<std::unique_ptr<StringFlag>> strings_;
  std::vector<std::unique_ptr<BoolFlag>> bools_;
};

}  // namespace wsf::support
