// A minimal command-line flag parser for the bench and example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--name` flags.
// Unknown flags are an error so typos in experiment scripts fail loudly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pcmax {

/// Parses argv-style options. Register flags with defaults, then call
/// `parse`; accessors return the parsed or default value.
class CliParser {
 public:
  /// `program_doc` is printed by `usage()` above the flag list.
  explicit CliParser(std::string program_doc);

  /// Registers an int64 flag.
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& doc);
  /// Registers a floating-point flag.
  void add_double(const std::string& name, double default_value,
                  const std::string& doc);
  /// Registers a string flag.
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& doc);
  /// Registers a boolean flag (`--name` sets it true, `--name=false` clears).
  void add_bool(const std::string& name, bool default_value, const std::string& doc);

  /// Parses the command line. Returns false (after printing usage) when
  /// `--help` was requested; throws InvalidArgumentError on malformed input.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Human-readable flag documentation.
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kInt, kDouble, kString, kBool };
  struct Flag {
    Kind kind;
    std::string doc;
    std::string value;  // canonical textual representation
  };

  const Flag& find(const std::string& name, Kind kind) const;

  std::string program_doc_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;  // registration order, for usage()
};

/// Runs a binary's main body. A pcmax::Error escaping it (a malformed flag,
/// an invalid option value) or a std::bad_alloc (an instance too large for
/// the memory at hand) prints `error: <what>` to stderr and returns 1
/// instead of terminating the process.
int run_main(const std::function<int()>& body);

}  // namespace pcmax
