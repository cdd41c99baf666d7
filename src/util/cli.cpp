#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <new>
#include <sstream>

#include "util/error.hpp"

namespace pcmax {

CliParser::CliParser(std::string program_doc) : program_doc_(std::move(program_doc)) {}

namespace {
std::string kind_name(int kind) {
  switch (kind) {
    case 0: return "int";
    case 1: return "double";
    case 2: return "string";
    default: return "bool";
  }
}
}  // namespace

void CliParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& doc) {
  PCMAX_REQUIRE(!flags_.count(name), "duplicate flag --" + name);
  flags_[name] = Flag{Kind::kInt, doc, std::to_string(default_value)};
  order_.push_back(name);
}

void CliParser::add_double(const std::string& name, double default_value,
                           const std::string& doc) {
  PCMAX_REQUIRE(!flags_.count(name), "duplicate flag --" + name);
  std::ostringstream os;
  os << default_value;
  flags_[name] = Flag{Kind::kDouble, doc, os.str()};
  order_.push_back(name);
}

void CliParser::add_string(const std::string& name, const std::string& default_value,
                           const std::string& doc) {
  PCMAX_REQUIRE(!flags_.count(name), "duplicate flag --" + name);
  flags_[name] = Flag{Kind::kString, doc, default_value};
  order_.push_back(name);
}

void CliParser::add_bool(const std::string& name, bool default_value,
                         const std::string& doc) {
  PCMAX_REQUIRE(!flags_.count(name), "duplicate flag --" + name);
  flags_[name] = Flag{Kind::kBool, doc, default_value ? "true" : "false"};
  order_.push_back(name);
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    PCMAX_REQUIRE(arg.rfind("--", 0) == 0, "unexpected positional argument: " + arg);
    arg = arg.substr(2);

    std::string name;
    std::optional<std::string> value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
    }

    auto it = flags_.find(name);
    PCMAX_REQUIRE(it != flags_.end(), "unknown flag --" + name);
    Flag& flag = it->second;

    if (!value) {
      if (flag.kind == Kind::kBool) {
        value = "true";
      } else {
        PCMAX_REQUIRE(i + 1 < argc, "missing value for flag --" + name);
        value = argv[++i];
      }
    }

    // Validate the textual value eagerly so errors point at the flag.
    switch (flag.kind) {
      case Kind::kInt: {
        char* end = nullptr;
        (void)std::strtoll(value->c_str(), &end, 10);
        PCMAX_REQUIRE(end && *end == '\0' && !value->empty(),
                      "flag --" + name + " expects an integer, got '" + *value + "'");
        break;
      }
      case Kind::kDouble: {
        char* end = nullptr;
        (void)std::strtod(value->c_str(), &end);
        PCMAX_REQUIRE(end && *end == '\0' && !value->empty(),
                      "flag --" + name + " expects a number, got '" + *value + "'");
        break;
      }
      case Kind::kBool:
        PCMAX_REQUIRE(*value == "true" || *value == "false",
                      "flag --" + name + " expects true/false, got '" + *value + "'");
        break;
      case Kind::kString:
        break;
    }
    flag.value = *value;
  }
  return true;
}

const CliParser::Flag& CliParser::find(const std::string& name, Kind kind) const {
  auto it = flags_.find(name);
  PCMAX_REQUIRE(it != flags_.end(), "flag --" + name + " was never registered");
  PCMAX_REQUIRE(it->second.kind == kind,
                "flag --" + name + " accessed with wrong type (is " +
                    kind_name(static_cast<int>(it->second.kind)) + ")");
  return it->second;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  return std::strtoll(find(name, Kind::kInt).value.c_str(), nullptr, 10);
}

double CliParser::get_double(const std::string& name) const {
  return std::strtod(find(name, Kind::kDouble).value.c_str(), nullptr);
}

const std::string& CliParser::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool CliParser::get_bool(const std::string& name) const {
  return find(name, Kind::kBool).value == "true";
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << program_doc_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  --" << name << " (default: " << flag.value << ")\n      "
       << flag.doc << "\n";
  }
  return os.str();
}

int run_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::bad_alloc& e) {
    std::cerr << "error: out of memory (" << e.what() << ")\n";
    return 1;
  }
}

}  // namespace pcmax
