#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace skiptrain::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_option(const std::string& name, Kind kind,
                           const std::string& default_value,
                           const std::string& help) {
  if (options_.contains(name)) {
    throw std::runtime_error("ArgParser: duplicate option --" + name);
  }
  options_[name] = Option{kind, default_value, default_value, help};
  order_.push_back(name);
}

void ArgParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  add_option(name, Kind::kInt, std::to_string(default_value), help);
}

void ArgParser::add_double(const std::string& name, double default_value,
                           const std::string& help) {
  std::ostringstream stream;
  stream << default_value;
  add_option(name, Kind::kDouble, stream.str(), help);
}

void ArgParser::add_string(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  add_option(name, Kind::kString, default_value, help);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  add_option(name, Kind::kFlag, "0", help);
}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    if (token.rfind("--", 0) != 0) {
      throw std::runtime_error("ArgParser: unexpected argument '" + token +
                               "' (options start with --)");
    }
    token = token.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = token.find('='); eq != std::string::npos) {
      value = token.substr(eq + 1);
      token = token.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(token);
    if (it == options_.end()) {
      throw std::runtime_error("ArgParser: unknown option --" + token + "\n" +
                               usage());
    }
    Option& opt = it->second;
    if (opt.kind == Kind::kFlag) {
      if (has_value) {
        throw std::runtime_error("ArgParser: flag --" + token +
                                 " does not take a value");
      }
      // Move-assign dodges GCC 12's -Wrestrict false positive on the
      // char*-assign path (PR105329) under -O2 inlining.
      opt.value = std::string("1");
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        throw std::runtime_error("ArgParser: option --" + token +
                                 " expects a value");
      }
      value = argv[++i];
    }
    // Validate numeric options eagerly so errors point at the bad flag.
    // strtoll/strtod clamp out-of-range values (ERANGE) and strtod also
    // takes "nan"/"inf": all rejected here rather than used.
    if (opt.kind == Kind::kInt || opt.kind == Kind::kDouble) {
      const bool integer = opt.kind == Kind::kInt;
      char* end = nullptr;
      errno = 0;
      const double number =
          integer ? static_cast<double>(std::strtoll(value.c_str(), &end, 10))
                  : std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
          !std::isfinite(number)) {
        throw std::runtime_error(
            "ArgParser: --" + token + " expects " +
            (integer ? "a 64-bit integer" : "a finite number") + ", got '" +
            value + "'");
      }
    }
    opt.value = value;
  }
}

const ArgParser::Option& ArgParser::find(const std::string& name,
                                         Kind kind) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.kind != kind) {
    throw std::runtime_error("ArgParser: no such option --" + name);
  }
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return std::strtoll(find(name, Kind::kInt).value.c_str(), nullptr, 10);
}

double ArgParser::get_double(const std::string& name) const {
  return std::strtod(find(name, Kind::kDouble).value.c_str(), nullptr);
}

const std::string& ArgParser::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool ArgParser::get_flag(const std::string& name) const {
  return find(name, Kind::kFlag).value == "1";
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    out << "  --" << name;
    if (opt.kind != Kind::kFlag) out << "=<" << opt.default_value << ">";
    out << "\n      " << opt.help << "\n";
  }
  out << "  --help\n      show this message\n";
  return out.str();
}

}  // namespace skiptrain::util
