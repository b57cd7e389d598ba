// Command-line options for cnaudit, cnauditd, cnconvert, cninject and
// cnsweep: "--key value" or "--key=value"; a positional argument is an
// error. A numeric value must parse whole: an empty value, trailing
// characters, a sign on a count or a value out of range prints
// "<tool>: --key 'value' is not ..." and exits 2.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace cn::cli {

/// The most execution lanes --threads or --jobs may ask for (0 still
/// means one per core): util::ThreadPool spawns a thread for every lane
/// up front.
inline constexpr std::uint64_t kMaxLanes = 256;

class Args {
 public:
  /// Parses argv[first, argc). The @p switches take no value and read
  /// as "1" when present; @p program prefixes the getters' errors.
  Args(const char* program, int argc, char** argv, int first,
       std::initializer_list<std::string_view> switches = {})
      : program_(program) {
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        ok_ = false;
        bad_ = key;
        return;
      }
      if (const auto eq = key.find('='); eq != std::string::npos) {
        values_[key.substr(2, eq - 2)] = key.substr(eq + 1);
        continue;
      }
      const std::string name = key.substr(2);
      if (std::find(switches.begin(), switches.end(), name) != switches.end()) {
        values_[name] = "1";
        continue;
      }
      if (i + 1 >= argc) {
        ok_ = false;
        bad_ = key;
        return;
      }
      values_[name] = argv[++i];
    }
  }

  bool ok() const { return ok_; }
  const std::string& bad() const { return bad_; }
  bool has(const std::string& key) const { return values_.count(key) != 0; }
  const std::map<std::string, std::string>& values() const { return values_; }

  /// The first option given that is not in @p known, if any.
  std::optional<std::string> unknown(std::initializer_list<std::string_view> known) const {
    for (const auto& [key, value] : values_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) return key;
    }
    return std::nullopt;
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  std::string get_or(const std::string& key, const std::string& fallback) const {
    return get(key).value_or(fallback);
  }

  /// --key as a decimal integer in [0, @p max]; @p fallback when absent.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const {
    const auto v = get(key);
    if (!v) return fallback;
    char* end = nullptr;
    errno = 0;
    const std::uint64_t n = std::strtoull(v->c_str(), &end, 10);
    // A leading digit, since strtoull skips spaces and negates a '-'.
    if (std::isdigit(static_cast<unsigned char>(v->c_str()[0])) == 0 || *end != '\0' ||
        errno == ERANGE || n > max) {
      reject(key, *v, "an integer in [0, " + std::to_string(max) + "]");
    }
    return n;
  }

  /// --key as a finite number; @p fallback when absent.
  double get_double(const std::string& key, double fallback) const {
    const auto v = get(key);
    if (!v) return fallback;
    char* end = nullptr;
    errno = 0;
    const double x = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0' || errno == ERANGE || !std::isfinite(x)) {
      reject(key, *v, "a finite number");
    }
    return x;
  }

  /// --key as a finite number above 0; @p fallback when absent.
  double get_positive(const std::string& key, double fallback) const {
    const double x = get_double(key, fallback);
    if (has(key) && x <= 0.0) reject(key, values_.at(key), "a positive number");
    return x;
  }

  /// --key as a finite number of at least 0; @p fallback when absent.
  double get_non_negative(const std::string& key, double fallback) const {
    const double x = get_double(key, fallback);
    if (has(key) && x < 0.0) reject(key, values_.at(key), "a non-negative number");
    return x;
  }

  /// --key as a number in [0, 1]; @p fallback when absent.
  double get_fraction(const std::string& key, double fallback) const {
    const double x = get_double(key, fallback);
    if (has(key) && !(x >= 0.0 && x <= 1.0)) {
      reject(key, values_.at(key), "a number in [0, 1]");
    }
    return x;
  }

 private:
  [[noreturn]] void reject(const std::string& key, const std::string& value,
                           const std::string& want) const {
    std::fprintf(stderr, "%s: --%s '%s' is not %s\n", program_, key.c_str(),
                 value.c_str(), want.c_str());
    std::exit(2);
  }

  const char* program_;
  std::map<std::string, std::string> values_;
  bool ok_ = true;
  std::string bad_;
};

}  // namespace cn::cli
