#ifndef TEXRHEO_UTIL_STRING_UTIL_H_
#define TEXRHEO_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace texrheo {

/// Splits `s` on `delim`; empty fields are preserved ("a,,b" -> 3 fields).
std::vector<std::string> Split(std::string_view s, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lower-case copy.
std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses a double; rejects trailing garbage ("1.5x" is an error).
StatusOr<double> ParseDouble(std::string_view s);

/// Parses a non-negative integer; rejects trailing garbage.
StatusOr<int64_t> ParseInt(std::string_view s);

/// Formats `v` with `digits` digits after the decimal point.
std::string FormatDouble(double v, int digits);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace texrheo

#endif  // TEXRHEO_UTIL_STRING_UTIL_H_
