//===- support/StringUtils.h - String helpers -------------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string utilities used by the model-file parser and CSV emitters.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_SUPPORT_STRINGUTILS_H
#define PSG_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace psg {

/// Returns \p S without leading/trailing ASCII whitespace.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep, trimming each field; empty fields are kept.
std::vector<std::string> split(std::string_view S, char Sep);

/// Splits \p S on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string> splitWhitespace(std::string_view S);

/// Returns true if \p S starts with \p Prefix.
bool startsWith(std::string_view S, std::string_view Prefix);

/// Parses a double; returns false on malformed or trailing garbage.
bool parseDouble(std::string_view S, double &Out);

/// Parses a non-negative integer; returns false on malformed input and
/// on values \c unsigned cannot hold.
bool parseUnsigned(std::string_view S, unsigned &Out);

/// The 64-bit form: returns false on malformed input and on values past
/// UINT64_MAX.
bool parseUnsigned(std::string_view S, uint64_t &Out);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace psg

#endif // PSG_SUPPORT_STRINGUTILS_H
