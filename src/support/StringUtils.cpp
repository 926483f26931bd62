//===- support/StringUtils.cpp --------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace psg;

static bool isSpace(char C) {
  return std::isspace(static_cast<unsigned char>(C)) != 0;
}

std::string_view psg::trim(std::string_view S) {
  size_t Begin = 0;
  while (Begin < S.size() && isSpace(S[Begin]))
    ++Begin;
  size_t End = S.size();
  while (End > Begin && isSpace(S[End - 1]))
    --End;
  return S.substr(Begin, End - Begin);
}

std::vector<std::string> psg::split(std::string_view S, char Sep) {
  std::vector<std::string> Fields;
  size_t Pos = 0;
  for (;;) {
    size_t Next = S.find(Sep, Pos);
    if (Next == std::string_view::npos) {
      Fields.emplace_back(trim(S.substr(Pos)));
      return Fields;
    }
    Fields.emplace_back(trim(S.substr(Pos, Next - Pos)));
    Pos = Next + 1;
  }
}

std::vector<std::string> psg::splitWhitespace(std::string_view S) {
  std::vector<std::string> Fields;
  size_t I = 0;
  while (I < S.size()) {
    while (I < S.size() && isSpace(S[I]))
      ++I;
    size_t Begin = I;
    while (I < S.size() && !isSpace(S[I]))
      ++I;
    if (I > Begin)
      Fields.emplace_back(S.substr(Begin, I - Begin));
  }
  return Fields;
}

bool psg::startsWith(std::string_view S, std::string_view Prefix) {
  return S.substr(0, Prefix.size()) == Prefix;
}

bool psg::parseDouble(std::string_view S, double &Out) {
  S = trim(S);
  if (S.empty())
    return false;
  std::string Buffer(S);
  char *End = nullptr;
  Out = std::strtod(Buffer.c_str(), &End);
  return End == Buffer.c_str() + Buffer.size();
}

bool psg::parseUnsigned(std::string_view S, unsigned &Out) {
  uint64_t V = 0;
  if (!parseUnsigned(S, V) || V > std::numeric_limits<unsigned>::max())
    return false; // The cast below would silently wrap.
  Out = static_cast<unsigned>(V);
  return true;
}

bool psg::parseUnsigned(std::string_view S, uint64_t &Out) {
  S = trim(S);
  if (S.empty() || S[0] == '-' || S[0] == '+')
    return false; // strtoull would silently wrap negative inputs.
  std::string Buffer(S);
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = std::strtoull(Buffer.c_str(), &End, 10);
  if (End != Buffer.c_str() + Buffer.size() || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

std::string psg::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Size = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Size < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Result(static_cast<size_t>(Size), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}
