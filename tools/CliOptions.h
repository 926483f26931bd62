//===- tools/CliOptions.h - Command-line flag parsing -----------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// The `--key value` / `--flag` parser shared by psg-cli and psg-check.
// Each command declares the flags it takes and the kind of value each
// needs; Options::check() rejects anything else before the command does
// any work, so a mistyped flag or value becomes a message and exit code 2
// instead of an abort from deep inside a run.
//
//===----------------------------------------------------------------------===//

#ifndef PSG_TOOLS_CLIOPTIONS_H
#define PSG_TOOLS_CLIOPTIONS_H

#include "support/Error.h"
#include "support/StringUtils.h"

#include <cmath>
#include <map>
#include <string>
#include <vector>

namespace psg {

/// Parsed `--key value` / `--flag` arguments plus positional operands.
struct Options {
  std::vector<std::string> Positional;
  std::map<std::string, std::string> Values;

  static Options parse(int Argc, char **Argv, int Begin) {
    Options O;
    for (int I = Begin; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg.rfind("--", 0) == 0) {
        const std::string Key = Arg.substr(2);
        if (I + 1 < Argc && std::string(Argv[I + 1]).rfind("--", 0) != 0)
          O.Values[Key] = Argv[++I];
        else
          O.Values[Key].assign(1, '1');
      } else {
        O.Positional.push_back(Arg);
      }
    }
    return O;
  }

  /// Checks every given flag against \p Spec: space-separated flag names,
  /// each optionally suffixed with the kind of value it needs: `:real` (a
  /// finite number), `:pos` (a finite number above 0), `:uint` (an
  /// unsigned integer) or `:count` (an unsigned integer above 0). Fails on
  /// a flag \p Spec does not name or a value of the wrong kind.
  Status check(const std::string &Spec) const {
    std::map<std::string, std::string> Kinds;
    for (const std::string &Entry : splitWhitespace(Spec)) {
      const size_t Colon = Entry.find(':');
      Kinds[Entry.substr(0, Colon)] =
          Colon == std::string::npos ? "" : Entry.substr(Colon + 1);
    }
    for (const auto &[Key, Value] : Values) {
      auto It = Kinds.find(Key);
      if (It == Kinds.end())
        return Status::failure("unknown option --" + Key);
      const std::string &Kind = It->second;
      double Real = 0.0;
      unsigned Uint = 0;
      const char *Needs = nullptr;
      if ((Kind == "real" || Kind == "pos") &&
          !(parseDouble(Value, Real) && std::isfinite(Real)))
        Needs = "a finite number";
      else if (Kind == "pos" && !(Real > 0))
        Needs = "a number above 0";
      else if ((Kind == "uint" || Kind == "count") &&
               !parseUnsigned(Value, Uint))
        Needs = "an unsigned integer";
      else if (Kind == "count" && Uint == 0)
        Needs = "an integer above 0";
      if (Needs)
        return Status::failure("--" + Key + " needs " + Needs + ", got '" +
                               Value + "'");
    }
    return Status::success();
  }

  std::string get(const std::string &Key, const std::string &Def) const {
    auto It = Values.find(Key);
    return It == Values.end() ? Def : It->second;
  }
  /// The value of a `:real` or `:pos` flag that passed check(), or \p Def.
  double getDouble(const std::string &Key, double Def) const {
    auto It = Values.find(Key);
    double V = Def;
    if (It != Values.end() && !parseDouble(It->second, V))
      fatalError("--" + Key + " is read as a number; declare it :real");
    return V;
  }
  /// The value of a `:uint` or `:count` flag that passed check(), or
  /// \p Def.
  unsigned getUnsigned(const std::string &Key, unsigned Def) const {
    auto It = Values.find(Key);
    unsigned V = Def;
    if (It != Values.end() && !parseUnsigned(It->second, V))
      fatalError("--" + Key + " is read as an integer; declare it :uint");
    return V;
  }
  bool has(const std::string &Key) const { return Values.count(Key) > 0; }
};

} // namespace psg

#endif // PSG_TOOLS_CLIOPTIONS_H
