//===- tools/CliOptions.h - Command-line flag parsing -----------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// The `--key value` / `--switch` parser shared by psg-cli and psg-check,
// and the flags each of their commands takes. Options::parse() rejects a
// flag the command does not take, a value flag with no value and a value
// of the wrong kind before the command does any work, so a mistake
// becomes a message and exit code 2 instead of a guessed value or an
// abort from deep inside a run.
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

/// Parsed `--key value` / `--switch` arguments plus positional operands.
struct Options {
  std::vector<std::string> Positional;
  std::map<std::string, std::string> Values;

  /// Parses Argv[Begin, Argc) against \p Spec: space-separated flag
  /// names, each optionally suffixed with the kind of value it needs:
  /// `:real` (a finite number), `:pos` (a finite number above 0), `:uint`
  /// (an unsigned integer) or `:count` (an unsigned integer above 0); a
  /// bare name takes any value. A `:switch` flag takes no value and never
  /// consumes the argument after it. Every argument that is not a flag
  /// is an operand. Fails on a flag \p Spec does not name, a value flag
  /// followed by another flag or by nothing, and a value of the wrong
  /// kind.
  static ErrorOr<Options> parse(int Argc, const char *const *Argv, int Begin,
                                const std::string &Spec) {
    std::map<std::string, std::string> Kinds;
    for (const std::string &Entry : splitWhitespace(Spec)) {
      const size_t Colon = Entry.find(':');
      Kinds[Entry.substr(0, Colon)] =
          Colon == std::string::npos ? "" : Entry.substr(Colon + 1);
    }
    Options O;
    for (int I = Begin; I < Argc; ++I) {
      const std::string Arg = Argv[I];
      if (Arg.rfind("--", 0) != 0) {
        O.Positional.push_back(Arg);
        continue;
      }
      const std::string Key = Arg.substr(2);
      auto It = Kinds.find(Key);
      if (It == Kinds.end())
        return Status::failure("unknown option --" + Key);
      const std::string &Kind = It->second;
      if (Kind == "switch") {
        O.Values.try_emplace(Key);
        continue;
      }
      if (I + 1 == Argc || std::string(Argv[I + 1]).rfind("--", 0) == 0)
        return Status::failure("--" + Key + " needs a value");
      const std::string Value = Argv[++I];
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
      O.Values[Key] = Value;
    }
    return O;
  }

  std::string get(const std::string &Key, const std::string &Def) const {
    auto It = Values.find(Key);
    return It == Values.end() ? Def : It->second;
  }
  /// The value of a `:real` or `:pos` flag, or \p Def.
  double getDouble(const std::string &Key, double Def) const {
    auto It = Values.find(Key);
    double V = Def;
    if (It != Values.end() && !parseDouble(It->second, V))
      fatalError("--" + Key + " is read as a number; declare it :real");
    return V;
  }
  /// The value of a `:uint` or `:count` flag, or \p Def.
  unsigned getUnsigned(const std::string &Key, unsigned Def) const {
    auto It = Values.find(Key);
    unsigned V = Def;
    if (It != Values.end() && !parseUnsigned(It->second, V))
      fatalError("--" + Key + " is read as an integer; declare it :uint");
    return V;
  }
  bool has(const std::string &Key) const { return Values.count(Key) > 0; }
};

/// The flags psg-cli's \p Command takes besides the global
/// --metrics-json and --trace-json, in Options::parse() form; null for an
/// unknown command.
inline const char *cliCommandFlags(const std::string &Command) {
  if (Command == "info" || Command == "convert")
    return "";
  if (Command == "simulate")
    return "tend:pos samples:uint batch:count perturb:switch seed:uint "
           "simulator out";
  if (Command == "psa1d")
    return "species reaction:uint lo:real hi:real log:switch points:count "
           "reporter simulator tend:pos samples:uint out sub-batch:count";
  if (Command == "steady")
    return "maxtime:pos timescale:pos";
  if (Command == "generate")
    return "species:count reactions:count seed:uint out";
  return nullptr;
}

/// The flags psg-check's \p Command takes, in Options::parse() form;
/// null for an unknown command.
inline const char *checkCommandFlags(const std::string &Command) {
  if (Command == "golden")
    return "solver";
  if (Command == "fuzz")
    return "seed:uint cases:uint tend:pos samples:uint compare-tol:pos "
           "time-budget:real repro-dir stats-json";
  if (Command == "replay")
    return "compare-tol:pos";
  if (Command == "properties")
    return "";
  return nullptr;
}

} // namespace psg

#endif // PSG_TOOLS_CLIOPTIONS_H
