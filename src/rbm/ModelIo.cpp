//===- rbm/ModelIo.cpp ----------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "rbm/ModelIo.h"

#include "support/StringUtils.h"

#include <cstdio>

using namespace psg;

namespace {
/// Parses one reaction side ("2 A + B", or "0" for empty) into (index,
/// coefficient) pairs against \p Net's species table.
Status parseSide(const ReactionNetwork &Net, std::string_view Side,
                 std::vector<std::pair<unsigned, unsigned>> &Out) {
  Side = trim(Side);
  if (Side == "0" || Side.empty())
    return Status::success();
  for (const std::string &TermText : split(Side, '+')) {
    std::vector<std::string> Tokens = splitWhitespace(TermText);
    unsigned Coef = 1;
    std::string Name;
    if (Tokens.size() == 1) {
      Name = Tokens[0];
    } else if (Tokens.size() == 2) {
      if (!parseUnsigned(Tokens[0], Coef) || Coef == 0)
        return Status::failure("bad stoichiometric coefficient '" +
                               Tokens[0] + "'");
      Name = Tokens[1];
    } else {
      return Status::failure("malformed term '" + TermText + "'");
    }
    auto Index = Net.findSpecies(Name);
    if (!Index)
      return Status::failure(Index.message());
    if (Status S = addSideTerm(Out, *Index, Coef); !S)
      return S;
  }
  return Status::success();
}

/// Renders one reaction side back to text.
std::string
writeSide(const ReactionNetwork &Net,
          const std::vector<std::pair<unsigned, unsigned>> &Side) {
  if (Side.empty())
    return "0";
  std::string Text;
  for (size_t I = 0; I < Side.size(); ++I) {
    if (I != 0)
      Text += " + ";
    if (Side[I].second != 1)
      Text += formatString("%u ", Side[I].second);
    Text += Net.species(Side[I].first).Name;
  }
  return Text;
}
} // namespace

ErrorOr<ReactionNetwork> psg::parseModelText(const std::string &Text) {
  ReactionNetwork Net;
  size_t LineNo = 0;
  size_t Pos = 0;
  auto fail = [&](const std::string &Message) {
    return ErrorOr<ReactionNetwork>::failure(
        formatString("line %zu: %s", LineNo, Message.c_str()));
  };

  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string_view Line(Text.data() + Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    if (size_t Hash = Line.find('#'); Hash != std::string_view::npos)
      Line = Line.substr(0, Hash);
    Line = trim(Line);
    if (Line.empty())
      continue;

    if (startsWith(Line, "model")) {
      std::vector<std::string> Tokens = splitWhitespace(Line);
      if (Tokens.size() != 2)
        return fail("expected 'model <name>'");
      Net.setName(Tokens[1]);
      continue;
    }
    if (startsWith(Line, "species")) {
      std::vector<std::string> Tokens = splitWhitespace(Line);
      double Initial = 0.0;
      if (Tokens.size() != 3 || !parseDouble(Tokens[2], Initial))
        return fail("expected 'species <name> <initial>'");
      if (Net.findSpecies(Tokens[1]))
        return fail("duplicate species '" + Tokens[1] + "'");
      Net.addSpecies(Tokens[1], Initial);
      continue;
    }
    if (startsWith(Line, "reaction")) {
      size_t Colon = Line.find(':');
      if (Colon == std::string_view::npos)
        return fail("reaction needs a ':' before the equation");
      std::vector<std::string> Head =
          splitWhitespace(Line.substr(0, Colon));
      std::string_view Equation = Line.substr(Colon + 1);

      Reaction Rx;
      // Head: "reaction k" | "reaction mm Vmax Km" | "reaction hill k K n".
      if (Head.size() == 2) {
        if (!parseDouble(Head[1], Rx.RateConstant))
          return fail("bad rate constant '" + Head[1] + "'");
      } else if (Head.size() == 4 && Head[1] == "mm") {
        Rx.Kind = KineticsKind::MichaelisMenten;
        if (!parseDouble(Head[2], Rx.RateConstant) ||
            !parseDouble(Head[3], Rx.Km))
          return fail("expected 'reaction mm <Vmax> <Km> : ...'");
      } else if (Head.size() == 5 &&
                 (Head[1] == "hill" || Head[1] == "hillrep")) {
        Rx.Kind = Head[1] == "hill" ? KineticsKind::Hill
                                    : KineticsKind::HillRepression;
        if (!parseDouble(Head[2], Rx.RateConstant) ||
            !parseDouble(Head[3], Rx.HillK) ||
            !parseDouble(Head[4], Rx.HillN))
          return fail("expected 'reaction hill <k> <K> <n> : ...'");
      } else {
        return fail("malformed reaction header");
      }

      size_t Arrow = Equation.find("->");
      if (Arrow == std::string_view::npos)
        return fail("reaction equation needs '->'");
      if (Status S = parseSide(Net, Equation.substr(0, Arrow), Rx.Reactants);
          !S)
        return fail(S.message());
      if (Status S = parseSide(Net, Equation.substr(Arrow + 2), Rx.Products);
          !S)
        return fail(S.message());
      if (Rx.Kind != KineticsKind::MassAction && Rx.Reactants.empty())
        return fail("saturating kinetics need a substrate");
      Net.addReaction(std::move(Rx));
      continue;
    }
    return fail("unrecognized declaration");
  }

  if (Status S = Net.validate(); !S)
    return ErrorOr<ReactionNetwork>::failure(S.message());
  return Net;
}

ErrorOr<ReactionNetwork> psg::loadModelFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return ErrorOr<ReactionNetwork>::failure("cannot open '" + Path + "'");
  std::string Text;
  char Buffer[4096];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Text.append(Buffer, Read);
  std::fclose(File);
  return parseModelText(Text);
}

std::string psg::writeModelText(const ReactionNetwork &Net) {
  std::string Text = "model " + Net.name() + "\n";
  for (const Species &S : Net.allSpecies())
    Text += formatString("species %s %.17g\n", S.Name.c_str(),
                         S.InitialConcentration);
  for (const Reaction &Rx : Net.allReactions()) {
    switch (Rx.Kind) {
    case KineticsKind::MassAction:
      Text += formatString("reaction %.17g : ", Rx.RateConstant);
      break;
    case KineticsKind::MichaelisMenten:
      Text += formatString("reaction mm %.17g %.17g : ", Rx.RateConstant,
                           Rx.Km);
      break;
    case KineticsKind::Hill:
      Text += formatString("reaction hill %.17g %.17g %.17g : ",
                           Rx.RateConstant, Rx.HillK, Rx.HillN);
      break;
    case KineticsKind::HillRepression:
      Text += formatString("reaction hillrep %.17g %.17g %.17g : ",
                           Rx.RateConstant, Rx.HillK, Rx.HillN);
      break;
    }
    Text += writeSide(Net, Rx.Reactants) + " -> " +
            writeSide(Net, Rx.Products) + "\n";
  }
  return Text;
}

Status psg::saveModelFile(const ReactionNetwork &Net,
                          const std::string &Path) {
  const std::string Text = writeModelText(Net);
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return Status::failure("cannot open '" + Path + "' for writing");
  const size_t Written = std::fwrite(Text.data(), 1, Text.size(), File);
  std::fclose(File);
  if (Written != Text.size())
    return Status::failure("short write to '" + Path + "'");
  return Status::success();
}
