//===- check/CaseFile.cpp -------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "check/CaseFile.h"

#include "rbm/ModelIo.h"
#include "support/StringUtils.h"

#include <cinttypes>
#include <fstream>
#include <sstream>

using namespace psg;

std::string psg::writeCaseText(const CheckCase &Case) {
  std::string Text = "# psg-check differential-testing case\n";
  Text += formatString("check seed %llu\n", (unsigned long long)Case.Seed);
  Text += formatString("check window %.17g %.17g\n", Case.StartTime,
                       Case.EndTime);
  Text += formatString("check samples %zu\n", Case.OutputSamples);
  Text += formatString("check tolerances %.17g %.17g\n", Case.Options.AbsTol,
                       Case.Options.RelTol);
  Text += formatString("check maxsteps %llu\n",
                       (unsigned long long)Case.Options.MaxSteps);
  if (!Case.Simulator.empty())
    Text += "check simulator " + Case.Simulator + "\n";
  if (!Case.Detail.empty()) {
    // The diagnosis must stay one line to keep the grammar line-based.
    std::string Detail = Case.Detail;
    for (char &C : Detail)
      if (C == '\n' || C == '\r')
        C = ' ';
    Text += "check detail " + Detail + "\n";
  }
  Text += writeModelText(Case.Model);
  return Text;
}

ErrorOr<CheckCase> psg::parseCaseText(const std::string &Text) {
  CheckCase Case;
  std::string ModelText;
  std::istringstream Stream(Text);
  std::string Line;
  unsigned LineNo = 0;
  auto fail = [&](const std::string &Msg) {
    return Status::failure(formatString("case line %u: ", LineNo) + Msg);
  };
  bool SawSeed = false;
  while (std::getline(Stream, Line)) {
    ++LineNo;
    const std::string_view Trimmed = trim(Line);
    if (!startsWith(Trimmed, "check ")) {
      // Everything that is not check metadata belongs to the model text
      // (preserve line numbers for the model parser's own diagnostics).
      ModelText += Line;
      ModelText += '\n';
      continue;
    }
    const std::vector<std::string> Fields = splitWhitespace(Trimmed);
    if (Fields.size() < 2)
      return fail("missing check key");
    const std::string &Key = Fields[1];
    if (Key == "seed") {
      if (Fields.size() != 3 || !parseUnsigned(Fields[2], Case.Seed))
        return fail("expected 'check seed <n>'");
      SawSeed = true;
    } else if (Key == "window") {
      if (Fields.size() != 4 || !parseDouble(Fields[2], Case.StartTime) ||
          !parseDouble(Fields[3], Case.EndTime))
        return fail("expected 'check window <t0> <tend>'");
      if (!isValidWindow(Case.StartTime, Case.EndTime))
        return fail("window needs finite t0 < tend, got " + Fields[2] +
                    " " + Fields[3]);
    } else if (Key == "samples") {
      unsigned Samples = 0;
      if (Fields.size() != 3 || !parseUnsigned(Fields[2], Samples))
        return fail("expected 'check samples <n>'");
      Case.OutputSamples = Samples;
    } else if (Key == "tolerances") {
      if (Fields.size() != 4 ||
          !parseDouble(Fields[2], Case.Options.AbsTol) ||
          !parseDouble(Fields[3], Case.Options.RelTol))
        return fail("expected 'check tolerances <abs> <rel>'");
      if (!hasValidTolerances(Case.Options))
        return fail("tolerances must be finite and above 0, got " +
                    Fields[2] + " " + Fields[3]);
    } else if (Key == "maxsteps") {
      if (Fields.size() != 3 ||
          !parseUnsigned(Fields[2], Case.Options.MaxSteps) ||
          !hasValidStepBudget(Case.Options))
        return fail("expected 'check maxsteps <n>' with n >= 1");
    } else if (Key == "simulator") {
      if (Fields.size() != 3)
        return fail("expected 'check simulator <name>'");
      Case.Simulator = Fields[2];
    } else if (Key == "detail") {
      // The detail is free-form: everything after the key verbatim.
      const size_t Pos = Trimmed.find("detail");
      Case.Detail = std::string(trim(Trimmed.substr(Pos + 6)));
    } else {
      return fail("unknown check key '" + Key + "'");
    }
  }
  if (!SawSeed)
    return Status::failure("case file has no 'check seed' line");
  auto ModelOr = parseModelText(ModelText);
  if (!ModelOr)
    return ModelOr.status();
  Case.Model = std::move(*ModelOr);
  return Case;
}

Status psg::saveCaseFile(const CheckCase &Case, const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return Status::failure("cannot open '" + Path + "' for writing");
  Out << writeCaseText(Case);
  Out.close();
  if (!Out)
    return Status::failure("error writing '" + Path + "'");
  return Status::success();
}

ErrorOr<CheckCase> psg::loadCaseFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return Status::failure("cannot open '" + Path + "'");
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  auto CaseOr = parseCaseText(Buffer.str());
  if (!CaseOr)
    return Status::failure("'" + Path + "': " + CaseOr.status().message());
  return CaseOr;
}
