//===- rbm/SbmlIo.cpp -----------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "rbm/SbmlIo.h"

#include "support/StringUtils.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

using namespace psg;
using psg::xml::Element;

//===----------------------------------------------------------------------===//
// Minimal XML parser.
//===----------------------------------------------------------------------===//

namespace {
/// Deepest element nesting the parser accepts. It recurses once per
/// level, so a deeper document fails instead of exhausting the stack;
/// the SBML writer's own output is 7 deep.
constexpr unsigned MaxXmlDepth = 256;

class XmlParser {
public:
  explicit XmlParser(const std::string &Text) : Text(Text) {}

  ErrorOr<Element> parse() {
    skipProlog();
    Element Root;
    if (Status S = parseElement(Root, 1); !S)
      return ErrorOr<Element>::failure(S.message());
    skipMisc();
    if (Pos != Text.size())
      return ErrorOr<Element>::failure("trailing content after root");
    return Root;
  }

private:
  const std::string &Text;
  size_t Pos = 0;

  [[nodiscard]] Status fail(const std::string &Message) const {
    return Status::failure(
        formatString("XML error at offset %zu: %s", Pos, Message.c_str()));
  }

  bool atEnd() const { return Pos >= Text.size(); }
  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }

  void skipWhitespace() {
    while (!atEnd() && std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(const char *Token) {
    const size_t Len = std::strlen(Token);
    if (Text.compare(Pos, Len, Token) != 0)
      return false;
    Pos += Len;
    return true;
  }

  void skipUntil(const char *Token) {
    const size_t Found = Text.find(Token, Pos);
    Pos = Found == std::string::npos ? Text.size()
                                     : Found + std::strlen(Token);
  }

  void skipMisc() {
    for (;;) {
      skipWhitespace();
      if (consume("<?"))
        skipUntil("?>");
      else if (consume("<!--"))
        skipUntil("-->");
      else if (consume("<!"))
        skipUntil(">");
      else
        return;
    }
  }

  void skipProlog() { skipMisc(); }

  static std::string decodeEntities(std::string_view S) {
    std::string Out;
    Out.reserve(S.size());
    for (size_t I = 0; I < S.size();) {
      if (S[I] != '&') {
        Out += S[I++];
        continue;
      }
      auto tryEntity = [&](const char *Entity, char Value) {
        const size_t Len = std::strlen(Entity);
        if (S.compare(I, Len, Entity) == 0) {
          Out += Value;
          I += Len;
          return true;
        }
        return false;
      };
      if (!tryEntity("&amp;", '&') && !tryEntity("&lt;", '<') &&
          !tryEntity("&gt;", '>') && !tryEntity("&quot;", '"') &&
          !tryEntity("&apos;", '\''))
        Out += S[I++];
    }
    return Out;
  }

  bool isNameChar(char C) const {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
           C == '-' || C == ':' || C == '.';
  }

  Status parseName(std::string &Name) {
    const size_t Begin = Pos;
    while (!atEnd() && isNameChar(Text[Pos]))
      ++Pos;
    if (Pos == Begin)
      return fail("expected a name");
    Name = Text.substr(Begin, Pos - Begin);
    return Status::success();
  }

  Status parseAttributes(Element &E) {
    for (;;) {
      skipWhitespace();
      if (atEnd())
        return fail("unterminated tag");
      if (peek() == '>' || peek() == '/' || peek() == '?')
        return Status::success();
      std::string Key;
      if (Status S = parseName(Key); !S)
        return S;
      skipWhitespace();
      if (!consume("="))
        return fail("expected '=' after attribute name");
      skipWhitespace();
      const char Quote = peek();
      if (Quote != '"' && Quote != '\'')
        return fail("expected a quoted attribute value");
      ++Pos;
      const size_t End = Text.find(Quote, Pos);
      if (End == std::string::npos)
        return fail("unterminated attribute value");
      E.Attributes.emplace_back(
          Key, decodeEntities(std::string_view(Text).substr(Pos, End - Pos)));
      Pos = End + 1;
    }
  }

  Status parseElement(Element &E, unsigned Depth) {
    if (Depth > MaxXmlDepth)
      return fail(formatString("elements nested deeper than %u levels",
                               MaxXmlDepth));
    skipMisc();
    if (!consume("<"))
      return fail("expected '<'");
    if (Status S = parseName(E.Name); !S)
      return S;
    if (Status S = parseAttributes(E); !S)
      return S;
    skipWhitespace();
    if (consume("/>"))
      return Status::success();
    if (!consume(">"))
      return fail("expected '>'");

    // Content: text and child elements until the matching close tag.
    for (;;) {
      const size_t TextBegin = Pos;
      const size_t Lt = Text.find('<', Pos);
      if (Lt == std::string::npos)
        return fail("unterminated element '" + E.Name + "'");
      if (Lt > TextBegin)
        E.Text += decodeEntities(
            std::string_view(Text).substr(TextBegin, Lt - TextBegin));
      Pos = Lt;
      if (Text.compare(Pos, 2, "</") == 0) {
        Pos += 2;
        std::string Close;
        if (Status S = parseName(Close); !S)
          return S;
        if (Close != E.Name)
          return fail("mismatched close tag '" + Close + "' for '" +
                      E.Name + "'");
        skipWhitespace();
        if (!consume(">"))
          return fail("expected '>' after close tag");
        E.Text = std::string(trim(E.Text));
        return Status::success();
      }
      if (Text.compare(Pos, 4, "<!--") == 0) {
        skipUntil("-->");
        continue;
      }
      if (Text.compare(Pos, 2, "<?") == 0) {
        skipUntil("?>");
        continue;
      }
      Element Child;
      if (Status S = parseElement(Child, Depth + 1); !S)
        return S;
      E.Children.push_back(std::move(Child));
    }
  }
};
} // namespace

const std::string *Element::findAttribute(const std::string &Key) const {
  for (const auto &[K, V] : Attributes)
    if (K == Key)
      return &V;
  return nullptr;
}

const Element *Element::findChild(const std::string &ChildName) const {
  for (const Element &C : Children)
    if (C.Name == ChildName)
      return &C;
  return nullptr;
}

std::vector<const Element *>
Element::children(const std::string &ChildName) const {
  std::vector<const Element *> Out;
  for (const Element &C : Children)
    if (C.Name == ChildName)
      Out.push_back(&C);
  return Out;
}

ErrorOr<Element> psg::xml::parseDocument(const std::string &Xml) {
  return XmlParser(Xml).parse();
}

//===----------------------------------------------------------------------===//
// SBML import.
//===----------------------------------------------------------------------===//

namespace {
/// Extracts the kinetic constant of a reaction element: a local (or
/// global-style) parameter named "k", or a psg:rate attribute.
ErrorOr<double> kineticConstantOf(const Element &ReactionEl) {
  if (const std::string *Rate = ReactionEl.findAttribute("psg:rate")) {
    double K = 0;
    if (!parseDouble(*Rate, K))
      return ErrorOr<double>::failure("bad psg:rate value '" + *Rate + "'");
    return K;
  }
  const Element *Law = ReactionEl.findChild("kineticLaw");
  if (!Law)
    return ErrorOr<double>::failure("reaction without kineticLaw");
  for (const char *ListName : {"listOfLocalParameters", "listOfParameters"})
    if (const Element *List = Law->findChild(ListName))
      for (const char *ParamName : {"localParameter", "parameter"})
        for (const Element *P : List->children(ParamName))
          if (const std::string *Id = P->findAttribute("id");
              Id && *Id == "k") {
            const std::string *Value = P->findAttribute("value");
            double K = 0;
            if (!Value || !parseDouble(*Value, K))
              return ErrorOr<double>::failure(
                  "parameter 'k' without a numeric value");
            return K;
          }
  return ErrorOr<double>::failure(
      "kineticLaw without a parameter named 'k'");
}

Status addSide(const ReactionNetwork &Net, const Element *List,
               const char *RefName,
               std::vector<std::pair<unsigned, unsigned>> &Side) {
  if (!List)
    return Status::success();
  for (const Element *Ref : List->children(RefName)) {
    const std::string *SpeciesId = Ref->findAttribute("species");
    if (!SpeciesId)
      return Status::failure("speciesReference without species attribute");
    auto Index = Net.findSpecies(*SpeciesId);
    if (!Index)
      return Status::failure(Index.message());
    unsigned Stoich = 1;
    if (const std::string *S = Ref->findAttribute("stoichiometry")) {
      // The range test comes first: casting NaN or a value past
      // UINT_MAX to unsigned is undefined.
      double Value = 0;
      if (!parseDouble(*S, Value) || !(Value >= 1) ||
          Value > std::numeric_limits<unsigned>::max() ||
          Value != std::floor(Value))
        return Status::failure("non-positive-integer stoichiometry '" + *S +
                               "'");
      Stoich = static_cast<unsigned>(Value);
    }
    if (Status S = addSideTerm(Side, *Index, Stoich); !S)
      return S;
  }
  return Status::success();
}
} // namespace

ErrorOr<ReactionNetwork> psg::parseSbml(const std::string &Xml) {
  ErrorOr<Element> Doc = xml::parseDocument(Xml);
  if (!Doc)
    return ErrorOr<ReactionNetwork>::failure(Doc.message());
  if (Doc->Name != "sbml")
    return ErrorOr<ReactionNetwork>::failure("root element is not <sbml>");
  const Element *ModelEl = Doc->findChild("model");
  if (!ModelEl)
    return ErrorOr<ReactionNetwork>::failure("missing <model>");

  ReactionNetwork Net;
  if (const std::string *Id = ModelEl->findAttribute("id"))
    Net.setName(*Id);

  if (const Element *SpeciesList = ModelEl->findChild("listOfSpecies"))
    for (const Element *S : SpeciesList->children("species")) {
      const std::string *Id = S->findAttribute("id");
      if (!Id)
        return ErrorOr<ReactionNetwork>::failure("species without id");
      double Initial = 0.0;
      for (const char *Attr : {"initialConcentration", "initialAmount"})
        if (const std::string *V = S->findAttribute(Attr)) {
          if (!parseDouble(*V, Initial))
            return ErrorOr<ReactionNetwork>::failure(
                "bad initial value for species '" + *Id + "'");
          break;
        }
      if (Net.findSpecies(*Id))
        return ErrorOr<ReactionNetwork>::failure("duplicate species '" +
                                                 *Id + "'");
      Net.addSpecies(*Id, Initial);
    }

  if (const Element *ReactionList = ModelEl->findChild("listOfReactions"))
    for (const Element *R : ReactionList->children("reaction")) {
      if (const std::string *Rev = R->findAttribute("reversible");
          Rev && *Rev == "true")
        return ErrorOr<ReactionNetwork>::failure(
            "reversible reactions are not supported; split them");
      Reaction Rx;
      ErrorOr<double> K = kineticConstantOf(*R);
      if (!K)
        return ErrorOr<ReactionNetwork>::failure(K.message());
      Rx.RateConstant = *K;
      if (Status S = addSide(Net, R->findChild("listOfReactants"),
                             "speciesReference", Rx.Reactants);
          !S)
        return ErrorOr<ReactionNetwork>::failure(S.message());
      if (Status S = addSide(Net, R->findChild("listOfProducts"),
                             "speciesReference", Rx.Products);
          !S)
        return ErrorOr<ReactionNetwork>::failure(S.message());
      Net.addReaction(std::move(Rx));
    }

  if (Status S = Net.validate(); !S)
    return ErrorOr<ReactionNetwork>::failure(S.message());
  return Net;
}

ErrorOr<ReactionNetwork> psg::loadSbmlFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return ErrorOr<ReactionNetwork>::failure("cannot open '" + Path + "'");
  std::string Xml;
  char Buffer[4096];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Xml.append(Buffer, Read);
  std::fclose(File);
  return parseSbml(Xml);
}

//===----------------------------------------------------------------------===//
// SBML export.
//===----------------------------------------------------------------------===//

namespace {
std::string escapeXml(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '&':
      Out += "&amp;";
      break;
    case '<':
      Out += "&lt;";
      break;
    case '>':
      Out += "&gt;";
      break;
    case '"':
      Out += "&quot;";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

void writeSide(std::string &Xml, const ReactionNetwork &Net,
               const std::vector<std::pair<unsigned, unsigned>> &Side,
               const char *ListName) {
  if (Side.empty())
    return;
  Xml += formatString("        <%s>\n", ListName);
  for (const auto &[Idx, Coef] : Side)
    Xml += formatString(
        "          <speciesReference species=\"%s\" stoichiometry=\"%u\" "
        "constant=\"true\"/>\n",
        escapeXml(Net.species(Idx).Name).c_str(), Coef);
  Xml += formatString("        </%s>\n", ListName);
}
} // namespace

ErrorOr<std::string> psg::writeSbml(const ReactionNetwork &Net) {
  for (const Reaction &Rx : Net.allReactions())
    if (Rx.Kind != KineticsKind::MassAction)
      return ErrorOr<std::string>::failure(
          "SBML export supports mass-action reactions only");

  std::string Xml;
  Xml += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  Xml += "<sbml xmlns=\"http://www.sbml.org/sbml/level3/version1/core\" "
         "level=\"3\" version=\"1\">\n";
  Xml += formatString("  <model id=\"%s\">\n",
                      escapeXml(Net.name()).c_str());
  Xml += "    <listOfCompartments>\n"
         "      <compartment id=\"cell\" size=\"1\" constant=\"true\"/>\n"
         "    </listOfCompartments>\n";
  Xml += "    <listOfSpecies>\n";
  for (const Species &S : Net.allSpecies())
    Xml += formatString(
        "      <species id=\"%s\" compartment=\"cell\" "
        "initialConcentration=\"%.17g\" hasOnlySubstanceUnits=\"false\" "
        "boundaryCondition=\"false\" constant=\"false\"/>\n",
        escapeXml(S.Name).c_str(), S.InitialConcentration);
  Xml += "    </listOfSpecies>\n";
  Xml += "    <listOfReactions>\n";
  for (size_t R = 0; R < Net.numReactions(); ++R) {
    const Reaction &Rx = Net.reaction(R);
    Xml += formatString(
        "      <reaction id=\"r%zu\" reversible=\"false\">\n", R);
    writeSide(Xml, Net, Rx.Reactants, "listOfReactants");
    writeSide(Xml, Net, Rx.Products, "listOfProducts");
    Xml += "        <kineticLaw>\n"
           "          <listOfLocalParameters>\n";
    Xml += formatString(
        "            <localParameter id=\"k\" value=\"%.17g\"/>\n",
        Rx.RateConstant);
    Xml += "          </listOfLocalParameters>\n"
           "        </kineticLaw>\n"
           "      </reaction>\n";
  }
  Xml += "    </listOfReactions>\n  </model>\n</sbml>\n";
  return Xml;
}

Status psg::saveSbmlFile(const ReactionNetwork &Net,
                         const std::string &Path) {
  ErrorOr<std::string> Xml = writeSbml(Net);
  if (!Xml)
    return Xml.status();
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return Status::failure("cannot open '" + Path + "' for writing");
  const size_t Written = std::fwrite(Xml->data(), 1, Xml->size(), File);
  std::fclose(File);
  if (Written != Xml->size())
    return Status::failure("short write to '" + Path + "'");
  return Status::success();
}
