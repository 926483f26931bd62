//===- rbm/SbmlIo.h - SBML-subset import/export -----------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Import/export of an SBML subset, mirroring the upstream tool's
/// SBML <-> BioSimWare conversion companion. The supported subset is the
/// one mass-action RBMs need:
///
/// - <listOfSpecies> with id and initialConcentration (or initialAmount);
/// - <listOfReactions> with <listOfReactants>/<listOfProducts>
///   (speciesReference with stoichiometry) and a kinetic constant taken
///   from <listOfLocalParameters>/<listOfParameters> (id "k") or a
///   psg:rate attribute;
/// - reversible reactions are rejected (split them upstream), as are
///   rules, events, compartments with size != 1, and function
///   definitions.
///
/// The writer emits SBML L3V1 that this reader round-trips.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_RBM_SBMLIO_H
#define PSG_RBM_SBMLIO_H

#include "rbm/ReactionNetwork.h"

namespace psg {

/// Parses the supported SBML subset from \p Xml.
ErrorOr<ReactionNetwork> parseSbml(const std::string &Xml);

/// Loads an SBML file.
ErrorOr<ReactionNetwork> loadSbmlFile(const std::string &Path);

/// Serializes \p Net as SBML (mass-action reactions only; saturating
/// kinetics are rejected with a failure).
ErrorOr<std::string> writeSbml(const ReactionNetwork &Net);

/// Saves \p Net as an SBML file.
Status saveSbmlFile(const ReactionNetwork &Net, const std::string &Path);

namespace xml {
/// A minimal DOM for the SBML subset (exposed for unit tests).
struct Element {
  std::string Name;
  std::vector<std::pair<std::string, std::string>> Attributes;
  std::vector<Element> Children;
  std::string Text;

  /// Returns the attribute value or nullptr.
  const std::string *findAttribute(const std::string &Key) const;

  /// Returns the first child with \p ChildName or nullptr.
  const Element *findChild(const std::string &ChildName) const;

  /// Collects all children with \p ChildName.
  std::vector<const Element *> children(const std::string &ChildName) const;
};

/// Parses one XML document (elements, attributes, text; entities for
/// &amp; &lt; &gt; &quot; &apos;; comments and declarations skipped).
/// Elements nested more than 256 deep fail the parse.
ErrorOr<Element> parseDocument(const std::string &Xml);
} // namespace xml

} // namespace psg

#endif // PSG_RBM_SBMLIO_H
