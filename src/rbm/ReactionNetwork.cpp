//===- rbm/ReactionNetwork.cpp --------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "rbm/ReactionNetwork.h"

#include "support/StringUtils.h"

#include <cmath>
#include <cstdint>
#include <limits>

using namespace psg;

Status psg::addSideTerm(std::vector<std::pair<unsigned, unsigned>> &Side,
                        unsigned Index, unsigned Coef) {
  uint64_t Total = Coef;
  for (const auto &[Idx, C] : Side)
    Total += C;
  if (Total > std::numeric_limits<unsigned>::max())
    return Status::failure(
        formatString("stoichiometric coefficients of one side sum past %u",
                     std::numeric_limits<unsigned>::max()));
  for (auto &[Idx, C] : Side)
    if (Idx == Index) {
      C += Coef;
      return Status::success();
    }
  Side.emplace_back(Index, Coef);
  return Status::success();
}

unsigned ReactionNetwork::addSpecies(const std::string &Name,
                                     double Initial) {
  assert(!SpeciesIndex.count(Name) && "duplicate species name");
  const unsigned Index = static_cast<unsigned>(SpeciesList.size());
  SpeciesList.push_back({Name, Initial});
  SpeciesIndex.emplace(Name, Index);
  return Index;
}

ErrorOr<unsigned> ReactionNetwork::findSpecies(const std::string &Name) const {
  auto It = SpeciesIndex.find(Name);
  if (It == SpeciesIndex.end())
    return ErrorOr<unsigned>::failure("unknown species '" + Name + "'");
  return It->second;
}

void ReactionNetwork::addReaction(Reaction R) {
#ifndef NDEBUG
  for (const auto &[Idx, Coef] : R.Reactants)
    assert(Idx < SpeciesList.size() && Coef > 0 && "bad reactant entry");
  for (const auto &[Idx, Coef] : R.Products)
    assert(Idx < SpeciesList.size() && Coef > 0 && "bad product entry");
#endif
  Reactions.push_back(std::move(R));
}

std::vector<double> ReactionNetwork::initialState() const {
  std::vector<double> State(SpeciesList.size());
  for (size_t I = 0; I < SpeciesList.size(); ++I)
    State[I] = SpeciesList[I].InitialConcentration;
  return State;
}

Matrix ReactionNetwork::reactantMatrix() const {
  Matrix A(numReactions(), numSpecies());
  for (size_t R = 0; R < numReactions(); ++R)
    for (const auto &[Idx, Coef] : Reactions[R].Reactants)
      A(R, Idx) += Coef;
  return A;
}

Matrix ReactionNetwork::productMatrix() const {
  Matrix B(numReactions(), numSpecies());
  for (size_t R = 0; R < numReactions(); ++R)
    for (const auto &[Idx, Coef] : Reactions[R].Products)
      B(R, Idx) += Coef;
  return B;
}

Status ReactionNetwork::validate() const {
  if (SpeciesList.empty())
    return Status::failure("model has no species");
  if (Reactions.empty())
    return Status::failure("model has no reactions");
  // NaN passes every ordered comparison below, so each value is first
  // checked for finiteness.
  for (size_t I = 0; I < SpeciesList.size(); ++I) {
    const double Initial = SpeciesList[I].InitialConcentration;
    if (!std::isfinite(Initial))
      return Status::failure(
          formatString("species '%s' has non-finite initial concentration %g",
                       SpeciesList[I].Name.c_str(), Initial));
    if (Initial < 0)
      return Status::failure(
          formatString("species '%s' has negative initial concentration",
                       SpeciesList[I].Name.c_str()));
  }
  for (size_t R = 0; R < Reactions.size(); ++R) {
    const Reaction &Rx = Reactions[R];
    if (!std::isfinite(Rx.RateConstant))
      return Status::failure(formatString(
          "reaction %zu has non-finite rate constant %g", R, Rx.RateConstant));
    if (Rx.RateConstant < 0)
      return Status::failure(
          formatString("reaction %zu has negative rate constant", R));
    for (const auto &[Idx, Coef] : Rx.Reactants)
      if (Idx >= SpeciesList.size() || Coef == 0)
        return Status::failure(
            formatString("reaction %zu has a bad reactant entry", R));
    for (const auto &[Idx, Coef] : Rx.Products)
      if (Idx >= SpeciesList.size() || Coef == 0)
        return Status::failure(
            formatString("reaction %zu has a bad product entry", R));
    if (Rx.Kind == KineticsKind::MichaelisMenten) {
      if (Rx.Reactants.empty())
        return Status::failure(formatString(
            "Michaelis-Menten reaction %zu needs a substrate", R));
      if (!std::isfinite(Rx.Km) || Rx.Km <= 0)
        return Status::failure(formatString(
            "reaction %zu needs a positive finite Km, got %g", R, Rx.Km));
    }
    if (Rx.Kind == KineticsKind::Hill ||
        Rx.Kind == KineticsKind::HillRepression) {
      if (Rx.Reactants.empty())
        return Status::failure(
            formatString("Hill reaction %zu needs a substrate", R));
      if (!std::isfinite(Rx.HillK) || !std::isfinite(Rx.HillN) ||
          Rx.HillK <= 0 || Rx.HillN <= 0)
        return Status::failure(formatString(
            "reaction %zu needs positive finite Hill K and n, got %g and %g",
            R, Rx.HillK, Rx.HillN));
    }
  }
  return Status::success();
}
