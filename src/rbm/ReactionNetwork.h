//===- rbm/ReactionNetwork.h - Reaction-based models ------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reaction-based models (RBMs): N molecular species and M reactions with
/// stoichiometry and kinetics. This is the modeling formalism the engine
/// consumes; RBMs compile to ODE systems via rbm/MassAction.h.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_RBM_REACTIONNETWORK_H
#define PSG_RBM_REACTIONNETWORK_H

#include "linalg/Matrix.h"
#include "support/Error.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace psg {

/// A molecular species with its initial concentration.
struct Species {
  std::string Name;
  double InitialConcentration = 0.0;
};

/// Rate law attached to a reaction.
enum class KineticsKind {
  MassAction,      ///< rate = k * prod_j X_j^a_ij
  MichaelisMenten, ///< rate = k * [S/(Km + S)] * (other reactant factors)
  Hill,            ///< rate = k * [S^n/(K^n + S^n)] * (other factors)
  HillRepression   ///< rate = k * [K^n/(K^n + S^n)] * (other factors)
};

/// One biochemical reaction: reactants -> products with a rate law.
///
/// Reactants/Products map species index -> stoichiometric coefficient.
/// For Michaelis-Menten and Hill kinetics the *first* reactant plays the
/// substrate role in the saturating factor.
struct Reaction {
  std::vector<std::pair<unsigned, unsigned>> Reactants;
  std::vector<std::pair<unsigned, unsigned>> Products;
  double RateConstant = 0.0; ///< k (mass action), Vmax-like for MM/Hill.
  KineticsKind Kind = KineticsKind::MassAction;
  double Km = 0.0;    ///< Michaelis constant (MM only).
  double HillK = 0.0; ///< Half-saturation constant (Hill only).
  double HillN = 1.0; ///< Hill exponent (Hill only).

  /// Total number of reactant molecules (the reaction order for mass
  /// action).
  unsigned order() const {
    unsigned Sum = 0;
    for (const auto &[Idx, Coef] : Reactants)
      Sum += Coef;
    return Sum;
  }
};

/// Adds \p Coef molecules of species \p Index to a reaction side,
/// merging a species that repeats into its existing term. Fails, leaving
/// \p Side unchanged, when the side's coefficients would sum past
/// \c unsigned (the merged term and Reaction::order() hold that sum).
/// The model readers build every side through this.
Status addSideTerm(std::vector<std::pair<unsigned, unsigned>> &Side,
                   unsigned Index, unsigned Coef);

/// An RBM: species, reactions, and a name.
class ReactionNetwork {
public:
  ReactionNetwork() = default;
  explicit ReactionNetwork(std::string Name) : NetworkName(std::move(Name)) {}

  const std::string &name() const { return NetworkName; }
  void setName(std::string Name) { NetworkName = std::move(Name); }

  /// Registers a species; names must be unique. Returns its index.
  unsigned addSpecies(const std::string &Name, double Initial);

  /// Returns the index of \p Name, or fails if unknown.
  ErrorOr<unsigned> findSpecies(const std::string &Name) const;

  /// Appends a reaction (indices must be in range; asserted).
  void addReaction(Reaction R);

  size_t numSpecies() const { return SpeciesList.size(); }
  size_t numReactions() const { return Reactions.size(); }

  const Species &species(size_t I) const { return SpeciesList[I]; }
  Species &species(size_t I) { return SpeciesList[I]; }
  const Reaction &reaction(size_t I) const { return Reactions[I]; }
  Reaction &reaction(size_t I) { return Reactions[I]; }
  const std::vector<Species> &allSpecies() const { return SpeciesList; }
  const std::vector<Reaction> &allReactions() const { return Reactions; }

  /// Initial concentrations in species order.
  std::vector<double> initialState() const;

  /// Dense reactant stoichiometric matrix A (M x N).
  Matrix reactantMatrix() const;

  /// Dense product stoichiometric matrix B (M x N).
  Matrix productMatrix() const;

  /// Checks structural consistency: nonempty, indices in range,
  /// nonnegative constants, positive MM/Hill parameters.
  Status validate() const;

private:
  std::string NetworkName = "rbm";
  std::vector<Species> SpeciesList;
  std::vector<Reaction> Reactions;
  std::unordered_map<std::string, unsigned> SpeciesIndex;
};

} // namespace psg

#endif // PSG_RBM_REACTIONNETWORK_H
