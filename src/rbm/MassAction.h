//===- rbm/MassAction.h - RBM-to-ODE compilation ----------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a ReactionNetwork into an OdeSystem following the law of
/// mass action: dX/dt = (B - A)^T [K (.) X^A], extended with saturating
/// Michaelis-Menten and Hill factors. The compiled form mirrors the data
/// structures a GPU kernel would parse (flattened term and contribution
/// arrays), provides the analytic Jacobian, and exposes the per-evaluation
/// operation profile consumed by the vgpu cost model.
///
/// Compilation is split in two, mirroring the GPU memory model: an
/// immutable CompiledModel holds everything derived from the network
/// alone (CSR stoichiometry, kinetics, work profile — the constant-memory
/// image cupSODA-style codes upload once per batch) and is shared across
/// every simulation of a batch; a CompiledOdeSystem is the cheap
/// per-simulation view carrying only the rate constants and the rate
/// scratch vector (the per-thread state).
///
//===----------------------------------------------------------------------===//

#ifndef PSG_RBM_MASSACTION_H
#define PSG_RBM_MASSACTION_H

#include "ode/OdeSystem.h"
#include "rbm/ReactionNetwork.h"

#include <memory>

namespace psg {

/// Operation counts of one compiled rhs / Jacobian evaluation; the vgpu
/// cost model converts these to modeled cycles.
struct EvaluationProfile {
  size_t RhsMultiplies = 0;  ///< Products in the rate computations.
  size_t RhsAccumulates = 0; ///< Additions into the derivative vector.
  size_t JacobianEntries = 0; ///< Nonzero structural Jacobian updates.
};

/// The shape-specialized kernel classes the compiler partitions reactions
/// into. Each class executes one branch-free loop over its contiguous run
/// of positions (cupSODA-style mechanism compilation, applied to the CPU
/// kernels): the two dominant mass-action shapes get dedicated loops with
/// no inner term loop at all.
enum class KernelClass : uint8_t {
  MassAction1 = 0, ///< One reactant term with coefficient 1: k * Xa.
  MassAction2,     ///< Two terms, both coefficient 1: k * Xa * Xb.
  MassActionN,     ///< Any other pure product form (incl. zero-order).
  MichaelisMenten, ///< MM factor on the first term, mass-action tail.
  Hill,            ///< Hill activation factor, mass-action tail.
  HillRepression,  ///< Hill repression factor, mass-action tail.
};

/// Number of KernelClass values (run partition bound).
constexpr size_t NumKernelClasses = 6;

/// The immutable, shareable compilation of a ReactionNetwork: flat
/// evaluation arrays plus the per-reaction kinetics parameters, the
/// kind-partitioned kernel layout, and the Jacobian sparsity pattern.
/// Compiled once per network (counted by `psg.rbm.compilations`) and
/// shared by every per-simulation CompiledOdeSystem view of a batch.
class CompiledModel {
public:
  /// Compiles \p Net; the network must validate().
  explicit CompiledModel(const ReactionNetwork &Net);

  struct KineticsParams {
    KineticsKind Kind;
    double Km, HillK, HillN;
    /// pow(HillK, HillN), precomputed at compile time so the saturating
    /// factor evaluations avoid one pow() per call.
    double KnPow;
    /// HillN when it is a small whole number (the overwhelmingly common
    /// case for Hill coefficients), else -1. Lets the saturating-factor
    /// evaluations replace std::pow with repeated multiplication.
    int HillNInt;
  };

  /// One contiguous run of same-class reactions in the permuted order:
  /// positions [Begin, End) of RunOrder, all of class Class.
  struct KernelRun {
    KernelClass Class;
    uint32_t Begin;
    uint32_t End;
  };

  std::string SystemName;
  size_t NumSpecies = 0;
  size_t NumReactions = 0;

  // Reaction terms: for reaction r, terms [TermBegin[r], TermBegin[r+1]).
  std::vector<uint32_t> TermBegin;
  std::vector<uint32_t> TermSpecies;
  std::vector<uint32_t> TermCoef;

  // Net stoichiometry per reaction: entries [NetBegin[r], NetBegin[r+1]).
  std::vector<uint32_t> NetBegin;
  std::vector<uint32_t> NetSpecies;
  std::vector<double> NetCoef;

  /// The constants the network was compiled with (per-simulation values
  /// live in the CompiledOdeSystem views).
  std::vector<double> DefaultConstants;
  std::vector<KineticsParams> Kinetics;

  // --- Kind-partitioned kernel layout -----------------------------------
  //
  // Reactions are stably partitioned by KernelClass into at most
  // NumKernelClasses contiguous runs. "Position" indexes the permuted
  // order; RunOrder maps it back to the original reaction index, which is
  // where rates are written — the stoichiometry accumulation still walks
  // reactions in original order, so trajectories are bit-exact with the
  // unpartitioned evaluation (see DESIGN.md "Kinetics kernel layout").

  std::vector<KernelRun> Runs;      ///< At most NumKernelClasses entries.
  std::vector<uint32_t> RunOrder;   ///< Position -> original reaction.
  std::vector<uint32_t> PositionOf; ///< Original reaction -> position.
  /// First (only) species of MassAction1/MassAction2 reactions, and the
  /// saturating substrate of MichaelisMenten/Hill/HillRepression ones,
  /// indexed by position. Zero for positions where it does not apply.
  std::vector<uint32_t> PosA;
  /// Second species of MassAction2 reactions, indexed by position.
  std::vector<uint32_t> PosB;
  /// Saturating-kernel parameters, indexed by position (zero outside
  /// their class): gathering them positionally makes the per-run loops
  /// walk dense arrays instead of striding through KineticsParams.
  std::vector<double> PosKm;
  std::vector<double> PosKnPow;
  std::vector<double> PosHillN;
  std::vector<double> PosHillK;
  std::vector<int32_t> PosHillNInt;
  /// First term index of the reaction at each position (TermBegin[RunOrder
  /// [P]], hoisted so the kernel loops read it contiguously instead of
  /// gathering through the permutation).
  std::vector<uint32_t> PosTerm0;
  /// Mass-action tail term range at each position: the full term range
  /// for MassActionN, the terms after the saturating substrate for
  /// MichaelisMenten/Hill/HillRepression. Empty (Begin == End) tails are
  /// the common case for order-one saturating reactions.
  std::vector<uint32_t> PosTailBegin;
  std::vector<uint32_t> PosTailEnd;

  /// Species-major transpose of the net stoichiometry: species i sums
  /// RhsCoef[c] * rate(RhsReaction[c]) over c in [RhsRowBegin[i],
  /// RhsRowBegin[i+1]). Contributions are stored in ascending reaction
  /// order, so each per-species sum performs the same additions in the
  /// same order as the reference's reaction-major accumulation — keeping
  /// the gather bit-exact while replacing the zero-fill pass and random
  /// read-modify-writes of DyDt with one sequential write per species.
  std::vector<uint32_t> RhsRowBegin;
  std::vector<uint32_t> RhsReaction;
  std::vector<double> RhsCoef;
  /// Whether rhs() uses the species-major gather above instead of the
  /// reaction-major scatter. Both are bit-exact; measurement picks the
  /// winner structurally: models with saturating kinetics profit from the
  /// gather, while pure mass-action models (vectorizable rate loops,
  /// chain-structured stoichiometry) keep the sequential reaction walk.
  bool SpeciesMajorRhs = false;

  // --- Jacobian sparsity pattern ----------------------------------------
  //
  // CSR over the structurally nonzero (i, j) entries of d(rhs_i)/d(X_j),
  // with a per-entry contribution list: entry e sums, over contributions
  // c in [JacContribBegin[e], JacContribBegin[e+1]), the products
  // JacContribCoef[c] * partial(JacContribTerm[c]), where partial(t) is
  // the derivative of term t's reaction rate w.r.t. the term's species.
  // Contributions are stored in the original (reaction, term, net-entry)
  // traversal order so the per-entry sums reproduce the accumulation
  // order — and bit patterns — of the unpartitioned dense evaluation.

  std::vector<uint32_t> JacRowBegin;     ///< Size NumSpecies + 1.
  std::vector<uint32_t> JacCol;          ///< Column per nonzero entry.
  std::vector<uint32_t> JacContribBegin; ///< Size jacNonZeros() + 1.
  std::vector<uint32_t> JacContribTerm;  ///< Global term index per contrib.
  std::vector<double> JacContribCoef;    ///< Net stoichiometry per contrib.

  /// Number of structurally nonzero Jacobian entries.
  size_t jacNonZeros() const { return JacCol.size(); }

  EvaluationProfile Profile;

  /// Structural + kinetic fingerprint of the source network (see
  /// networkFingerprint); cache keys compare this instead of recompiling.
  uint64_t Fingerprint = 0;
};

/// Compiles \p Net into a shareable immutable model. Increments
/// `psg.rbm.compilations`.
std::shared_ptr<const CompiledModel> compileModel(const ReactionNetwork &Net);

/// Deterministic fingerprint of a network's compiled-relevant content:
/// species/reaction structure, kinetics parameters, and baseline rate
/// constants. Two networks with equal fingerprints compile to equal
/// models, so batch engines use it to reuse cached compilations.
uint64_t networkFingerprint(const ReactionNetwork &Net);

/// A per-simulation view of a CompiledModel: the OdeSystem the solvers
/// integrate.
///
/// Rate constants are mutable (setRateConstant) so one compiled model can
/// be re-parameterized across the thousands of simulations of a sweep
/// without re-deriving the ODEs; the species order matches the network.
/// Views are cheap to construct from a shared model (two vectors of
/// NumReactions doubles) and reusable across simulations via rebind().
class CompiledOdeSystem : public OdeSystem {
public:
  /// Compiles \p Net and wraps the result; the network must validate().
  /// Convenience for single-simulation call sites — batch dispatch paths
  /// share one compileModel() result across views instead.
  explicit CompiledOdeSystem(const ReactionNetwork &Net);

  /// Wraps an existing compilation; no per-reaction work besides copying
  /// the default constants.
  explicit CompiledOdeSystem(std::shared_ptr<const CompiledModel> Model);

  size_t dimension() const override { return Shared->NumSpecies; }
  void rhs(double T, const double *Y, double *DyDt) const override;
  bool hasAnalyticJacobian() const override { return true; }
  void analyticJacobian(double T, const double *Y, Matrix &J) const override;
  std::string name() const override { return Shared->SystemName; }

  /// The pre-partition evaluation kernels: one loop over reactions in
  /// original order, branching on kinetics kind per reaction, dense
  /// Jacobian resize per call. Kept callable as the differential oracle
  /// for the kind-partitioned kernels: tests/rhs_kernels_test.cpp pins
  /// rhs() and analyticJacobian() bit-exact against these.
  void rhsReference(double T, const double *Y, double *DyDt) const;
  void analyticJacobianReference(double T, const double *Y, Matrix &J) const;

  /// Routes rhs()/analyticJacobian() through the reference kernels
  /// process-wide. Test hook only: it is how the oracle suite
  /// drives entire simulator personalities through both evaluation paths
  /// without a parallel plumbing of the choice through every engine.
  static void setUseReferenceKernelsForTesting(bool Enable);
  static bool useReferenceKernelsForTesting();

  size_t numReactions() const { return Shared->NumReactions; }

  /// The shared immutable compilation backing this view.
  const CompiledModel &model() const { return *Shared; }
  const std::shared_ptr<const CompiledModel> &sharedModel() const {
    return Shared;
  }

  /// Re-points this view at a different compilation (resetting the rate
  /// constants to the new model's defaults), or resets it onto the same
  /// one. Reused per-worker views rebind once per sub-batch.
  void rebind(std::shared_ptr<const CompiledModel> Model);

  /// Reads/writes the kinetic constant of reaction \p R.
  double rateConstant(size_t R) const { return RateConstants[R]; }
  void setRateConstant(size_t R, double K) {
    assert(R < Shared->NumReactions && "reaction index out of range");
    RateConstants[R] = K;
    RatePermuted[Shared->PositionOf[R]] = K;
  }

  /// Replaces all rate constants (size must match numReactions()).
  void setRateConstants(const std::vector<double> &K);

  /// Same, assigning in place from a raw span — the batch dispatch loops
  /// re-parameterize one reused view per simulation, and this overload
  /// does it without touching the allocator.
  void setRateConstants(const double *K, size_t Count);

  /// All current rate constants, in reaction order.
  const std::vector<double> &rateConstants() const { return RateConstants; }

  /// Restores the constants the network was compiled with.
  void resetRateConstants();

  /// Static operation profile of one evaluation.
  const EvaluationProfile &profile() const { return Shared->Profile; }

private:
  std::shared_ptr<const CompiledModel> Shared;
  /// Rate constants in original reaction order (the public API order).
  std::vector<double> RateConstants;
  /// The same constants permuted to kernel-position order; maintained by
  /// every setter so the partitioned rate loops read them contiguously.
  std::vector<double> RatePermuted;
  mutable std::vector<double> RateScratch;
  /// Per-term rate partials d(rate_r)/d(X_{term t}), indexed by global
  /// term index — phase 1 of the sparsity-patterned Jacobian fill.
  mutable std::vector<double> PartialScratch;
  /// Identity of this view's Jacobian pattern for Matrix::claimPattern:
  /// bumped from a process-wide counter on every construct/rebind so a
  /// workspace claimed by a dead view (or by this view against an old
  /// model) is never mistaken for current.
  uint64_t PatternEpoch = 0;

  void computeRates(const double *Y) const;
  double saturatingFactor(size_t R, double S) const;
  double saturatingFactorDerivative(size_t R, double S) const;
};

} // namespace psg

#endif // PSG_RBM_MASSACTION_H
