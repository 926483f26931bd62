//===- rbm/MassAction.cpp -------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "rbm/MassAction.h"

#include "rbm/Kinetics.h"
#include "support/Error.h"
#include "support/Metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>

using namespace psg;

namespace {
/// FNV-1a over mixed words; doubles hash by bit pattern.
class Fnv {
public:
  void mix(uint64_t V) {
    for (unsigned B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xFF;
      H *= 0x100000001B3ull;
    }
  }
  void mix(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    mix(Bits);
  }
  void mix(const std::string &S) {
    mix(static_cast<uint64_t>(S.size()));
    for (char C : S) {
      H ^= static_cast<unsigned char>(C);
      H *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xCBF29CE484222325ull;
};

/// Process-wide kernel-path switch (see setUseReferenceKernelsForTesting).
std::atomic<bool> UseReferenceKernelsFlag{false};
} // namespace

uint64_t psg::networkFingerprint(const ReactionNetwork &Net) {
  Fnv H;
  H.mix(Net.name());
  H.mix(static_cast<uint64_t>(Net.numSpecies()));
  H.mix(static_cast<uint64_t>(Net.numReactions()));
  for (const Reaction &Rx : Net.allReactions()) {
    H.mix(static_cast<uint64_t>(Rx.Reactants.size()));
    for (const auto &[Idx, Coef] : Rx.Reactants) {
      H.mix(static_cast<uint64_t>(Idx));
      H.mix(static_cast<uint64_t>(Coef));
    }
    H.mix(static_cast<uint64_t>(Rx.Products.size()));
    for (const auto &[Idx, Coef] : Rx.Products) {
      H.mix(static_cast<uint64_t>(Idx));
      H.mix(static_cast<uint64_t>(Coef));
    }
    H.mix(static_cast<uint64_t>(Rx.Kind));
    H.mix(Rx.RateConstant);
    H.mix(Rx.Km);
    H.mix(Rx.HillK);
    H.mix(Rx.HillN);
  }
  return H.value();
}

/// The kernel class of reaction \p R: saturating kinds map to their
/// dedicated class when they have a substrate term (a saturating reaction
/// with no reactants degenerates to rate = k, i.e. mass action), mass
/// action splits by the two dominant shapes.
static KernelClass classifyReaction(const CompiledModel &M, size_t R) {
  const uint32_t Begin = M.TermBegin[R], End = M.TermBegin[R + 1];
  const uint32_t NumTerms = End - Begin;
  if (NumTerms > 0) {
    switch (M.Kinetics[R].Kind) {
    case KineticsKind::MichaelisMenten:
      return KernelClass::MichaelisMenten;
    case KineticsKind::Hill:
      return KernelClass::Hill;
    case KineticsKind::HillRepression:
      return KernelClass::HillRepression;
    case KineticsKind::MassAction:
      break;
    }
  }
  if (NumTerms == 1 && M.TermCoef[Begin] == 1)
    return KernelClass::MassAction1;
  if (NumTerms == 2 && M.TermCoef[Begin] == 1 && M.TermCoef[Begin + 1] == 1)
    return KernelClass::MassAction2;
  return KernelClass::MassActionN;
}

CompiledModel::CompiledModel(const ReactionNetwork &Net)
    : SystemName(Net.name()), NumSpecies(Net.numSpecies()),
      NumReactions(Net.numReactions()) {
  if (Status S = Net.validate(); !S)
    fatalError("cannot compile invalid network: " + S.message());

  TermBegin.reserve(NumReactions + 1);
  NetBegin.reserve(NumReactions + 1);
  DefaultConstants.reserve(NumReactions);
  Kinetics.reserve(NumReactions);

  std::vector<std::pair<uint32_t, double>> Net0;
  for (size_t R = 0; R < NumReactions; ++R) {
    const Reaction &Rx = Net.reaction(R);
    TermBegin.push_back(static_cast<uint32_t>(TermSpecies.size()));
    for (const auto &[Idx, Coef] : Rx.Reactants) {
      TermSpecies.push_back(Idx);
      TermCoef.push_back(Coef);
    }
    // Net stoichiometry B - A, merged per species.
    NetBegin.push_back(static_cast<uint32_t>(NetSpecies.size()));
    Net0.clear();
    for (const auto &[Idx, Coef] : Rx.Reactants)
      Net0.emplace_back(Idx, -static_cast<double>(Coef));
    for (const auto &[Idx, Coef] : Rx.Products) {
      bool Merged = false;
      for (auto &[I0, C0] : Net0)
        if (I0 == Idx) {
          C0 += Coef;
          Merged = true;
          break;
        }
      if (!Merged)
        Net0.emplace_back(Idx, static_cast<double>(Coef));
    }
    for (const auto &[Idx, Coef] : Net0)
      if (Coef != 0.0) {
        NetSpecies.push_back(Idx);
        NetCoef.push_back(Coef);
      }
    DefaultConstants.push_back(Rx.RateConstant);
    const double KnPow = Rx.Kind == KineticsKind::Hill ||
                                 Rx.Kind == KineticsKind::HillRepression
                             ? std::pow(Rx.HillK, Rx.HillN)
                             : 0.0;
    int HillNInt = -1;
    if (Rx.HillN >= 0.0 && Rx.HillN <= 16.0 &&
        Rx.HillN == std::floor(Rx.HillN))
      HillNInt = static_cast<int>(Rx.HillN);
    Kinetics.push_back({Rx.Kind, Rx.Km, Rx.HillK, Rx.HillN, KnPow, HillNInt});
  }
  TermBegin.push_back(static_cast<uint32_t>(TermSpecies.size()));
  NetBegin.push_back(static_cast<uint32_t>(NetSpecies.size()));

  // --- Kind partition: stable bucket sort of reactions by kernel class.
  std::vector<KernelClass> ClassOf(NumReactions);
  std::array<uint32_t, NumKernelClasses> ClassCount{};
  for (size_t R = 0; R < NumReactions; ++R) {
    ClassOf[R] = classifyReaction(*this, R);
    ++ClassCount[static_cast<size_t>(ClassOf[R])];
  }
  std::array<uint32_t, NumKernelClasses> ClassNext{};
  uint32_t Offset = 0;
  for (size_t C = 0; C < NumKernelClasses; ++C) {
    ClassNext[C] = Offset;
    if (ClassCount[C] > 0)
      Runs.push_back({static_cast<KernelClass>(C), Offset,
                      Offset + ClassCount[C]});
    Offset += ClassCount[C];
  }
  RunOrder.resize(NumReactions);
  PositionOf.resize(NumReactions);
  for (size_t R = 0; R < NumReactions; ++R) {
    const uint32_t P = ClassNext[static_cast<size_t>(ClassOf[R])]++;
    RunOrder[P] = static_cast<uint32_t>(R);
    PositionOf[R] = P;
  }

  // Position-indexed operands and saturating parameters.
  PosA.assign(NumReactions, 0);
  PosB.assign(NumReactions, 0);
  PosKm.assign(NumReactions, 0.0);
  PosKnPow.assign(NumReactions, 0.0);
  PosHillN.assign(NumReactions, 0.0);
  PosHillK.assign(NumReactions, 0.0);
  PosHillNInt.assign(NumReactions, -1);
  PosTerm0.assign(NumReactions, 0);
  PosTailBegin.assign(NumReactions, 0);
  PosTailEnd.assign(NumReactions, 0);
  for (uint32_t P = 0; P < NumReactions; ++P) {
    const uint32_t R = RunOrder[P];
    const uint32_t Begin = TermBegin[R];
    const bool Saturating = ClassOf[R] == KernelClass::MichaelisMenten ||
                            ClassOf[R] == KernelClass::Hill ||
                            ClassOf[R] == KernelClass::HillRepression;
    PosTerm0[P] = Begin;
    PosTailBegin[P] = Saturating ? Begin + 1 : Begin;
    PosTailEnd[P] = TermBegin[R + 1];
    switch (ClassOf[R]) {
    case KernelClass::MassAction2:
      PosB[P] = TermSpecies[Begin + 1];
      [[fallthrough]];
    case KernelClass::MassAction1:
      PosA[P] = TermSpecies[Begin];
      break;
    case KernelClass::MassActionN:
      break;
    case KernelClass::MichaelisMenten:
      PosA[P] = TermSpecies[Begin];
      PosKm[P] = Kinetics[R].Km;
      break;
    case KernelClass::Hill:
    case KernelClass::HillRepression:
      PosA[P] = TermSpecies[Begin];
      PosKnPow[P] = Kinetics[R].KnPow;
      PosHillN[P] = Kinetics[R].HillN;
      PosHillK[P] = Kinetics[R].HillK;
      PosHillNInt[P] = Kinetics[R].HillNInt;
      break;
    }
  }

  // --- Species-major rhs accumulation lists: walking reactions in
  // ascending order per species reproduces the reference's per-component
  // addition sequence exactly (additions into different components are
  // independent, so regrouping by species preserves each one's order).
  {
    std::vector<std::vector<std::pair<uint32_t, double>>> PerSpecies(
        NumSpecies); // (reaction, net coef), ascending reaction order
    for (size_t R = 0; R < NumReactions; ++R)
      for (uint32_t E = NetBegin[R]; E < NetBegin[R + 1]; ++E)
        PerSpecies[NetSpecies[E]].emplace_back(static_cast<uint32_t>(R),
                                               NetCoef[E]);
    RhsRowBegin.reserve(NumSpecies + 1);
    RhsReaction.reserve(NetSpecies.size());
    RhsCoef.reserve(NetSpecies.size());
    for (size_t I = 0; I < NumSpecies; ++I) {
      RhsRowBegin.push_back(static_cast<uint32_t>(RhsReaction.size()));
      for (const auto &[R, Coef] : PerSpecies[I]) {
        RhsReaction.push_back(R);
        RhsCoef.push_back(Coef);
      }
    }
    RhsRowBegin.push_back(static_cast<uint32_t>(RhsReaction.size()));
    for (const KernelRun &Run : Runs)
      SpeciesMajorRhs |= Run.Class == KernelClass::MichaelisMenten ||
                         Run.Class == KernelClass::Hill ||
                         Run.Class == KernelClass::HillRepression;
  }

  // --- Jacobian sparsity pattern: discover the structurally nonzero
  // (i, j) entries and record, per entry, its contributions in the
  // original (reaction, term, net-entry) traversal order — the order the
  // unpartitioned dense evaluation accumulated them in, which is what
  // keeps the patterned fill bit-exact (see DESIGN.md).
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> RowEntries(
      NumSpecies); // (col, entry id), insertion order
  std::vector<std::vector<std::pair<uint32_t, double>>> Entry; // (term, coef)
  for (size_t R = 0; R < NumReactions; ++R) {
    for (uint32_t T = TermBegin[R]; T < TermBegin[R + 1]; ++T) {
      const uint32_t Col = TermSpecies[T];
      for (uint32_t E = NetBegin[R]; E < NetBegin[R + 1]; ++E) {
        const uint32_t Row = NetSpecies[E];
        uint32_t Id = UINT32_MAX;
        for (const auto &[C0, Id0] : RowEntries[Row])
          if (C0 == Col) {
            Id = Id0;
            break;
          }
        if (Id == UINT32_MAX) {
          Id = static_cast<uint32_t>(Entry.size());
          RowEntries[Row].emplace_back(Col, Id);
          Entry.emplace_back();
        }
        Entry[Id].emplace_back(T, NetCoef[E]);
      }
    }
  }
  JacRowBegin.reserve(NumSpecies + 1);
  JacCol.reserve(Entry.size());
  JacContribBegin.reserve(Entry.size() + 1);
  for (size_t I = 0; I < NumSpecies; ++I) {
    JacRowBegin.push_back(static_cast<uint32_t>(JacCol.size()));
    std::sort(RowEntries[I].begin(), RowEntries[I].end());
    for (const auto &[Col, Id] : RowEntries[I]) {
      JacCol.push_back(Col);
      JacContribBegin.push_back(static_cast<uint32_t>(JacContribTerm.size()));
      for (const auto &[Term, Coef] : Entry[Id]) {
        JacContribTerm.push_back(Term);
        JacContribCoef.push_back(Coef);
      }
    }
  }
  JacRowBegin.push_back(static_cast<uint32_t>(JacCol.size()));
  JacContribBegin.push_back(static_cast<uint32_t>(JacContribTerm.size()));

  Profile.RhsMultiplies = TermSpecies.size() + NumReactions;
  Profile.RhsAccumulates = NetSpecies.size();
  // One structural Jacobian update per (reactant term, net entry) pair.
  for (size_t R = 0; R < NumReactions; ++R)
    Profile.JacobianEntries +=
        (TermBegin[R + 1] - TermBegin[R]) * (NetBegin[R + 1] - NetBegin[R]);

  Fingerprint = networkFingerprint(Net);
  JacPatternId = nextPatternEpoch();
}

std::shared_ptr<const CompiledModel>
psg::compileModel(const ReactionNetwork &Net) {
  auto Model = std::make_shared<const CompiledModel>(Net);
  static Counter &Compilations = metrics().counter("psg.rbm.compilations");
  Compilations.add();
  return Model;
}

void CompiledOdeSystem::setUseReferenceKernelsForTesting(bool Enable) {
  UseReferenceKernelsFlag.store(Enable, std::memory_order_relaxed);
}

bool CompiledOdeSystem::useReferenceKernelsForTesting() {
  return UseReferenceKernelsFlag.load(std::memory_order_relaxed);
}

CompiledOdeSystem::CompiledOdeSystem(const ReactionNetwork &Net)
    : CompiledOdeSystem(compileModel(Net)) {}

CompiledOdeSystem::CompiledOdeSystem(std::shared_ptr<const CompiledModel> Model)
    : Shared(std::move(Model)), RateConstants(Shared->DefaultConstants),
      RatePermuted(Shared->NumReactions),
      RateScratch(Shared->NumReactions),
      PartialScratch(Shared->TermSpecies.size()),
      PatternEpoch(nextPatternEpoch()) {
  for (uint32_t P = 0; P < Shared->NumReactions; ++P)
    RatePermuted[P] = RateConstants[Shared->RunOrder[P]];
  bindModel();
}

void CompiledOdeSystem::rebind(std::shared_ptr<const CompiledModel> Model) {
  Shared = std::move(Model);
  RateConstants = Shared->DefaultConstants;
  RatePermuted.resize(Shared->NumReactions);
  RateScratch.resize(Shared->NumReactions);
  PartialScratch.resize(Shared->TermSpecies.size());
  for (uint32_t P = 0; P < Shared->NumReactions; ++P)
    RatePermuted[P] = RateConstants[Shared->RunOrder[P]];
  // The Jacobian pattern (and thus the meaning of a claimed workspace)
  // may have changed with the model; retire the old epoch.
  PatternEpoch = nextPatternEpoch();
  bindModel();
}

void CompiledOdeSystem::bindModel() {
  JacPattern.Order = Shared->NumSpecies;
  JacPattern.RowBegin = Shared->JacRowBegin.data();
  JacPattern.Cols = Shared->JacCol.data();
  JacPattern.Id = Shared->JacPatternId;
}

void CompiledOdeSystem::setRateConstants(const std::vector<double> &K) {
  assert(K.size() == Shared->NumReactions &&
         "rate constant vector size mismatch");
  RateConstants = K;
  for (uint32_t P = 0; P < Shared->NumReactions; ++P)
    RatePermuted[P] = RateConstants[Shared->RunOrder[P]];
}

void CompiledOdeSystem::setRateConstants(const double *K, size_t Count) {
  assert(Count == Shared->NumReactions &&
         "rate constant span size mismatch");
  std::copy(K, K + Count, RateConstants.begin());
  for (uint32_t P = 0; P < Shared->NumReactions; ++P)
    RatePermuted[P] = RateConstants[Shared->RunOrder[P]];
}

void CompiledOdeSystem::resetRateConstants() {
  RateConstants = Shared->DefaultConstants;
  for (uint32_t P = 0; P < Shared->NumReactions; ++P)
    RatePermuted[P] = RateConstants[Shared->RunOrder[P]];
}

double CompiledOdeSystem::saturatingFactor(size_t R, double S) const {
  const CompiledModel::KineticsParams &P = Shared->Kinetics[R];
  S = std::max(S, 0.0);
  if (P.Kind == KineticsKind::MichaelisMenten)
    return S / (P.Km + S);
  const double Sn = hillPower(S, P.HillN, P.HillNInt);
  const double Kn = P.KnPow;
  if (P.Kind == KineticsKind::HillRepression)
    return Kn / (Kn + Sn);
  return Sn / (Kn + Sn);
}

double CompiledOdeSystem::saturatingFactorDerivative(size_t R,
                                                     double S) const {
  const CompiledModel::KineticsParams &P = Shared->Kinetics[R];
  S = std::max(S, 0.0);
  if (P.Kind == KineticsKind::MichaelisMenten)
    return mmFactorDerivative(P.Km, S);
  const double Sn = hillPower(S, P.HillN, P.HillNInt);
  return hillFactorDerivative(P.KnPow, P.HillN, P.HillK, S, Sn,
                              P.Kind == KineticsKind::HillRepression);
}

namespace {
/// Hill-kernel rate run, activation/repression resolved at compile time.
template <bool Repress>
void hillRates(const CompiledModel &M, const double *__restrict Kp,
               const double *__restrict Y, uint32_t PBegin, uint32_t PEnd,
               double *__restrict Out) {
  const uint32_t *__restrict Ord = M.RunOrder.data();
  for (uint32_t P = PBegin; P < PEnd; ++P) {
    const double S = std::max(Y[M.PosA[P]], 0.0);
    const double Sn = hillPower(S, M.PosHillN[P], M.PosHillNInt[P]);
    double Rate = Kp[P] * hillFactor(M.PosKnPow[P], Sn, Repress);
    for (uint32_t T = M.PosTailBegin[P]; T < M.PosTailEnd[P]; ++T)
      Rate *= ipow(Y[M.TermSpecies[T]], M.TermCoef[T]);
    Out[Ord[P]] = Rate;
  }
}

/// Generic mass-action Jacobian partials of one reaction's terms — the
/// differentiated-product loop shared by the MassActionN kernel. Writes
/// PartialScratch[T] for T in [Begin, End), starting each product at
/// \p Head (the rate constant, times the saturating factor when the
/// caller peeled one).
void productPartials(const CompiledModel &M, const double *__restrict Y,
                     double Head, uint32_t Begin, uint32_t End,
                     double *__restrict PS) {
  for (uint32_t T = Begin; T < End; ++T) {
    double Partial = Head;
    for (uint32_t O = Begin; O < End; ++O) {
      const double X = Y[M.TermSpecies[O]];
      if (O == T) {
        if (M.TermCoef[O] != 1)
          Partial *= static_cast<double>(M.TermCoef[O]) *
                     ipow(X, M.TermCoef[O] - 1);
      } else {
        Partial *= ipow(X, M.TermCoef[O]);
      }
    }
    PS[T] = Partial;
  }
}

/// Saturating-kernel Jacobian partials of one reaction: the substrate
/// term takes K * Fac' * tail-product; each tail term takes the
/// differentiated product headed by K * Fac.
void saturatingPartials(const CompiledModel &M, const double *__restrict Y,
                        double K, double Fac, double Deriv, uint32_t Begin,
                        uint32_t End, double *__restrict PS) {
  double DPart = K * Deriv;
  for (uint32_t O = Begin + 1; O < End; ++O)
    DPart *= ipow(Y[M.TermSpecies[O]], M.TermCoef[O]);
  PS[Begin] = DPart;
  productPartials(M, Y, K * Fac, Begin + 1, End, PS);
}

/// Hill-kernel Jacobian partial run.
template <bool Repress>
void hillPartials(const CompiledModel &M, const double *__restrict Kp,
                  const double *__restrict Y, uint32_t PBegin, uint32_t PEnd,
                  double *__restrict PS) {
  for (uint32_t P = PBegin; P < PEnd; ++P) {
    const double S = std::max(Y[M.PosA[P]], 0.0);
    const double Sn = hillPower(S, M.PosHillN[P], M.PosHillNInt[P]);
    const double Fac = hillFactor(M.PosKnPow[P], Sn, Repress);
    const double Deriv = hillFactorDerivative(
        M.PosKnPow[P], M.PosHillN[P], M.PosHillK[P], S, Sn, Repress);
    saturatingPartials(M, Y, Kp[P], Fac, Deriv, M.PosTerm0[P],
                       M.PosTailEnd[P], PS);
  }
}
} // namespace

void CompiledOdeSystem::computeRates(const double *Y) const {
  const CompiledModel &M = *Shared;
  const double *__restrict Kp = RatePermuted.data();
  const uint32_t *__restrict Ord = M.RunOrder.data();
  double *__restrict Out = RateScratch.data();
  for (const CompiledModel::KernelRun &Run : M.Runs) {
    switch (Run.Class) {
    case KernelClass::MassAction1:
      for (uint32_t P = Run.Begin; P < Run.End; ++P)
        Out[Ord[P]] = Kp[P] * Y[M.PosA[P]];
      break;
    case KernelClass::MassAction2:
      for (uint32_t P = Run.Begin; P < Run.End; ++P)
        Out[Ord[P]] = Kp[P] * Y[M.PosA[P]] * Y[M.PosB[P]];
      break;
    case KernelClass::MassActionN:
      for (uint32_t P = Run.Begin; P < Run.End; ++P) {
        double Rate = Kp[P];
        for (uint32_t T = M.PosTailBegin[P]; T < M.PosTailEnd[P]; ++T)
          Rate *= ipow(Y[M.TermSpecies[T]], M.TermCoef[T]);
        Out[Ord[P]] = Rate;
      }
      break;
    case KernelClass::MichaelisMenten:
      for (uint32_t P = Run.Begin; P < Run.End; ++P) {
        double Rate = Kp[P] * mmFactor(M.PosKm[P], Y[M.PosA[P]]);
        for (uint32_t T = M.PosTailBegin[P]; T < M.PosTailEnd[P]; ++T)
          Rate *= ipow(Y[M.TermSpecies[T]], M.TermCoef[T]);
        Out[Ord[P]] = Rate;
      }
      break;
    case KernelClass::Hill:
      hillRates<false>(M, Kp, Y, Run.Begin, Run.End, Out);
      break;
    case KernelClass::HillRepression:
      hillRates<true>(M, Kp, Y, Run.Begin, Run.End, Out);
      break;
    }
  }
}

void CompiledOdeSystem::rhs(double T, const double *Y, double *DyDt) const {
  if (useReferenceKernelsForTesting())
    return rhsReference(T, Y, DyDt);
  const CompiledModel &M = *Shared;
  computeRates(Y);
  const double *__restrict Rates = RateScratch.data();
  if (M.SpeciesMajorRhs) {
    // Species-major gather in ascending reaction order: per component
    // this performs the reference's additions in the reference's order
    // (and skips zero rates exactly as the reference skips whole
    // reactions), so the partitioned path stays bit-exact.
    for (size_t I = 0; I < M.NumSpecies; ++I) {
      double Sum = 0.0;
      for (uint32_t C = M.RhsRowBegin[I]; C < M.RhsRowBegin[I + 1]; ++C) {
        const double Rate = Rates[M.RhsReaction[C]];
        if (Rate != 0.0)
          Sum += M.RhsCoef[C] * Rate;
      }
      DyDt[I] = Sum;
    }
    return;
  }
  // Reaction-major scatter, identical to the reference's accumulation.
  for (size_t I = 0; I < M.NumSpecies; ++I)
    DyDt[I] = 0.0;
  for (size_t R = 0; R < M.NumReactions; ++R) {
    const double Rate = Rates[R];
    if (Rate == 0.0)
      continue;
    for (uint32_t E = M.NetBegin[R]; E < M.NetBegin[R + 1]; ++E)
      DyDt[M.NetSpecies[E]] += M.NetCoef[E] * Rate;
  }
}

void CompiledOdeSystem::analyticJacobian(double T, const double *Y,
                                         Matrix &J) const {
  if (useReferenceKernelsForTesting())
    return analyticJacobianReference(T, Y, J);
  const CompiledModel &M = *Shared;
  // On a matching claim the dense zero-fill is skipped entirely: phase 2
  // writes every pattern entry, and non-pattern entries still hold the
  // zeros of the claiming fill.
  J.claimPattern(this, PatternEpoch, M.NumSpecies, M.NumSpecies);

  // Phase 1: d(rate_r)/d(X_t) per reactant term t, kind-partitioned.
  // Partials are independent across terms, so evaluation order here is
  // free; only the phase-2 sums must follow the reference order.
  const double *__restrict Kp = RatePermuted.data();
  double *__restrict PS = PartialScratch.data();
  for (const CompiledModel::KernelRun &Run : M.Runs) {
    switch (Run.Class) {
    case KernelClass::MassAction1:
      for (uint32_t P = Run.Begin; P < Run.End; ++P)
        PS[M.PosTerm0[P]] = Kp[P];
      break;
    case KernelClass::MassAction2:
      for (uint32_t P = Run.Begin; P < Run.End; ++P) {
        const uint32_t T0 = M.PosTerm0[P];
        const double K = Kp[P];
        PS[T0] = K * Y[M.PosB[P]];
        PS[T0 + 1] = K * Y[M.PosA[P]];
      }
      break;
    case KernelClass::MassActionN:
      for (uint32_t P = Run.Begin; P < Run.End; ++P)
        productPartials(M, Y, Kp[P], M.PosTerm0[P], M.PosTailEnd[P], PS);
      break;
    case KernelClass::MichaelisMenten:
      for (uint32_t P = Run.Begin; P < Run.End; ++P) {
        const double S = Y[M.PosA[P]];
        saturatingPartials(M, Y, Kp[P], mmFactor(M.PosKm[P], S),
                           mmFactorDerivative(M.PosKm[P], S), M.PosTerm0[P],
                           M.PosTailEnd[P], PS);
      }
      break;
    case KernelClass::Hill:
      hillPartials<false>(M, Kp, Y, Run.Begin, Run.End, PS);
      break;
    case KernelClass::HillRepression:
      hillPartials<true>(M, Kp, Y, Run.Begin, Run.End, PS);
      break;
    }
  }

  // Phase 2: gather each structural nonzero from its contribution list,
  // in the reference accumulation order, skipping zero partials exactly
  // as the reference does (so signed-zero bit patterns match too).
  for (size_t I = 0; I < M.NumSpecies; ++I) {
    double *__restrict Row = J.rowData(I);
    for (uint32_t E = M.JacRowBegin[I]; E < M.JacRowBegin[I + 1]; ++E) {
      double Sum = 0.0;
      for (uint32_t C = M.JacContribBegin[E]; C < M.JacContribBegin[E + 1];
           ++C) {
        const double Partial = PS[M.JacContribTerm[C]];
        if (Partial != 0.0)
          Sum += M.JacContribCoef[C] * Partial;
      }
      Row[M.JacCol[E]] = Sum;
    }
  }
  (void)T;
}

void CompiledOdeSystem::rhsReference(double, const double *Y,
                                     double *DyDt) const {
  const CompiledModel &M = *Shared;
  for (size_t R = 0; R < M.NumReactions; ++R) {
    double Rate = RateConstants[R];
    uint32_t T = M.TermBegin[R];
    const uint32_t End = M.TermBegin[R + 1];
    // The saturating factor can only apply to the first term; peel it so
    // the remaining loop is pure mass action.
    if (T < End && M.Kinetics[R].Kind != KineticsKind::MassAction) {
      Rate *= saturatingFactor(R, Y[M.TermSpecies[T]]);
      ++T;
    }
    for (; T < End; ++T)
      Rate *= ipow(Y[M.TermSpecies[T]], M.TermCoef[T]);
    RateScratch[R] = Rate;
  }
  for (size_t I = 0; I < M.NumSpecies; ++I)
    DyDt[I] = 0.0;
  for (size_t R = 0; R < M.NumReactions; ++R) {
    const double Rate = RateScratch[R];
    if (Rate == 0.0)
      continue;
    for (uint32_t E = M.NetBegin[R]; E < M.NetBegin[R + 1]; ++E)
      DyDt[M.NetSpecies[E]] += M.NetCoef[E] * Rate;
  }
}

void CompiledOdeSystem::analyticJacobianReference(double, const double *Y,
                                                  Matrix &J) const {
  const CompiledModel &M = *Shared;
  J.resize(M.NumSpecies, M.NumSpecies);
  for (size_t R = 0; R < M.NumReactions; ++R) {
    const uint32_t Begin = M.TermBegin[R], End = M.TermBegin[R + 1];
    const bool Saturating = M.Kinetics[R].Kind != KineticsKind::MassAction;
    // d(rate)/d(X_j) for each reactant term j: the term's own factor is
    // differentiated, all other factors multiply through.
    for (uint32_t T = Begin; T < End; ++T) {
      const uint32_t SpeciesJ = M.TermSpecies[T];
      double Partial = RateConstants[R];
      for (uint32_t O = Begin; O < End; ++O) {
        const double X = Y[M.TermSpecies[O]];
        if (O == T) {
          if (Saturating && O == Begin)
            Partial *= saturatingFactorDerivative(R, X);
          else if (M.TermCoef[O] == 1)
            ; // d(X)/dX = 1.
          else
            Partial *= static_cast<double>(M.TermCoef[O]) *
                       ipow(X, M.TermCoef[O] - 1);
        } else {
          if (Saturating && O == Begin)
            Partial *= saturatingFactor(R, X);
          else
            Partial *= ipow(X, M.TermCoef[O]);
        }
      }
      if (Partial == 0.0)
        continue;
      for (uint32_t E = M.NetBegin[R]; E < M.NetBegin[R + 1]; ++E)
        J(M.NetSpecies[E], SpeciesJ) += M.NetCoef[E] * Partial;
    }
  }
}
