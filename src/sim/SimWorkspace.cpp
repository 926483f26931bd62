//===- sim/SimWorkspace.cpp -----------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "sim/SimWorkspace.h"

#include "ode/SolverRegistry.h"

using namespace psg;

CompiledOdeSystem &
SimWorkerSlot::bind(const std::shared_ptr<const CompiledModel> &Model) {
  if (!Sys)
    Sys.emplace(Model);
  else if (Sys->sharedModel() != Model)
    Sys->rebind(Model);
  return *Sys;
}

OdeSolver &SimWorkerSlot::solver(const std::string &Name) {
  std::unique_ptr<OdeSolver> &Slot = Solvers[Name];
  if (!Slot) {
    auto Created = createSolver(Name);
    assert(Created && "registry is missing a built-in solver");
    Slot = std::move(*Created);
  }
  return *Slot;
}

void SimWorkerPool::ensure(size_t Workers) {
  while (Slots.size() < Workers)
    Slots.push_back(std::make_unique<SimWorkerSlot>());
}
