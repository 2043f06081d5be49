// Seeded random MILP models shared by the solver tests and the solver
// microbenchmark, so a pinned count in one refers to the same model as the
// other.

#ifndef TETRISCHED_TESTS_SOLVER_MODELS_H_
#define TETRISCHED_TESTS_SOLVER_MODELS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/solver/model.h"

namespace tetrisched {

// 3-8 variables, about a third pre-fixed integers and the rest binaries,
// and 1-6 `<=` rows whose terms may mention one variable several times.
inline MilpModel RandomPresolveModel(uint64_t seed) {
  Rng rng(seed);
  MilpModel model;
  const int n = static_cast<int>(rng.UniformInt(3, 8));
  for (int v = 0; v < n; ++v) {
    if (rng.Bernoulli(0.3)) {
      double fixed = rng.UniformInt(0, 2);
      model.AddIntegerVar(fixed, fixed);  // pre-fixed var
    } else {
      model.AddBinaryVar();
    }
    model.AddObjectiveTerm(v, rng.UniformReal(-2.0, 5.0));
  }
  int rows = static_cast<int>(rng.UniformInt(1, 6));
  for (int c = 0; c < rows; ++c) {
    std::vector<LinTerm> terms;
    int mentions = static_cast<int>(rng.UniformInt(1, n));
    for (int k = 0; k < mentions; ++k) {
      terms.push_back({static_cast<VarId>(rng.UniformInt(0, n - 1)),
                       rng.UniformReal(-2.0, 3.0)});
    }
    model.AddConstraint(std::move(terms), ConstraintSense::kLessEqual,
                        rng.UniformReal(0.5, 6.0));
  }
  return model;
}

// One random binary-packing block over fresh variables: objective
// coefficients in [-5, 10), and `num_cons` `<=` rows that each mention a
// variable with probability 0.6 (coefficients in [-3, 5), rhs in [0, 6)).
// Small blocks already need a real tree search.
inline void AddRandomPackingBlock(MilpModel& model, Rng& rng, int num_vars,
                                  int num_cons) {
  std::vector<VarId> vars;
  for (int v = 0; v < num_vars; ++v) {
    VarId id = model.AddBinaryVar();
    model.AddObjectiveTerm(id, rng.UniformReal(-5.0, 10.0));
    vars.push_back(id);
  }
  for (int c = 0; c < num_cons; ++c) {
    std::vector<LinTerm> terms;
    for (VarId id : vars) {
      if (rng.Bernoulli(0.6)) {
        terms.push_back({id, rng.UniformReal(-3.0, 5.0)});
      }
    }
    if (!terms.empty()) {
      model.AddConstraint(std::move(terms), ConstraintSense::kLessEqual,
                          rng.UniformReal(0.0, 6.0));
    }
  }
}

// Block-diagonal model: `blocks` independent random binary-packing blocks
// (the multi-component churn shape — jobs preferring disjoint equivalence
// sets compile to exactly this structure). The blocks share no rows, so the
// decomposition layer splits them.
inline MilpModel BlockPackingModel(int blocks, int vars_per_block,
                                   int cons_per_block, uint64_t seed) {
  MilpModel model;
  Rng rng(seed);
  for (int b = 0; b < blocks; ++b) {
    AddRandomPackingBlock(model, rng, vars_per_block, cons_per_block);
  }
  return model;
}

// One demand/supply block in the compiled-STRL shape: per job a binary
// indicator and an integer count tied by P == 2 I, all counts sharing one
// supply row. The optimum schedules floor(supply / 2) of the block's jobs.
inline void AddDemandSupplyBlock(MilpModel& model, int jobs, double supply) {
  std::vector<LinTerm> supply_row;
  for (int j = 0; j < jobs; ++j) {
    VarId indicator = model.AddBinaryVar();
    VarId count = model.AddIntegerVar(0.0, 2.0);
    model.AddObjectiveTerm(indicator, 1.0);
    model.AddConstraint({{count, 1.0}, {indicator, -2.0}},
                        ConstraintSense::kEqual, 0.0);
    supply_row.push_back({count, 1.0});
  }
  model.AddConstraint(std::move(supply_row), ConstraintSense::kLessEqual,
                      supply);
}

}  // namespace tetrisched

#endif  // TETRISCHED_TESTS_SOLVER_MODELS_H_
