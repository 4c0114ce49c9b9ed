#include "src/smt/solver.h"

#include <functional>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace gauntlet {

namespace {
// Bucket edges (microseconds) for the per-solve latency histogram: powers
// of two from 16 us to 2^24 us (~17 s), so both the sub-millisecond bulk
// and a multi-second tail query land in buckets of their own.
const std::vector<uint64_t> kSolveMicrosBounds = [] {
  std::vector<uint64_t> bounds;
  for (uint64_t bound = 16; bound <= (uint64_t{1} << 24); bound <<= 1) {
    bounds.push_back(bound);
  }
  return bounds;
}();
}  // namespace

BitValue SmtModel::BitOf(const std::string& name) const {
  auto it = bit_values.find(name);
  GAUNTLET_BUG_CHECK(it != bit_values.end(), "no bit variable '" + name + "' in model");
  return it->second;
}

bool SmtModel::BoolOf(const std::string& name) const {
  auto it = bool_values.find(name);
  GAUNTLET_BUG_CHECK(it != bool_values.end(), "no bool variable '" + name + "' in model");
  return it->second;
}

void SmtSolver::EncodePending() {
  if (sat_ != nullptr && blasted_count_ == constraints_.size()) {
    return;
  }
  TraceSpan span("smt-encode", "smt");
  if (sat_ == nullptr) {
    sat_ = std::make_unique<SatSolver>();
    sat_->set_trail_reuse(incremental_);
    blaster_ = std::make_unique<BitBlaster>(context_, *sat_, strash_);
    blasted_count_ = 0;
  }
  for (; blasted_count_ < constraints_.size(); ++blasted_count_) {
    blaster_->Assert(constraints_[blasted_count_]);
  }
}

CheckResult SmtSolver::SolveUnder(const std::vector<Lit>& assumptions) {
  sat_->set_conflict_limit(conflict_limit_);
  sat_->set_time_limit_ms(time_limit_ms_);
  TraceSpan span("smt-solve", "smt");
  const SatResult result = sat_->Solve(assumptions);
  last_solve_.conflicts = sat_->solve_conflicts();
  last_solve_.decisions = sat_->solve_decisions();
  last_solve_.propagations = sat_->solve_propagations();
  last_solve_.restarts = sat_->solve_restarts();
  last_solve_.prefix_reused_lits = sat_->solve_prefix_reused_lits();
  last_solve_.propagations_saved = sat_->solve_propagations_saved();
  last_solve_.sat_vars = sat_->VarCount();
  span.Arg("conflicts", last_solve_.conflicts);
  span.Arg("decisions", last_solve_.decisions);
  span.Arg("propagations", last_solve_.propagations);
  span.Arg("restarts", last_solve_.restarts);
  span.Arg("prefix_reused_lits", last_solve_.prefix_reused_lits);
  span.Arg("propagations_saved", last_solve_.propagations_saved);
  span.Arg("vars", last_solve_.sat_vars);
  const auto kTiming = MetricScope::kTiming;
  CountMetric("smt/solves", kTiming);
  CountMetric("smt/conflicts", kTiming, last_solve_.conflicts);
  CountMetric("smt/decisions", kTiming, last_solve_.decisions);
  CountMetric("smt/propagations", kTiming, last_solve_.propagations);
  CountMetric("smt/restarts", kTiming, last_solve_.restarts);
  CountMetric("smt/assumption_prefix_reused_lits", kTiming, last_solve_.prefix_reused_lits);
  CountMetric("smt/propagations_saved", kTiming, last_solve_.propagations_saved);
  CountMetric(result == SatResult::kSat      ? "smt/result/sat"
              : result == SatResult::kUnsat  ? "smt/result/unsat"
                                             : "smt/result/unknown",
              kTiming);
  ObserveMetric("smt/solve_micros", kTiming, kSolveMicrosBounds, span.ElapsedMicros());
  GaugeMaxMetric("smt/max_vars", kTiming, last_solve_.sat_vars);
  switch (result) {
    case SatResult::kSat:
      return CheckResult::kSat;
    case SatResult::kUnsat:
      return CheckResult::kUnsat;
    case SatResult::kUnknown:
      return CheckResult::kUnknown;
  }
  return CheckResult::kUnknown;
}

CheckResult SmtSolver::CheckUnderAssumptions(const std::vector<SmtRef>& assumptions) {
  EncodePending();
  std::vector<Lit> assumed;
  assumed.reserve(assumptions.size());
  for (const SmtRef& assumption : assumptions) {
    assumed.push_back(blaster_->BlastBool(assumption));
  }
  return SolveUnder(assumed);
}

CheckResult SmtSolver::CheckWithPreferences(const std::vector<SmtRef>& preferences,
                                            const std::vector<SmtRef>& assumptions,
                                            std::vector<size_t>* accepted_out) {
  if (accepted_out != nullptr) {
    accepted_out->clear();
  }
  EncodePending();
  std::vector<Lit> assumed;
  assumed.reserve(assumptions.size() + preferences.size());
  for (const SmtRef& assumption : assumptions) {
    assumed.push_back(blaster_->BlastBool(assumption));
  }
  const CheckResult base = SolveUnder(assumed);
  if (base != CheckResult::kSat) {
    return base;  // infeasible/budget-exhausted paths pay one solve, as before
  }
  // Greedily accept preferences that keep the instance satisfiable, probing
  // *blocks* with recursive halving instead of one literal at a time. The
  // accepted set is identical to the sequential left-to-right scan: a block
  // that is jointly satisfiable with the accepted set would have been
  // accepted member-by-member (each probe assumes a subset of the block),
  // and an unsatisfiable block splits until the individual culprits are
  // rejected. The common case — long preference lists with no conflicts —
  // costs O(1) solves instead of O(P).
  //
  // A rejected block does not clobber the model: the SAT solver snapshots
  // its model only on satisfiable outcomes, and the accepted set only grows
  // at satisfiable solves, so after the recursion the model reflects
  // exactly the accepted set.
  std::vector<Lit> pref_lits;
  pref_lits.reserve(preferences.size());
  for (const SmtRef& preference : preferences) {
    pref_lits.push_back(blaster_->BlastBool(preference));
  }
  const std::function<void(size_t, size_t)> accept = [&](size_t begin, size_t end) {
    if (begin == end) {
      return;
    }
    const size_t saved = assumed.size();
    for (size_t i = begin; i < end; ++i) {
      assumed.push_back(pref_lits[i]);
    }
    if (SolveUnder(assumed) == CheckResult::kSat) {
      // The whole block is compatible with the accepted set. Recursion
      // visits blocks left to right, so indices come out ascending.
      if (accepted_out != nullptr) {
        for (size_t i = begin; i < end; ++i) {
          accepted_out->push_back(i);
        }
      }
      return;
    }
    assumed.resize(saved);
    if (end - begin == 1) {
      return;  // a single incompatible preference: rejected
    }
    const size_t mid = begin + (end - begin) / 2;
    accept(begin, mid);
    accept(mid, end);
  };
  accept(0, pref_lits.size());
  return CheckResult::kSat;
}

SmtModel SmtSolver::ExtractModel() const {
  GAUNTLET_BUG_CHECK(blaster_ != nullptr, "ExtractModel before Check");
  // The SAT model is a snapshot from the most recent kSat solve; a later
  // kUnsat/kUnknown solve preserves it (never the rewound trail). But if no
  // solve ever succeeded there is no model at all — reading one would
  // silently yield all-zero values, so fail loudly instead.
  GAUNTLET_BUG_CHECK(sat_ != nullptr && sat_->has_model(),
                     "ExtractModel without a satisfiable Check");
  SmtModel model;
  for (uint32_t var_id = 0; var_id < context_.VarCount(); ++var_id) {
    const std::string& name = context_.VarName(var_id);
    if (context_.VarIsBool(var_id)) {
      model.bool_values[name] = blaster_->BoolVarValue(var_id);
    } else {
      model.bit_values[name] =
          BitValue(context_.VarWidth(var_id), blaster_->VarValue(var_id));
    }
  }
  return model;
}

CheckResult CheckSat(SmtContext& context, SmtRef constraint) {
  SmtSolver solver(context);
  solver.Assert(constraint);
  return solver.Check();
}

}  // namespace gauntlet
