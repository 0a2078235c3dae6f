#include "solver/cg.hpp"

#include <sstream>

namespace femto {

const char* to_string(Precision p) {
  switch (p) {
    case Precision::Double: return "double";
    case Precision::Single: return "single";
    default: return "half";
  }
}

std::string SolveResult::summary() const {
  std::ostringstream os;
  os << (converged ? "converged" : "NOT converged") << " in " << iterations
     << " iterations (" << reliable_updates << " reliable updates), |r|/|b|="
     << final_rel_residual << ", " << gflops() << " GFLOP/s";
  return os.str();
}

}  // namespace femto
