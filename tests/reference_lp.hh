/**
 * @file
 * Reference LP solver for differential tests (see reference_lp.cc).
 */

#ifndef AQUA_TESTS_REFERENCE_LP_HH
#define AQUA_TESTS_REFERENCE_LP_HH

#include "opt/lp.hh"

namespace aqua::opt::reference {

/** Solve cold with the dense two-phase Bland simplex. */
LpResult solveLpDense(const LinearProgram &lp, SimplexOptions options = {});

} // namespace aqua::opt::reference

#endif // AQUA_TESTS_REFERENCE_LP_HH
