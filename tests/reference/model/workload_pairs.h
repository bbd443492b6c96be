// Per-pair forms of the Workload layer's destination and ECN1-load
// accessors, as the paper's equations use them one ordered pair at a time.
// The library computes the same quantities as whole matrices
// (Workload::InterDestProbabilities / EcnLoadFactors, summed in the same
// order); these forms serve the reference model and the tests that pin the
// matrix forms against them.
#pragma once

#include "system/system_config.h"
#include "workload/workload.h"

namespace coc {

/// P(destination cluster = j | inter-cluster message from cluster i), for
/// j != i (zero on the diagonal). Uniform-family patterns: N_j / (N - N_i);
/// hotspot concentrates mass on the hot cluster.
double InterDestProbability(const Workload& workload, const SystemConfig& sys,
                            int i, int j);

/// Per-unit-lambda_g message rate the pair equations attribute to cluster
/// c's ECN1: N_c U_c s_c (the Eq. 22 term) for unskewed patterns, and the
/// symmetrized actual load (outgoing + incoming)/2 under hotspot.
double EcnLoadFactor(const Workload& workload, const SystemConfig& sys, int c);

}  // namespace coc
