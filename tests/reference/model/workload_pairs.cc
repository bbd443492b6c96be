#include "model/workload_pairs.h"

namespace coc {

double InterDestProbability(const Workload& workload, const SystemConfig& sys,
                            int i, int j) {
  if (i == j || sys.num_clusters() < 2) return 0.0;
  const double n = static_cast<double>(sys.TotalNodes());
  const double ni = static_cast<double>(sys.NodesInCluster(i));
  const double nj = static_cast<double>(sys.NodesInCluster(j));
  if (!workload.DestinationSkewed()) return nj / (n - ni);
  // Hotspot: unnormalized mass per destination cluster, then normalize over
  // the inter-cluster destinations of cluster i.
  const int h = sys.ClusterOfNode(workload.hotspot_node);
  const double f = workload.hotspot_fraction;
  double total = 0;
  double target = 0;
  for (int c = 0; c < sys.num_clusters(); ++c) {
    if (c == i) continue;
    const double nc = static_cast<double>(sys.NodesInCluster(c));
    double q = (1.0 - f) * nc / (n - 1.0);
    if (c == h && i != h) q += f;
    total += q;
    if (c == j) target = q;
  }
  return total > 0 ? target / total : 0.0;
}

double EcnLoadFactor(const Workload& workload, const SystemConfig& sys, int c) {
  // Ordered so the default workload reproduces Eq. (22)'s N_c U_c term bit
  // for bit (the trailing * 1.0 is exact).
  const double out = static_cast<double>(sys.NodesInCluster(c)) *
                     workload.EffectiveU(sys, c) * workload.RateScale(c);
  if (!workload.DestinationSkewed()) return out;
  // Hotspot overlay: an ECN1 carries access journeys (outgoing) and egress
  // journeys (incoming); the hot cluster's incoming side dwarfs its outgoing
  // one, so use the symmetrized actual load instead of the Eq. (22) proxy.
  double in = 0;
  for (int i = 0; i < sys.num_clusters(); ++i) {
    if (i == c) continue;
    in += static_cast<double>(sys.NodesInCluster(i)) *
          workload.EffectiveU(sys, i) * workload.RateScale(i) *
          InterDestProbability(workload, sys, i, c);
  }
  return 0.5 * (out + in);
}

}  // namespace coc
