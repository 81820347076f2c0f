// Experiment E6 — paper Fig 8: the Gigabit Ethernet model evaluated on
// HPL/Linpack (N=20500, ring communication scheme) under the RRN, RRP and
// Random schedulings. The paper reports the GigE model as "a bit less
// accurate than Myrinet" with errors attributed to memory congestion and
// system interference.
#include "hpl_bench.hpp"
#include "models/gige.hpp"

int main(int argc, char** argv) try {
  using namespace bwshare;
  const auto cluster = topo::ClusterSpec::ibm_eserver326_gige(16);
  const models::GigabitEthernetModel model;
  return bench::run_hpl_bench(argc, argv,
                              "Fig 8 - HPL on Gigabit Ethernet", cluster,
                              model);
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
