// Experiment E7 — paper Fig 9: the Myrinet model evaluated on HPL/Linpack
// (N=20500, ring communication scheme) under RRN, RRP and Random
// schedulings. The paper calls the Myrinet model "globally accurate" here.
#include "hpl_bench.hpp"
#include "models/myrinet.hpp"

int main(int argc, char** argv) try {
  using namespace bwshare;
  const auto cluster = topo::ClusterSpec::ibm_eserver325_myrinet(16);
  const models::MyrinetModel model;
  return bench::run_hpl_bench(argc, argv, "Fig 9 - HPL on Myrinet 2000",
                              cluster, model);
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
