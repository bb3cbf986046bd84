#ifndef DIDO_CORE_MEGAKV_STORE_H_
#define DIDO_CORE_MEGAKV_STORE_H_

#include <optional>
#include <string>

#include "core/dido_store.h"

namespace dido {

// Mega-KV (Coupled): the state-of-the-art baseline the paper compares
// against — Mega-KV's static pipeline ported to the coupled architecture.
// Returns `options` with the partitioning fixed to
// [RV,PP,MM]cpu -> [IN]gpu -> [KC,RD,WR,SD]cpu (all three index operations
// on the GPU), adaptation off and no work stealing.  A DidoStore built from
// it runs on exactly the same substrate (cuckoo index, slab heap, APU
// timing model) as DIDO, so any throughput difference is attributable to
// the dynamic-pipeline techniques.
DidoOptions MegaKvCoupledOptions(DidoOptions options);

// Mega-KV (Discrete): throughput of the original discrete-GPU Mega-KV, as
// reported in the DIDO paper's Fig. 16 (numbers digitized from the figure;
// the paper itself takes them from the Mega-KV publication).  Returns
// nullopt for workloads the paper does not report.
std::optional<double> MegaKvDiscretePaperMops(const std::string& workload_name);

// Analytic alternative: estimates discrete Mega-KV throughput with the same
// Eq. 1 machinery on the DefaultDiscreteSpec() platform, adding the PCIe
// job-transfer cost the coupled architecture eliminates.  Used by the
// discrete-comparison bench as a model-based cross-check and by the PCIe
// ablation.
double EstimateMegaKvDiscreteMops(const WorkloadSpec& workload,
                                  uint64_t num_objects,
                                  Micros latency_cap_us = 1000.0);

}  // namespace dido

#endif  // DIDO_CORE_MEGAKV_STORE_H_
