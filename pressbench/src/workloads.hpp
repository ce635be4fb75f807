// What the workloads share with the isolated layer probes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bench.hpp"
#include "core/link_cache.hpp"
#include "core/multilink_cache.hpp"
#include "core/system.hpp"

namespace pressbench {

/// The workload's scene as the isolated probes see it.
struct ProbeScene {
    press::core::System& system;
    std::size_t array_id = 0;
    std::size_t threads = 1;     ///< the workload's evaluation threads
    std::size_t batch_size = 3;  ///< the workload's typical batch
    bool heavy = false;          ///< large scene: fewer repetitions
};

/// Times one public entry point per layer (control.batch, core caches,
/// sdr/phy sounding, em trace) on `scene` and adds the medians.
void probe_layers(const ProbeScene& scene, Report& report);

/// Cache counters at the start of a traced pass.
struct CacheMarks {
    press::core::LinkCache::Stats link;
    press::core::MultiLinkCache::Stats multi;
};
CacheMarks cache_marks(const press::core::System& system);

/// Reports what every traced run shares: the engine/search/batch medians
/// from the spans and the search counts, the cache counters since
/// `marks`, the tracing overhead (`traced_us` against `plain_us`, mean
/// per request or call), the layer table and its unattributed share, and
/// failed_frac.
void report_traced(const Tracer& tracer, std::int64_t traced_wall_ns,
                   const SearchCounts& counts,
                   const press::core::System& system, const CacheMarks& marks,
                   double plain_us, double traced_us, std::uint64_t failed,
                   std::uint64_t attempted, Report& report);

}  // namespace pressbench
