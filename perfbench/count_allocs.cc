// Linked only into perfbench_counted: replaces global operator new/delete
// with versions that tick telemetry::alloc_counters(), so traced runs can
// report exact allocation counts.
#include <cstdlib>
#include <new>

#include "telemetry/alloc_counter.h"

FLOC_DEFINE_COUNTING_ALLOCATOR
