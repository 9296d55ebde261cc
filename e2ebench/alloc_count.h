#ifndef QMAP_E2EBENCH_ALLOC_COUNT_H_
#define QMAP_E2EBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace e2e {

/// Global operator new calls made so far by the calling thread. The
/// benchmark binary replaces the allocation functions (alloc_count.cc), so
/// every allocation in the process — library code included — is counted.
uint64_t ThreadAllocs();

/// Global operator new calls made so far by every thread of the process.
uint64_t ProcessAllocs();

}  // namespace e2e

#endif  // QMAP_E2EBENCH_ALLOC_COUNT_H_
