#pragma once
// Umbrella header: all collective operations of the mpsim substrate.

#include "colop/mpsim/collectives/balanced.h"   // IWYU pragma: export
#include "colop/mpsim/collectives/bcast.h"      // IWYU pragma: export
#include "colop/mpsim/collectives/comcast.h"    // IWYU pragma: export
#include "colop/mpsim/collectives/exscan.h"     // IWYU pragma: export
#include "colop/mpsim/collectives/reduce.h"     // IWYU pragma: export
#include "colop/mpsim/collectives/scan.h"       // IWYU pragma: export
