#pragma once
// The persistent rank pool behind every SPMD launch.
//
// Rank threads are parked between launches instead of being spawned and
// joined each time: a launch hands ranks 1..n-1 to idle workers, spawning
// more when too few are idle, and runs rank 0 on the calling thread.  A
// launch from several client threads at once, or from inside a rank body,
// simply takes more workers.  Workers left idle beyond a fixed cap exit,
// and all of them are joined when the process exits.

namespace colop::mpsim::detail {

/// One rank of a launch: called as task(ctx, rank).  Must not throw.
using RankTask = void (*)(void* ctx, int rank);

/// Run task(ctx, r) for every r in [0, n): rank 0 on the calling thread,
/// the others on pool workers.  Returns once all n calls have returned.
void run_on_pool(int n, RankTask task, void* ctx);

}  // namespace colop::mpsim::detail
