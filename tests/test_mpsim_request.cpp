// Non-blocking receives, probe and pending.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "colop/mpsim/mpsim.h"

namespace colop::mpsim {
namespace {

TEST(Request, IrecvWaitRoundtrip) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      auto req = irecv<int>(comm, 1);
      // Overlap "computation" while the message may be in flight.
      int local = 21 * 2;
      EXPECT_EQ(req.wait(), local);
    } else {
      comm.send(0, 42);
    }
  });
}

TEST(Request, ReadyReflectsArrival) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      auto req = irecv<int>(comm, 1, 3);
      comm.barrier();   // rank 1 sends before this barrier
      comm.barrier();
      EXPECT_TRUE(req.ready());
      EXPECT_EQ(req.wait(), 7);
    } else {
      comm.send(0, 7, 3);
      comm.barrier();
      comm.barrier();
    }
  });
}

TEST(Request, NotReadyBeforeSend) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      auto req = irecv<int>(comm, 1, 5);
      EXPECT_FALSE(req.ready());  // nothing sent yet (rank 1 waits on us)
      comm.send(1, 0, 1);
      EXPECT_EQ(req.wait(), 9);
    } else {
      (void)comm.recv<int>(0, 1);
      comm.send(0, 9, 5);
    }
  });
}

TEST(Request, DoubleWaitThrows) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      auto req = irecv<int>(comm, 1);
      (void)req.wait();
      EXPECT_THROW((void)req.wait(), Error);
    } else {
      comm.send(0, 1);
    }
  });
}

TEST(Request, WaitAllGathersInRequestOrder) {
  constexpr int kP = 5;
  run_spmd(kP, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<RecvRequest<int>> reqs;
      for (int r = 1; r < kP; ++r) reqs.push_back(irecv<int>(comm, r));
      const auto values = wait_all(reqs);
      for (int r = 1; r < kP; ++r) EXPECT_EQ(values[static_cast<std::size_t>(r - 1)], r * r);
    } else {
      comm.send(0, comm.rank() * comm.rank());
    }
  });
}

TEST(Request, ProbeAndPendingOnComm) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.barrier();
      EXPECT_TRUE(comm.probe(1, 2));
      EXPECT_FALSE(comm.probe(1, 3));
      EXPECT_EQ(comm.pending(), 2u);
      (void)comm.recv<int>(1, 2);
      (void)comm.recv<int>(1, 4);
      EXPECT_EQ(comm.pending(), 0u);
    } else {
      comm.send(0, 1, 2);
      comm.send(0, 2, 4);
      comm.barrier();
    }
  });
}

TEST(Request, PendingCountsEveryQueuedMessageAcrossKeys) {
  // 4 sources x 32 tags = 128 keys, puts interleaved with takes of other
  // keys: pending() is the number queued at every step, and each key
  // still delivers FIFO.
  const auto group = std::make_shared<Group>(4);
  Mailbox& mb = group->mailbox(0);
  std::map<std::pair<int, int>, std::deque<int>> queued;
  std::size_t count = 0;
  int next = 0;
  const auto take = [&](int source, int tag) {
    auto& q = queued[{source, tag}];
    if (q.empty()) return;
    Message msg = mb.take(source, tag);
    ASSERT_NE(msg.payload.get<int>(), nullptr);
    EXPECT_EQ(*msg.payload.get<int>(), q.front());
    q.pop_front();
    --count;
  };
  for (int round = 0; round < 3; ++round) {
    for (int source = 0; source < 4; ++source) {
      for (int tag = 0; tag < 32; ++tag) {
        mb.put(Message{Payload(next), sizeof(int), source, tag});
        queued[{source, tag}].push_back(next++);
        ++count;
        if ((source + tag + round) % 3 == 0) take((source + 1) % 4, tag * 7 % 32);
        ASSERT_EQ(mb.pending(), count);
      }
    }
  }
  EXPECT_GT(count, 128u);
  for (const auto& [key, q] : std::map(queued))
    for (std::size_t i = 0; i < q.size(); ++i) take(key.first, key.second);
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Request, GroupWithAQueuedMessageIsNotReused) {
  constexpr int p = 7;
  const Group* clean = nullptr;
  {
    auto group = Group::make(p);
    clean = group.get();
    group->mailbox(3).put(Message{Payload(1), sizeof(int), 1, 9});
    (void)group->mailbox(3).take(1, 9);
  }
  {
    auto group = Group::make(p);
    EXPECT_EQ(group.get(), clean) << "an emptied group is reused";
    group->mailbox(3).put(Message{Payload(42), sizeof(int), 1, 9});
  }  // released with one message still queued
  auto group = Group::make(p);
  EXPECT_EQ(group->mailbox(3).pending(), 0u);
  EXPECT_FALSE(group->mailbox(3).probe(1, 9));
}

TEST(Request, RejectsCollectiveTagSpace) {
  run_spmd(1, [](Comm& comm) {
    EXPECT_THROW((void)irecv<int>(comm, 0, kCollectiveTagBase), Error);
  });
}

}  // namespace
}  // namespace colop::mpsim
