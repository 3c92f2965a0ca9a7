// Concurrent admission core tests (ctest label `concurrency`, so the TSan CI
// job runs this binary): executor/TaskGroup unit behaviour, the AttachBatch
// == serial-adds equivalence, and the determinism pin of the two-phase
// admit_many pipeline — the serial per-item gossip path, admit_many on an
// InlineExecutor and admit_many on ThreadPoolExecutors of several widths
// must all land on byte-identical tangle/ledger/credit/stats state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/executor.h"
#include "node/gateway.h"
#include "test_util.h"

namespace biot::node {
namespace {

using testutil::TxFactory;

// ---- Executor backends ------------------------------------------------------

TEST(InlineExecutorTest, RunsTasksAtSubmitSiteInOrder) {
  InlineExecutor exec;
  std::vector<int> order;
  exec.submit([&] { order.push_back(1); });
  EXPECT_EQ(order.size(), 1u);  // ran before submit() returned
  exec.submit([&] { order.push_back(2); });
  exec.submit([&] { order.push_back(3); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(exec.concurrency(), 1u);
  EXPECT_EQ(exec.queue_depth(), 0u);
}

TEST(ThreadPoolExecutorTest, RunsEverySpawnedTask) {
  ThreadPoolExecutor pool(4);
  EXPECT_EQ(pool.concurrency(), 4u);
  std::atomic<int> ran{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 256; ++i)
      group.spawn([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    group.wait();
  }
  EXPECT_EQ(ran.load(), 256);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolExecutorTest, ShutdownDrainsTheQueueBeforeJoining) {
  std::atomic<int> ran{0};
  {
    ThreadPoolExecutor pool(2);
    for (int i = 0; i < 64; ++i)
      pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    // Destructor: no submitted task may be dropped on the floor.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolExecutorTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPoolExecutor pool(0);
  EXPECT_GE(pool.concurrency(), 1u);
}

TEST(ThreadPoolExecutorTest, SubmittedCountsEveryTaskEverHanded) {
  ThreadPoolExecutor pool(2);
  EXPECT_EQ(pool.submitted(), 0u);
  {
    TaskGroup group(pool);
    for (int i = 0; i < 64; ++i) group.spawn([] {});
    group.wait();
  }
  EXPECT_EQ(pool.submitted(), 64u);
  EXPECT_EQ(pool.queue_depth(), 0u);

  InlineExecutor inline_exec;
  inline_exec.submit([] {});
  inline_exec.submit([] {});
  EXPECT_EQ(inline_exec.submitted(), 2u);
}

TEST(ThreadPoolExecutorTest, ShutdownWhileSubmittingLosesNoTask) {
  // Regression for the submit()/shutdown() race: a task handed to the pool
  // concurrently with shutdown must still run exactly once — drained by a
  // worker if it made the queue, or run inline at the submit site if it
  // arrived after the pool was marked shut down. Either way nothing is
  // dropped and nothing runs twice.
  std::atomic<int> ran{0};
  std::uint64_t handed = 0;
  ThreadPoolExecutor pool(2);
  std::atomic<bool> stop{false};
  std::thread submitter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
      ++handed;
    }
    // Keep submitting after shutdown: these must run inline, not vanish.
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
      ++handed;
    }
  });
  while (pool.submitted() < 128) std::this_thread::yield();
  pool.shutdown();  // races the submitter mid-stream
  stop.store(true, std::memory_order_relaxed);
  submitter.join();
  EXPECT_EQ(ran.load(), static_cast<int>(handed));
  EXPECT_EQ(pool.submitted(), handed);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolExecutorTest, ShutdownIsIdempotent) {
  ThreadPoolExecutor pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i)
    pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  pool.shutdown();
  pool.shutdown();  // second call is a no-op, not a double-join
  EXPECT_EQ(ran.load(), 16);
  pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 17);  // post-shutdown submit ran inline
}

TEST(TaskGroupTest, WaitPublishesWorkerWritesToTheCaller) {
  // Each task writes a distinct slot without synchronization of its own;
  // only the group join makes the writes visible. Under TSan this is the
  // proof the join really is a happens-before edge.
  ThreadPoolExecutor pool(4);
  std::vector<int> slots(128, 0);
  TaskGroup group(pool);
  for (std::size_t i = 0; i < slots.size(); ++i)
    group.spawn([&slots, i] { slots[i] = static_cast<int>(i) + 1; });
  group.wait();
  for (std::size_t i = 0; i < slots.size(); ++i)
    EXPECT_EQ(slots[i], static_cast<int>(i) + 1);
}

TEST(TaskGroupTest, SpawnIsSafeFromMultipleProducerThreads) {
  // The MPMC shape: four producer threads feed one group on one pool.
  ThreadPoolExecutor pool(4);
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p)
    producers.emplace_back([&] {
      for (int i = 0; i < 64; ++i)
        group.spawn([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    });
  for (auto& t : producers) t.join();
  group.wait();
  EXPECT_EQ(ran.load(), 256);
}

TEST(TaskGroupTest, WorksOnTheInlineBackendToo) {
  InlineExecutor exec;
  TaskGroup group(exec);
  int ran = 0;
  group.spawn([&] { ++ran; });
  group.spawn([&] { ++ran; });
  group.wait();
  EXPECT_EQ(ran, 2);
}

// ---- AttachBatch == serial adds ---------------------------------------------

std::vector<tangle::Transaction> batch_workload(TxFactory& factory,
                                                const tangle::TxId& genesis) {
  std::vector<tangle::Transaction> txs;
  txs.push_back(factory.make(genesis, genesis, 2, to_bytes("a")));
  txs.push_back(factory.make(txs[0].id(), genesis, 2, to_bytes("b")));
  txs.push_back(factory.make(txs[1].id(), txs[0].id(), 2, to_bytes("c")));
  txs.push_back(txs[0]);  // duplicate: must fail identically in both modes
  tangle::TxId unknown{};
  unknown[0] = 0x77;
  txs.push_back(factory.make(unknown, genesis, 2, to_bytes("d")));  // orphan
  return txs;
}

TEST(AttachBatchTest, BatchedAttachMatchesSerialAddsExactly) {
  tangle::Tangle serial(tangle::Tangle::make_genesis());
  tangle::Tangle batched(tangle::Tangle::make_genesis());
  TxFactory factory(42);
  const auto txs = batch_workload(factory, serial.genesis_id());

  std::vector<Status> serial_statuses;
  for (const auto& tx : txs)
    serial_statuses.push_back(
        serial.add(tx, 1.0, tangle::VerifiedToken::assume_valid(tx)));

  const std::size_t indexed_before = batched.arrival_index().size();
  std::vector<Status> batch_statuses;
  {
    tangle::Tangle::AttachBatch batch(batched);
    for (const auto& tx : txs)
      batch_statuses.push_back(
          batch.add(tx, 1.0, tangle::VerifiedToken::assume_valid(tx)));
    // Mid-batch: structural state is live (later members parented on earlier
    // ones above), but the deferred index still shows the pre-batch snapshot.
    EXPECT_EQ(batched.arrival_index().size(), indexed_before);
    EXPECT_EQ(batch.pending(), 3u);  // three attached, two failed
  }

  ASSERT_EQ(batch_statuses.size(), serial_statuses.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(batch_statuses[i].code(), serial_statuses[i].code())
        << "item " << i;
  }

  // Byte-identical end state: digest, sketch, order, tips, per-id approver
  // lists, and the secondary indexes (via the full invariant audit).
  EXPECT_EQ(batched.id_digest(), serial.id_digest());
  EXPECT_EQ(batched.id_sketch(), serial.id_sketch());
  EXPECT_EQ(batched.arrival_order(), serial.arrival_order());
  EXPECT_EQ(batched.tips(), serial.tips());
  EXPECT_EQ(batched.size(), serial.size());
  for (const auto& id : serial.arrival_order())
    EXPECT_EQ(batched.find(id)->approvers, serial.find(id)->approvers);
  testutil::expect_audit_clean(batched);
}

TEST(AttachBatchTest, ConvenienceWrapperAndDestructorCommit) {
  tangle::Tangle reference(tangle::Tangle::make_genesis());
  tangle::Tangle wrapped(tangle::Tangle::make_genesis());
  TxFactory factory(43);
  const auto txs = batch_workload(factory, reference.genesis_id());

  std::vector<tangle::VerifiedToken> tokens;
  tokens.reserve(txs.size());
  std::vector<tangle::Tangle::BatchAttachItem> items;
  items.reserve(txs.size());
  for (const auto& tx : txs) {
    tokens.push_back(tangle::VerifiedToken::assume_valid(tx));
    items.push_back({&tx, 1.0, &tokens.back()});
    // The reference attaches per item; its two expected failures (duplicate,
    // unknown parent) leave no trace, same as the batch's.
    (void)reference.add(tx, 1.0, tokens.back());
  }
  const auto statuses = wrapped.attach_batch(items);
  ASSERT_EQ(statuses.size(), txs.size());
  EXPECT_EQ(wrapped.id_digest(), reference.id_digest());
  EXPECT_EQ(wrapped.arrival_order(), reference.arrival_order());
  testutil::expect_audit_clean(wrapped);
}

// ---- Pipeline determinism: serial vs inline vs thread pool ------------------

GatewayConfig concurrency_config(unsigned threads) {
  GatewayConfig c;
  c.admission_threads = threads;
  return c;
}

/// One gateway plus the sim plumbing it needs, with its clock pre-advanced
/// to `start` so arrival stamps line up across replicas.
struct Replica {
  explicit Replica(unsigned threads, TimePoint start = 0.001)
      : identity(crypto::Identity::deterministic(7)),
        manager_identity(crypto::Identity::deterministic(8)),
        network(sched, std::make_unique<sim::FixedLatency>(0.001), Rng(1)),
        gateway(1, identity, manager_identity.public_identity().sign_key,
                tangle::Tangle::make_genesis(), network,
                concurrency_config(threads)) {
    gateway.attach();
    sched.run_until(start);
  }

  sim::Scheduler sched;
  crypto::Identity identity;
  crypto::Identity manager_identity;
  sim::Network network;
  Gateway gateway;
};

/// A gossip burst with intra-batch parents, an in-batch duplicate and a
/// corrupted signature — the shapes whose verdicts must not depend on the
/// executor width.
std::vector<tangle::Transaction> burst_workload(const tangle::TxId& genesis) {
  TxFactory alice(100);
  TxFactory bob(101);
  std::vector<tangle::Transaction> txs;
  txs.push_back(alice.make(genesis, genesis, 2, to_bytes("a1")));
  txs.push_back(bob.make(genesis, genesis, 2, to_bytes("b1")));
  txs.push_back(alice.make(txs[0].id(), txs[1].id(), 2, to_bytes("a2")));
  txs.push_back(bob.make(txs[2].id(), txs[0].id(), 2, to_bytes("b2")));
  txs.push_back(alice.make(txs[3].id(), txs[2].id(), 2, to_bytes("a3")));
  txs.push_back(txs[0]);  // in-batch duplicate -> kDuplicate either way
  auto forged = bob.make(txs[4].id(), txs[0].id(), 2, to_bytes("x"));
  forged.signature[0] ^= 0x01;  // valid PoW, broken Ed25519 -> kVerifyFailed
  txs.push_back(forged);
  return txs;
}

void expect_same_derived_state(const Gateway& a, const Gateway& b) {
  EXPECT_EQ(a.tangle().id_digest(), b.tangle().id_digest());
  EXPECT_EQ(a.tangle().id_sketch(), b.tangle().id_sketch());
  EXPECT_EQ(a.tangle().arrival_order(), b.tangle().arrival_order());
  EXPECT_EQ(a.tangle().tips(), b.tangle().tips());
  EXPECT_EQ(a.stats().accepted.value(), b.stats().accepted.value());
  EXPECT_EQ(a.stats().lazy_detected.value(), b.stats().lazy_detected.value());
  EXPECT_EQ(a.stats().rejected_signature.value(),
            b.stats().rejected_signature.value());
  EXPECT_EQ(a.stats().rejected_other.value(),
            b.stats().rejected_other.value());
  // Credit is a pure function of the recorded events and the query instant,
  // so identical histories price identically.
  TxFactory alice(100);
  TxFactory bob(101);
  for (const auto& key : {alice.key(), bob.key()}) {
    EXPECT_DOUBLE_EQ(a.credit_registry().credit(key, 5.0, a.weight_oracle()),
                     b.credit_registry().credit(key, 5.0, b.weight_oracle()));
  }
}

TEST(AdmitManyDeterminismTest, InlineBatchMatchesSerialGossipByteForByte) {
  Replica serial(1);
  const auto txs = burst_workload(serial.gateway.tangle().genesis_id());

  // Serial reference: per-item gossip delivery. All messages are enqueued
  // at t=0 and delivered FIFO at t=0.001, so every admit sees the same
  // arrival stamp admit_many will use below.
  sim::Scheduler feed_sched;
  sim::Network feed(feed_sched, std::make_unique<sim::FixedLatency>(0.001),
                    Rng(2));
  // Re-create the serial replica on the feed network so sends reach it.
  crypto::Identity gw_id = crypto::Identity::deterministic(7);
  crypto::Identity mgr_id = crypto::Identity::deterministic(8);
  Gateway serial_gw(1, gw_id, mgr_id.public_identity().sign_key,
                    tangle::Tangle::make_genesis(), feed,
                    concurrency_config(1));
  serial_gw.attach();
  for (const auto& tx : txs) {
    RpcMessage msg;
    msg.type = MsgType::kBroadcastTx;
    msg.sender_key = tx.sender;
    msg.body = tx.encode();
    feed.send(200, 1, msg.encode());
  }
  feed_sched.run_until(0.001);

  // Inline admit_many at the same arrival instant.
  Replica inline_replica(1);
  const auto inline_statuses =
      inline_replica.gateway.admit_many(txs, Ingress::kGossip);
  ASSERT_EQ(inline_statuses.size(), txs.size());
  EXPECT_TRUE(inline_statuses[0].is_ok());
  EXPECT_TRUE(inline_statuses[4].is_ok());
  EXPECT_EQ(inline_statuses[5].code(), ErrorCode::kRejected);  // duplicate
  EXPECT_EQ(inline_statuses[6].code(), ErrorCode::kVerifyFailed);

  expect_same_derived_state(serial_gw, inline_replica.gateway);
  testutil::expect_audit_clean(inline_replica.gateway.tangle());
}

TEST(AdmitManyDeterminismTest, ThreadPoolWidthsConvergeToTheInlineState) {
  Replica inline_replica(1);
  const auto txs =
      burst_workload(inline_replica.gateway.tangle().genesis_id());
  const auto inline_statuses =
      inline_replica.gateway.admit_many(txs, Ingress::kGossip);

  for (const unsigned threads : {2u, 4u, 8u}) {
    Replica pooled(threads);
    const auto statuses = pooled.gateway.admit_many(txs, Ingress::kGossip);
    ASSERT_EQ(statuses.size(), inline_statuses.size());
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      EXPECT_EQ(statuses[i].code(), inline_statuses[i].code())
          << "threads=" << threads << " item " << i;
    }
    expect_same_derived_state(inline_replica.gateway, pooled.gateway);
    testutil::expect_audit_clean(pooled.gateway.tangle());
  }
}

TEST(AdmitManyDeterminismTest, GossipBurstStressUnderThreadPool) {
  // The TSan workhorse: repeated bursts through a 4-lane pool, sliced by a
  // small admission_max_batch so slice boundaries and orphan adoption run
  // several times, compared against an inline twin fed the same bursts.
  GatewayConfig pool_config = concurrency_config(4);
  pool_config.admission_max_batch = 16;

  Replica inline_replica(1);
  sim::Scheduler sched;
  sim::Network net(sched, std::make_unique<sim::FixedLatency>(0.001), Rng(3));
  crypto::Identity gw_id = crypto::Identity::deterministic(7);
  crypto::Identity mgr_id = crypto::Identity::deterministic(8);
  Gateway pooled(1, gw_id, mgr_id.public_identity().sign_key,
                 tangle::Tangle::make_genesis(), net, pool_config);
  pooled.attach();
  sched.run_until(0.001);

  TxFactory alice(300);
  TxFactory bob(301);
  auto genesis = inline_replica.gateway.tangle().genesis_id();
  tangle::TxId tip1 = genesis;
  tangle::TxId tip2 = genesis;
  for (int burst = 0; burst < 3; ++burst) {
    std::vector<tangle::Transaction> txs;
    for (int i = 0; i < 24; ++i) {
      auto& factory = (i % 2 == 0) ? alice : bob;
      auto tx = factory.make(tip1, tip2, 2);
      tip2 = tip1;
      tip1 = tx.id();
      txs.push_back(std::move(tx));
    }
    const auto inline_statuses =
        inline_replica.gateway.admit_many(txs, Ingress::kGossip);
    const auto pooled_statuses = pooled.admit_many(txs, Ingress::kGossip);
    for (std::size_t i = 0; i < txs.size(); ++i) {
      EXPECT_TRUE(inline_statuses[i].is_ok()) << "burst " << burst;
      EXPECT_TRUE(pooled_statuses[i].is_ok()) << "burst " << burst;
    }
  }
  EXPECT_EQ(pooled.tangle().size(), 1u + 3u * 24u);
  EXPECT_EQ(pooled.tangle().id_digest(),
            inline_replica.gateway.tangle().id_digest());
  testutil::expect_audit_clean(pooled.tangle());
}

}  // namespace
}  // namespace biot::node
