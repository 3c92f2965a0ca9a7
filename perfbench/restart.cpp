// `restart`: crash recovery of a gateway. Setup persists a replica of N
// corpus transactions to a file and builds a live peer holding those N plus
// M newer ones. One recovery is: storage::load_tangle (re-verifies every
// signature), the cold-start Gateway restore (replays the history through
// the admission pipeline with assume_valid tokens), then anti-entropy on
// the sim network until the restarted replica's id digest equals the
// peer's. Recoveries repeat until the wall budget is spent. A recovery runs
// on one thread, so it is timed in process CPU time, which leaves out the
// host's preemption and steal, and each stage counts at its fastest
// recovery: every recovery does the same work, and a shared host that slows
// down can only add time to it.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <unistd.h>

#include "bench.h"
#include "corpus.h"
#include "crypto/ed25519.h"
#include "crypto/identity.h"
#include "layers.h"
#include "node/gateway.h"
#include "storage/tangle_io.h"

namespace perfbench {

using biot::node::Gateway;
using biot::node::GatewayConfig;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kSyncInterval = 0.5;
constexpr biot::sim::NodeId kPeerId = 1;
constexpr biot::sim::NodeId kRestartedId = 2;

struct Fixture {
  explicit Fixture(std::uint64_t seed)
      : network(scheduler,
                std::make_unique<biot::sim::ExponentialTailLatency>(0.002,
                                                                    0.003),
                biot::Rng(seed)),
        peer_identity(biot::crypto::Identity::deterministic(seed * 11 + 1)),
        restarted_identity(
            biot::crypto::Identity::deterministic(seed * 11 + 2)) {}
  ~Fixture() { std::remove(path.c_str()); }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  biot::sim::Scheduler scheduler;
  biot::sim::Network network;
  biot::crypto::Identity peer_identity;
  biot::crypto::Identity restarted_identity;
  std::unique_ptr<Gateway> peer;
  std::string path;
  std::size_t persisted = 0;   // N
  std::size_t newer = 0;       // M
  std::uint64_t setup_not_ok = 0;
};

struct Recovery {
  double cpu = 0.0;  // load to convergence
  // Its stages: load_tangle, the restore constructor, anti-entropy.
  double load_cpu = 0.0, replay_cpu = 0.0, sync_cpu = 0.0;
  std::uint64_t applied = 0;
  bool converged = false;
};

std::unique_ptr<Fixture> make_fixture(const Options& options,
                                      const std::string& path) {
  // N = 152 x 64 = 9728, about what a fleet gateway holds at the horizon;
  // M = 8 x 64 = 512, about 5 % of N.
  CorpusSpec spec;
  spec.seed = options.seed;
  spec.wave_size = 64;
  const std::size_t persisted_waves = options.tiny ? 5 : 152;
  const std::size_t newer_waves = options.tiny ? 1 : 8;
  spec.waves = persisted_waves + newer_waves;
  const auto genesis = biot::tangle::Tangle::make_genesis();
  const auto corpus = make_corpus(spec, genesis.id(), options.threads);

  auto fx = std::make_unique<Fixture>(options.seed);
  fx->path = path;
  GatewayConfig config;
  config.admission_threads = options.threads;
  fx->peer = std::make_unique<Gateway>(
      kPeerId, fx->peer_identity, fx->peer_identity.public_identity().sign_key,
      genesis, fx->network, config);
  biot::tangle::Tangle persisted(genesis);
  for (std::size_t w = 0; w < corpus.size(); ++w) {
    fx->scheduler.run_until((static_cast<double>(w) + 0.5) * kWaveInterval);
    for (const auto& s :
         fx->peer->admit_many(corpus[w], biot::node::Ingress::kSync))
      fx->setup_not_ok += s.is_ok() ? 0 : 1;
    if (w >= persisted_waves) continue;
    for (const auto& tx : corpus[w]) {
      const auto* rec = fx->peer->tangle().find(tx.id());
      if (rec == nullptr ||
          !persisted
               .add(tx, rec->arrival,
                    biot::tangle::VerifiedToken::assume_valid(tx))
               .is_ok())
        ++fx->setup_not_ok;
    }
  }
  fx->persisted = persisted_waves * spec.wave_size;
  fx->newer = newer_waves * spec.wave_size;
  if (!biot::storage::save_tangle(persisted, path).is_ok()) ++fx->setup_not_ok;
  fx->peer->attach();
  return fx;
}

/// One timed recovery; leaves the restarted gateway in `restarted`.
Recovery recover(Fixture& fx, std::uint64_t index,
                 std::unique_ptr<Gateway>& restarted, Report& report,
                 SpanLog& spans) {
  Recovery r;
  const ScopedSpan root(spans, "restart.recovery", index);
  const double t0 = cpu_now();
  auto loaded = [&] {
    const ScopedSpan span(spans, "storage.load_tangle", index);
    return biot::storage::load_tangle(fx.path);
  }();
  if (!loaded.is_ok()) {
    report.check(false, "restart: load failed: " + loaded.status().to_string());
    return r;
  }
  GatewayConfig config;
  config.admission_threads = 1;
  config.sync_interval = kSyncInterval;
  const double l1 = cpu_now();
  {
    const ScopedSpan span(spans, "node.gateway_restore", index);
    restarted = std::make_unique<Gateway>(
        kRestartedId, fx.restarted_identity,
        fx.peer_identity.public_identity().sign_key,
        std::move(loaded).take(), fx.network, config);
  }
  const double s0 = cpu_now();
  {
    const ScopedSpan span(spans, "node.sync", index);
    restarted->add_peer(kPeerId);
    restarted->attach();
    const auto& mine = restarted->tangle();
    const auto& theirs = fx.peer->tangle();
    // Bounded: a healthy exchange converges on the first tick.
    for (int tick = 0; tick < 100; ++tick) {
      if (mine.size() == theirs.size() &&
          mine.id_digest() == theirs.id_digest()) {
        r.converged = true;
        break;
      }
      fx.scheduler.run_until(fx.scheduler.now() + kSyncInterval);
    }
  }
  const double t1 = cpu_now();
  r.cpu = t1 - t0;
  r.load_cpu = l1 - t0;
  r.replay_cpu = s0 - l1;
  r.sync_cpu = t1 - s0;
  r.applied = restarted->stats().sync_txs_applied;
  return r;
}

}  // namespace

void run_restart(const Options& options, Report& report, SpanLog& spans) {
  const std::string path = options.work_dir + "/restart_replica_" +
                           std::to_string(::getpid()) + ".bin";
  auto fx = timed_setup(report, 3, wall_now,
                        [&] { return make_fixture(options, path); });
  report.check(fx->setup_not_ok == 0, "restart: setup admission failed");

  struct Loop {
    std::vector<Recovery> recoveries;
    std::uint64_t fallbacks = 0, summaries = 0;
  };
  const auto run_loop = [&](SpanLog& log, Report& sink, double seconds) {
    Loop loop;
    const double t0 = wall_now();
    do {
      std::unique_ptr<Gateway> restarted;
      {
        // Each recovery runs on the next CPU.
        const CpuPin pin(loop.recoveries.size());
        loop.recoveries.push_back(
            recover(*fx, loop.recoveries.size(), restarted, sink, log));
      }
      if (restarted) {
        // Outside the recovery's own timing: equal replica, equal state.
        const auto& mine = restarted->tangle();
        const auto& theirs = fx->peer->tangle();
        auto reference = theirs.id_digest();
        if (options.inject_fault) reference.value[0] ^= 1;
        const bool same = loop.recoveries.back().converged &&
                          mine.size() == theirs.size() &&
                          mine.id_digest() == reference &&
                          restarted->ledger().total_balance() ==
                              fx->peer->ledger().total_balance();
        sink.check(same, "restart: recovery " +
                             std::to_string(loop.recoveries.size()) +
                             " did not reproduce the peer's replica");
        sink.attempted += 1;
        sink.failed += same ? 0 : 1;
        loop.fallbacks += restarted->stats().sync_fallbacks;
        loop.summaries += restarted->stats().syncs_sent;
        // Retire it: detach, then drain its pending sync tick so nothing
        // scheduled still refers to it.
        restarted->stop();
      }
      fx->scheduler.run();
    } while (wall_now() - t0 < seconds);
    return loop;
  };

  // Traced runs time an untraced loop first, for the overhead ratio.
  double untraced_mean = 0.0;
  if (spans.enabled()) {
    SpanLog off(false);
    Report scratch;
    const Loop reference = run_loop(off, scratch, options.seconds);
    for (const auto& failure : scratch.check_failures)
      report.check(false, failure);
    for (const auto& r : reference.recoveries) untraced_mean += r.cpu;
    untraced_mean /= static_cast<double>(reference.recoveries.size());
  }

  const std::uint64_t verify0 = biot::crypto::ed25519_verify_calls();
  const Loop loop = run_loop(spans, report, options.seconds);
  const auto& recoveries = loop.recoveries;
  const std::uint64_t verify_calls =
      biot::crypto::ed25519_verify_calls() - verify0;
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");

  // ---- End-to-end ---------------------------------------------------------
  double cpu = 0;
  double load = kInf, replay = kInf, sync = kInf;
  std::uint64_t applied = 0;
  std::vector<double> recovery_s;
  for (const auto& r : recoveries) {
    cpu += r.cpu;
    applied += r.applied;
    recovery_s.push_back(r.cpu);
    load = std::min(load, r.load_cpu);
    replay = std::min(replay, r.replay_cpu);
    sync = std::min(sync, r.sync_cpu);
  }
  const double n = static_cast<double>(recoveries.size());
  report.set("tx_per_s",
             static_cast<double>(fx->persisted + fx->newer) /
                 (load + replay + sync),
             "1/s", recoveries.size());
  // The final stage of a recovery: catching up on the M newer transactions.
  report.set("late_tx_per_s", static_cast<double>(fx->newer) / sync, "1/s",
             recoveries.size());
  record_distribution(report, "recovery_s", recovery_s, "s");

  if (!spans.enabled()) return;

  // ---- Per-layer (traced run) ---------------------------------------------
  const LayerCosts costs =
      measure_layers(fx->peer->tangle(), options.tiny ? 64 : 512, spans);
  record_layer_costs(report, costs);
  const double persisted = static_cast<double>(fx->persisted);
  const double load_s = spans.self_time("storage.load_tangle");
  const double replay_s = spans.self_time("node.gateway_restore");
  report.set("storage.load.busy_s", load_s, "s");
  report.set("storage.load.us_per_tx", load_s * 1e6 / (persisted * n), "us");
  std::FILE* f = std::fopen(fx->path.c_str(), "rb");
  long bytes = 0;
  if (f != nullptr && std::fseek(f, 0, SEEK_END) == 0) bytes = std::ftell(f);
  if (f != nullptr) std::fclose(f);
  report.set("storage.file_bytes", static_cast<double>(bytes), "B");
  report.set("node.replay.busy_s", replay_s, "s");
  report.set("node.replay.us_per_tx", replay_s * 1e6 / (persisted * n), "us");
  report.set("node.sync.catchup_s", spans.self_time("node.sync"), "s");
  report.set("node.sync.txs_applied", static_cast<double>(applied), "count");
  report.set("node.sync.fallbacks", static_cast<double>(loop.fallbacks),
             "count");
  report.set("node.sync.summaries_sent", static_cast<double>(loop.summaries),
             "count");
  report.set("crypto.verify.calls", static_cast<double>(verify_calls), "count");
  report.set("crypto.verify.busy_s",
             costs.verify_us * 1e-6 * static_cast<double>(verify_calls), "s");
  // Load attaches N, replay attaches N again, sync attaches M.
  const double attaches =
      (2.0 * persisted + static_cast<double>(fx->newer)) * n;
  report.set("tangle.attach.calls", attaches, "count");
  report.set("tangle.attach.busy_s", costs.attach_us * 1e-6 * attaches, "s");
  const double decodes = (persisted + static_cast<double>(fx->newer)) * n;
  report.set("common.codec.busy_s",
             (decodes * costs.decode_us +
              static_cast<double>(fx->newer) * n * costs.encode_us) *
                 1e-6,
             "s");
  report.set("consensus.difficulty.mean", kCorpusDifficulty, "bits");
  report.set("obs.trace_overhead_ratio", cpu / n / untraced_mean - 1.0,
             "ratio");
}

}  // namespace perfbench
