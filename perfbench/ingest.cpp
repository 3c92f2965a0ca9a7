// `ingest`: one gateway (weighted-walk tips, admission on up to four lanes)
// admits a pre-signed, pre-mined multi-sender corpus as
// admit_many(Ingress::kSync) bursts, one wave per burst. After each burst
// the workload reads: one select_tips() and three confirmation_status() calls
// on transactions of the two newest waves. The loop is closed in wall time:
// passes over the corpus (each on a fresh gateway) repeat until the budget
// is spent.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "corpus.h"
#include "crypto/ed25519.h"
#include "crypto/identity.h"
#include "layers.h"
#include "node/gateway.h"
#include "tangle/audit.h"

namespace perfbench {

using biot::node::Gateway;
using biot::node::GatewayConfig;

namespace {

constexpr int kConfirmReadsPerBurst = 3;

/// The gateway of one pass with the simulator it is bound to.
struct Env {
  explicit Env(std::uint64_t seed)
      : network(scheduler,
                std::make_unique<biot::sim::ExponentialTailLatency>(0.002,
                                                                    0.003),
                biot::Rng(seed)) {}
  biot::sim::Scheduler scheduler;
  biot::sim::Network network;
  std::unique_ptr<Gateway> gateway;
};

struct Pass {
  double wall = 0.0;
  std::vector<double> wave_wall;  // per wave: its burst plus its reads
  std::uint64_t admitted = 0;
  std::uint64_t not_ok = 0;
  std::vector<double> select_us, confirm_us;
  double tip_width_sum = 0.0;
  // The gateway's own admission instrumentation, read after the pass.
  double admit_busy = 0, verify_s = 0, attach_s = 0, observers_s = 0;
  double read_s = 0, commit_s = 0, batch_items = 0, batches = 0;
  double walk_steps = 0;
  std::uint64_t admit_calls = 0;
  std::unique_ptr<Env> env;  // kept for the last pass only (checks, replay)
};

struct Fixture {
  CorpusSpec spec;
  std::vector<Wave> corpus;
  biot::crypto::Identity identity;
};

Pass run_pass(const Fixture& fx, unsigned threads, SpanLog& spans) {
  Pass pass;
  pass.env = std::make_unique<Env>(fx.spec.seed);
  GatewayConfig config;
  config.tips = GatewayConfig::TipStrategy::kWeightedWalk;
  config.admission_threads = threads;
  pass.env->gateway = std::make_unique<Gateway>(
      1, fx.identity, fx.identity.public_identity().sign_key,
      biot::tangle::Tangle::make_genesis(), pass.env->network, config);
  auto& scheduler = pass.env->scheduler;
  auto& gateway = *pass.env->gateway;

  const std::size_t waves = fx.corpus.size();
  const ScopedSpan root(spans, "ingest.pass");
  const double t0 = wall_now();
  for (std::size_t w = 0; w < waves; ++w) {
    const double w0 = wall_now();
    // Arrival half an interval after the wave's timestamp.
    scheduler.run_until((static_cast<double>(w) + 0.5) * kWaveInterval);
    std::vector<biot::Status> statuses;
    {
      const ScopedSpan span(spans, "node.admit_many", w);
      statuses = gateway.admit_many(fx.corpus[w], biot::node::Ingress::kSync);
    }
    std::uint64_t ok = 0;
    for (const auto& s : statuses) ok += s.is_ok() ? 1 : 0;
    pass.admitted += ok;
    pass.not_ok += statuses.size() - ok;

    {
      const ScopedSpan span(spans, "node.select_tips", w);
      const double r0 = wall_now();
      const auto tips = gateway.select_tips();
      pass.select_us.push_back((wall_now() - r0) * 1e6);
      (void)tips;
    }
    const Wave& recent = fx.corpus[w > 0 && w % 2 ? w - 1 : w];
    for (int k = 0; k < kConfirmReadsPerBurst; ++k) {
      const auto& id = recent[(w * 7 + static_cast<std::size_t>(k) * 31) %
                              recent.size()]
                           .id();
      const ScopedSpan span(spans, "node.confirmation_status", w);
      const double r0 = wall_now();
      const auto info = gateway.confirmation_status(id);
      pass.confirm_us.push_back((wall_now() - r0) * 1e6);
      if (!info.known) ++pass.not_ok;
    }
    pass.tip_width_sum += static_cast<double>(gateway.tangle().tips().size());
    pass.wave_wall.push_back(wall_now() - w0);
  }
  pass.wall = wall_now() - t0;

  const auto& m = gateway.metrics();
  pass.admit_busy = m.admission.admit_wall_s.sum();
  pass.admit_calls = m.admission.admit_wall_s.count();
  pass.verify_s = m.admission.verify_wall_s.sum();
  pass.attach_s = m.admission.attach_wall_s.sum();
  pass.observers_s = m.admission.observers_wall_s.sum();
  pass.read_s = m.admission_batch.read_wall_s.sum();
  pass.commit_s = m.admission_batch.commit_wall_s.sum();
  pass.batch_items = m.admission_batch.batch_size.sum();
  pass.batches = static_cast<double>(m.admission_batch.batch_size.count());
  pass.walk_steps = m.tip_walk_steps.mean();
  return pass;
}

}  // namespace

void run_ingest(const Options& options, Report& report, SpanLog& spans) {
  CorpusSpec spec;
  spec.seed = options.seed;
  spec.waves = options.tiny ? 8 : 96;
  spec.wave_size = 256;
  const auto genesis_id = biot::tangle::Tangle::make_genesis().id();

  auto fx = timed_setup(report, 3, wall_now, [&] {
    return std::make_unique<Fixture>(Fixture{
        spec, make_corpus(spec, genesis_id, options.threads),
        biot::crypto::Identity::deterministic(options.seed * 7 + 3)});
  });
  // Traced runs time one untraced pass first, for the overhead ratio.
  double untraced_wall = 0.0;
  if (spans.enabled()) {
    SpanLog off(false);
    untraced_wall = run_pass(*fx, options.threads, off).wall;
  }

  const std::uint64_t verify0 = biot::crypto::ed25519_verify_calls();
  std::vector<Pass> passes;
  const double t0 = wall_now();
  do {
    if (!passes.empty()) passes.back().env.reset();
    passes.push_back(run_pass(*fx, options.threads, spans));
  } while (wall_now() - t0 < options.seconds);
  const std::uint64_t verify_calls =
      biot::crypto::ed25519_verify_calls() - verify0;
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");

  // ---- End-to-end ---------------------------------------------------------
  Pass total;
  std::vector<double> select_us, confirm_us;
  for (const auto& p : passes) {
    total.wall += p.wall;
    total.admitted += p.admitted;
    total.not_ok += p.not_ok;
    total.tip_width_sum += p.tip_width_sum;
    total.admit_busy += p.admit_busy;
    total.admit_calls += p.admit_calls;
    total.verify_s += p.verify_s;
    total.attach_s += p.attach_s;
    total.observers_s += p.observers_s;
    total.read_s += p.read_s;
    total.commit_s += p.commit_s;
    total.batch_items += p.batch_items;
    total.batches += p.batches;
    total.walk_steps += p.walk_steps;
    select_us.insert(select_us.end(), p.select_us.begin(), p.select_us.end());
    confirm_us.insert(confirm_us.end(), p.confirm_us.begin(),
                      p.confirm_us.end());
  }
  std::vector<double> reads = select_us;
  reads.insert(reads.end(), confirm_us.begin(), confirm_us.end());
  // Every pass does the same work wave by wave, so a wave's cost is its
  // fastest wall time over the passes: a shared host that slows down can
  // only add time to a wave.
  const std::size_t late_from =
      spec.waves - std::max<std::size_t>(1, spec.waves / 10);
  double wall = 0.0, late_wall = 0.0;
  for (std::size_t w = 0; w < spec.waves; ++w) {
    double cost = passes.front().wave_wall[w];
    for (const auto& p : passes) cost = std::min(cost, p.wave_wall[w]);
    wall += cost;
    if (w >= late_from) late_wall += cost;
  }
  const double wave_txs = static_cast<double>(spec.wave_size);
  report.set("tx_per_s", wave_txs * static_cast<double>(spec.waves) / wall,
             "1/s", passes.size());
  report.set("late_tx_per_s",
             wave_txs * static_cast<double>(spec.waves - late_from) / late_wall,
             "1/s", passes.size());
  report.set("passes", static_cast<double>(passes.size()), "count");
  record_distribution(report, "read_us", reads, "us");
  report.attempted += total.admitted + total.not_ok + reads.size();
  report.failed += total.not_ok;

  // ---- Checks (outside the timed region) ----------------------------------
  // The full replica must hold exactly the corpus: size and id digest match
  // an independent fold over the corpus ids. The O(n^2) structural audit
  // runs on a replica of the first waves admitted the same way.
  const auto& replica = passes.back().env->gateway->tangle();
  const auto genesis = biot::tangle::Tangle::make_genesis();
  biot::tangle::IdDigest expected;
  expected.toggle(genesis.id());
  for (const auto& wave : fx->corpus)
    for (const auto& tx : wave) expected.toggle(tx.id());
  if (options.inject_fault) expected.value[0] ^= 1;
  report.check(total.not_ok == 0, "ingest: non-OK admission or unknown read");
  report.check(replica.size() == spec.waves * spec.wave_size + 1,
               "ingest: replica size " + std::to_string(replica.size()) +
                   " != corpus + genesis");
  report.check(replica.id_digest() == expected,
               "ingest: replica id digest differs from the corpus");
  {
    Env env(spec.seed);
    Gateway gateway(1, fx->identity, fx->identity.public_identity().sign_key,
                    genesis, env.network, GatewayConfig{});
    std::uint64_t not_ok = 0;
    for (std::size_t w = 0; w < std::min<std::size_t>(spec.waves, 12); ++w)
      for (const auto& s :
           gateway.admit_many(fx->corpus[w], biot::node::Ingress::kSync))
        not_ok += s.is_ok() ? 0 : 1;
    const auto audit = biot::tangle::audit(gateway.tangle());
    report.check(not_ok == 0 && audit.ok(),
                 "ingest: audit of the check replica: " + audit.to_string());
  }

  if (!spans.enabled()) return;

  // ---- Per-layer (traced run) ---------------------------------------------
  const LayerCosts costs =
      measure_layers(replica, options.tiny ? 64 : 512, spans);
  record_layer_costs(report, costs);
  const double n_passes = static_cast<double>(passes.size());
  const auto share = [&](double part) {
    return total.admit_busy > 0 ? part / total.admit_busy : 0.0;
  };
  report.set("node.admit.attempts", static_cast<double>(total.admit_calls),
             "count");
  report.set("node.admit.accepted", static_cast<double>(total.admitted),
             "count");
  report.set("node.admit.useful_ratio",
             total.admit_calls ? static_cast<double>(total.admitted) /
                                     static_cast<double>(total.admit_calls)
                               : 0.0,
             "ratio");
  report.set("node.admit.busy_s", total.admit_busy, "s");
  report.set("node.admit.verify_share", share(total.verify_s), "ratio");
  report.set("node.admit.attach_share", share(total.attach_s), "ratio");
  report.set("node.admit.observers_share", share(total.observers_s), "ratio");
  report.set("node.admit_many.read_s", total.read_s, "s");
  report.set("node.admit_many.commit_s", total.commit_s, "s");
  report.set("node.admit_many.batch_mean",
             total.batches > 0 ? total.batch_items / total.batches : 0.0,
             "count");
  report.set("node.rejected", static_cast<double>(total.not_ok), "count");
  report.set("crypto.verify.calls", static_cast<double>(verify_calls), "count");
  report.set("crypto.verify.busy_s",
             costs.verify_batch_us_per_item * 1e-6 *
                 static_cast<double>(verify_calls),
             "s");
  report.set("tangle.attach.calls", static_cast<double>(total.admitted),
             "count");
  report.set("tangle.attach.busy_s",
             costs.attach_us * 1e-6 * static_cast<double>(total.admitted), "s");
  report.set("tangle.select.us_per_call",
             spans.self_time("node.select_tips") * 1e6 /
                 static_cast<double>(select_us.size()),
             "us", select_us.size());
  report.set("tangle.select.walk_steps", total.walk_steps / n_passes, "count");
  report.set("tangle.confirm_query.us_per_call",
             spans.self_time("node.confirmation_status") * 1e6 /
                 static_cast<double>(confirm_us.size()),
             "us", confirm_us.size());
  report.set("tangle.tips.width_mean",
             total.tip_width_sum / (n_passes * static_cast<double>(spec.waves)),
             "count");
  report.set("consensus.difficulty.mean", kCorpusDifficulty, "bits");
  report.set("obs.trace_overhead_ratio",
             total.wall / n_passes / untraced_wall - 1.0, "ratio");
}

}  // namespace perfbench
