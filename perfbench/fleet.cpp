// `fleet`: the smart-factory deployment end to end. 64 light nodes sign,
// mine and submit a sensor reading every 0.5 sim-seconds (closed loop on the
// sim clock) to four credit-PoW gateways that gossip to each other. A pass
// runs the simulator in 0.25 sim-second slices as fast as the host allows up
// to a fixed sim horizon; passes (the same seed on a fresh fleet) repeat
// until at least two have run and the wall budget is spent. Throughput is
// taken over fixed sim windows of that horizon, so every run times the same
// work and the figures do not depend on how far a run got. The simulator is
// single-threaded, so slices are timed in process CPU time, which leaves
// out the host's preemption and steal, and each slice counts at its fastest
// pass, which leaves out most of the phases of seconds in which a shared
// host slows the simulator by up to 2x.
#include <limits>
#include <memory>
#include <queue>
#include <unordered_set>

#include "bench.h"
#include "consensus/pow.h"
#include "crypto/ed25519.h"
#include "factory/scenario.h"
#include "layers.h"
#include "node/convergence.h"
#include "tangle/audit.h"
#include "tangle/transaction.h"

namespace perfbench {

using biot::factory::SmartFactory;
using biot::tangle::Tangle;
using biot::tangle::TxRecord;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Timed slices per sim-second. Short slices (about 40 ms of CPU each) let
// the fastest-pass rule skip short slow moments of the host as well.
constexpr std::size_t kSlicesPerSimSecond = 4;

struct FleetShape {
  int devices = 64;
  // Throughput window (warmup, horizon] sim-s and its final tenth; about
  // 10.2k transactions per replica at the horizon.
  std::size_t warmup = 10;
  std::size_t horizon = 104;
  // Sim-time latencies are taken over transactions issued in
  // [window_begin, window_end) and observed up to `cut`, which every run
  // reaches, so they depend on the seed alone.
  double window_begin = 5.0;
  double window_end = 45.0;
  double cut = 60.0;
};

struct Slice {
  double cpu = 0.0;             // CPU seconds since the pass started
  double replicated = 0.0;      // smallest replica size at the slice end
  double tip_width = 0.0;       // g0's tip count at the slice end
};

struct FleetRun {
  double wall = 0.0;
  double cpu = 0.0;
  double horizon = 0.0;  // sim-s
  double rss_mb = 0.0;  // peak RSS when the sim clock reached `horizon`
  std::vector<Slice> slices;  // slices[i] ends at (i + 1) / 4 sim-s
};

/// One pass: runs slices until the sim clock reaches `horizon` sim-s.
FleetRun run_slices(SmartFactory& factory, std::size_t horizon,
                    SpanLog& spans) {
  FleetRun run;
  const ScopedSpan root(spans, "fleet.run");
  const double t0 = wall_now();
  const double c0 = cpu_now();
  for (std::uint64_t slice = 1; slice <= horizon * kSlicesPerSimSecond;
       ++slice) {
    const double sim = static_cast<double>(slice) / kSlicesPerSimSecond;
    {
      const ScopedSpan span(spans, "sim.run_until", slice);
      factory.run_until(sim);
    }
    std::size_t smallest = factory.gateway(0).tangle().size();
    for (std::size_t g = 1; g < factory.gateway_count(); ++g)
      smallest = std::min(smallest, factory.gateway(g).tangle().size());
    run.slices.push_back(
        Slice{cpu_now() - c0, static_cast<double>(smallest - 1),
              static_cast<double>(factory.gateway(0).tangle().tips().size())});
  }
  run.rss_mb = peak_rss_mb();
  run.horizon = static_cast<double>(horizon);
  run.wall = wall_now() - t0;
  run.cpu = run.slices.back().cpu;
  return run;
}

/// Sim time at which `rec`'s cumulative weight on `tangle` reached
/// 1 + `approvers`: a best-first walk over the approver cone in arrival
/// order (a child always arrives after its parent, so the k-th pop is the
/// k-th approver to arrive). kInf when that happens after `cut`.
double weight_reached_at(const Tangle& tangle, const TxRecord& rec,
                         std::size_t approvers, double cut) {
  using Entry = std::pair<double, const TxRecord*>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::unordered_set<biot::tangle::TxId, biot::FixedBytesHash<32>> seen;
  const auto push_approvers = [&](const TxRecord& r) {
    for (const auto& id : r.approvers) {
      if (!seen.insert(id).second) continue;
      const TxRecord* child = tangle.find(id);
      heap.emplace(child->arrival, child);
    }
  };
  push_approvers(rec);
  for (std::size_t found = 0; !heap.empty();) {
    const auto [arrival, child] = heap.top();
    heap.pop();
    if (arrival > cut) return kInf;
    if (++found == approvers) return arrival;
    push_approvers(*child);
  }
  return kInf;
}

/// Transactions present on every replica.
std::size_t replicated_everywhere(SmartFactory& factory) {
  std::size_t count = 0;
  for (const auto& id : factory.gateway(0).tangle().arrival_order()) {
    bool everywhere = true;
    for (std::size_t g = 1; g < factory.gateway_count() && everywhere; ++g)
      everywhere = factory.gateway(g).tangle().contains(id);
    if (everywhere) ++count;
  }
  return count - 1;  // genesis
}

/// Replicated transactions per CPU-second over sim-s (`from`, `to`], each
/// slice timed at its fastest pass. Every pass runs the same seed, so a
/// slice does the same work in each, and a host that slows down can only
/// add time to it.
double window_rate(const std::vector<FleetRun>& passes, std::size_t from_s,
                   std::size_t to_s) {
  const std::size_t from = from_s * kSlicesPerSimSecond;
  const std::size_t to = to_s * kSlicesPerSimSecond;
  double cpu = 0.0;
  for (std::size_t i = from; i < to; ++i) {
    double fastest = kInf;
    for (const FleetRun& p : passes)
      fastest = std::min(fastest, p.slices[i].cpu - p.slices[i - 1].cpu);
    cpu += fastest;
  }
  const auto& slices = passes.front().slices;
  return (slices[to - 1].replicated - slices[from - 1].replicated) / cpu;
}

/// CPU µs per replicated transaction over slices [begin, end).
double slice_cost_us(const FleetRun& run, std::size_t begin, std::size_t end) {
  const double cpu0 = begin == 0 ? 0.0 : run.slices[begin - 1].cpu;
  const double rep0 = begin == 0 ? 0.0 : run.slices[begin - 1].replicated;
  const double txs = run.slices[end - 1].replicated - rep0;
  return txs > 0.0 ? (run.slices[end - 1].cpu - cpu0) * 1e6 / txs : 0.0;
}

void record_cost_curve(Report& report, const FleetRun& run) {
  const std::size_t n = run.slices.size();
  const std::size_t tenth = std::max<std::size_t>(1, n / 10);
  // Skip the first tenth: bootstrap and staggered device start-up.
  report.set("sim.slice_us_per_tx.first",
             slice_cost_us(run, tenth, std::min(n, 2 * tenth)), "us", tenth);
  report.set("sim.slice_us_per_tx.last", slice_cost_us(run, n - tenth, n),
             "us", tenth);
  std::vector<double> txs, cpu;
  for (std::size_t i = tenth; i < n; ++i) {
    txs.push_back(run.slices[i].replicated);
    cpu.push_back(run.slices[i].cpu);
  }
  report.set("sim.cost_exponent", loglog_slope(txs, cpu), "ratio",
             txs.size());
}

biot::factory::ScenarioConfig fleet_config(const Options& options,
                                           const FleetShape& shape) {
  biot::factory::ScenarioConfig config;
  config.num_devices = shape.devices;
  config.num_gateways = 4;
  config.seed = options.seed;
  config.device.collect_interval = 0.5;
  config.device.profile = biot::sim::DeviceProfile::pi3b_fig9();
  config.gateway.fixed_difficulty = 11;
  config.gateway.credit.initial_difficulty = 11;
  return config;
}

std::unique_ptr<SmartFactory> make_fleet(
    const biot::factory::ScenarioConfig& config) {
  auto factory = std::make_unique<SmartFactory>(config);
  factory->bootstrap();
  return factory;
}

/// The gateways', devices' and network's own counters. Read as soon as the
/// measured slices end: the checks' quiesce period afterwards adds
/// admission, codec and network work that the slices never saw.
struct FleetStats {
  // Gateway admission, from the gateways' obs stage histograms.
  double admit_busy = 0, verify_s = 0, attach_s = 0, observers_s = 0;
  std::uint64_t admit_calls = 0, accepted = 0, gossip = 0, rejected = 0,
                difficulty_rejected = 0, orphans = 0;
  // Devices: submission cycles, and one signature and PoW search per issue.
  std::uint64_t cycles = 0, timeouts = 0, device_rejected = 0, issued = 0;
  std::uint64_t net_msgs = 0, net_bytes = 0;
};

FleetStats read_stats(SmartFactory& factory) {
  FleetStats st;
  for (std::size_t g = 0; g < factory.gateway_count(); ++g) {
    const auto& gw = factory.gateway(g);
    const auto& m = gw.metrics().admission;
    st.admit_busy += m.admit_wall_s.sum();
    st.admit_calls += m.admit_wall_s.count();
    st.verify_s += m.verify_wall_s.sum();
    st.attach_s += m.attach_wall_s.sum();
    st.observers_s += m.observers_wall_s.sum();
    const auto& s = gw.stats();
    st.accepted += s.accepted;
    st.gossip += s.gossip_received;
    // rejected_other is, in a fault-free fleet, gossip copies of already
    // admitted transactions stopped at precheck: useless work, not failure.
    st.rejected += s.rejected_unauthorized + s.rejected_difficulty +
                   s.rejected_pow + s.rejected_conflict + s.rejected_signature;
    st.difficulty_rejected += s.rejected_difficulty;
    st.orphans += s.orphans_buffered;
  }
  for (std::size_t d = 0; d < factory.device_count(); ++d) {
    const auto& s = factory.device(d).stats();
    st.cycles += s.cycles_started;
    st.timeouts += s.timeouts;
    st.device_rejected += s.rejected;
    st.issued += s.pow_durations.size();
  }
  st.net_msgs = factory.network().stats().sent;
  st.net_bytes = factory.network().stats().bytes_sent;
  return st;
}

}  // namespace

void run_fleet(const Options& options, Report& report, SpanLog& spans) {
  FleetShape shape;
  if (options.tiny) shape = FleetShape{16, 2, 20, 2.0, 8.0, 20.0};
  const auto config = fleet_config(options, shape);

  // Traced runs first measure the same fleet untraced; the ratio of the two
  // passes' CPU times is the tracing overhead. Traced runs make one pass.
  double untraced_cpu = 0.0;
  if (spans.enabled()) {
    SpanLog off(false);
    auto factory = make_fleet(config);
    untraced_cpu = run_slices(*factory, shape.horizon, off).cpu;
  }

  // Every pass sets up its own fleet. Set-up takes about 20 ms, so each
  // is repeated, and setup_s is the median over all passes' set-ups: they
  // fall in different phases of the host's speed. It is single-threaded
  // like the run, and timed the same way. Each pass runs on the next CPU.
  std::unique_ptr<SmartFactory> factory;
  std::vector<FleetRun> passes;
  // Process-wide counters at the start of the last pass, for the per-layer
  // split of a traced run's single pass.
  std::uint64_t verify0 = 0, attempts0 = 0, blocks0 = 0, events0 = 0,
                ids0 = 0;
  const double t0 = wall_now();
  do {
    const CpuPin pin(passes.size());
    factory.reset();  // one fleet at a time: peak RSS is that of one
    factory = timed_setup(report, 31, cpu_now,
                          [&] { return make_fleet(config); });
    verify0 = biot::crypto::ed25519_verify_calls();
    attempts0 = biot::consensus::pow_counters().attempts;
    blocks0 = biot::consensus::pow_counters().sha_blocks;
    events0 = factory->scheduler().executed();
    ids0 = biot::tangle::tx_id_computes();
    passes.push_back(run_slices(*factory, shape.horizon, spans));
  } while (!spans.enabled() &&
           (passes.size() < 2 || wall_now() - t0 < options.seconds));
  const FleetRun& run = passes.back();

  const std::uint64_t verify_calls =
      biot::crypto::ed25519_verify_calls() - verify0;
  const std::uint64_t attempts =
      biot::consensus::pow_counters().attempts - attempts0;
  const std::uint64_t blocks =
      biot::consensus::pow_counters().sha_blocks - blocks0;
  const std::uint64_t events = factory->scheduler().executed() - events0;
  const std::uint64_t id_computes = biot::tangle::tx_id_computes() - ids0;
  const FleetStats st = read_stats(*factory);

  // ---- End-to-end ---------------------------------------------------------
  const std::size_t replicated = replicated_everywhere(*factory);
  const std::size_t late = shape.horizon - shape.horizon / 10;
  report.set("tx_per_s", window_rate(passes, shape.warmup, shape.horizon),
             "1/s", (shape.horizon - shape.warmup) * passes.size());
  report.set("late_tx_per_s", window_rate(passes, late, shape.horizon), "1/s",
             (shape.horizon - late) * passes.size());
  report.set("peak_rss_mb", passes.front().rss_mb, "MiB");
  report.set("replicated_txs", static_cast<double>(replicated), "count");
  report.set("passes", static_cast<double>(passes.size()), "count");
  report.set("pass_wall_s", run.wall, "s");
  report.set("pass_cpu_s", run.cpu, "s");

  // Sim-time latencies over the fixed window (seed-determined).
  const Tangle& g0 = factory->gateway(0).tangle();
  const std::size_t approvers_needed =
      config.gateway.confirmation_weight > 0
          ? config.gateway.confirmation_weight - 1
          : 0;
  std::vector<double> admit, confirm;
  std::uint64_t unreplicated = 0, unconfirmed = 0;
  for (const auto& id : g0.arrival_order()) {
    const TxRecord* rec = g0.find(id);
    const double issued = rec->tx.timestamp;
    if (rec->tx.type != biot::tangle::TxType::kData ||
        issued < shape.window_begin || issued >= shape.window_end)
      continue;
    double last_arrival = rec->arrival;
    for (std::size_t g = 1; g < factory->gateway_count(); ++g) {
      const TxRecord* other = factory->gateway(g).tangle().find(id);
      last_arrival = other == nullptr ? kInf
                                      : std::max(last_arrival, other->arrival);
    }
    if (last_arrival > shape.cut) ++unreplicated;
    admit.push_back(last_arrival - issued);
    const double confirmed_at =
        weight_reached_at(g0, *rec, approvers_needed, shape.cut);
    if (confirmed_at == kInf) ++unconfirmed;
    confirm.push_back(confirmed_at - issued);
  }
  record_distribution(report, "admit_sim_s", admit, "s");
  record_distribution(report, "confirm_sim_s", confirm, "s");
  report.set("unconfirmed", static_cast<double>(unconfirmed), "count");
  report.set("unreplicated", static_cast<double>(unreplicated), "count");

  // A submission refused because the sender's credit-derived difficulty
  // rose while it mined is the credit mechanism at work, not a failure; the
  // device retries on its next cycle. Any other refusal, and any timeout,
  // is a failure.
  const std::uint64_t device_failures =
      st.timeouts + (st.device_rejected > st.difficulty_rejected
                         ? st.device_rejected - st.difficulty_rejected
                         : 0);
  report.set("device_failures", static_cast<double>(device_failures), "count");
  report.set("difficulty_rejected", static_cast<double>(st.difficulty_rejected),
             "count");
  report.attempted += st.cycles;
  report.failed += device_failures + unreplicated + unconfirmed;

  // ---- Checks (outside the timed region) ----------------------------------
  // Quiesce: no new submissions, let in-flight gossip land everywhere.
  factory->stop_devices();
  factory->run_until(run.horizon + 5.0);
  biot::node::ConvergenceOptions digests_only;
  digests_only.audit_replicas = false;  // g0 gets the full audit below
  biot::node::ConvergenceChecker checker(digests_only);
  for (std::size_t g = 0; g < factory->gateway_count(); ++g)
    checker.add_replica(&factory->gateway(g));
  const auto converged = checker.check();
  report.check(converged.ok(), "fleet: " + converged.to_string());
  auto reference = factory->gateway(1).tangle().id_digest();
  if (options.inject_fault) reference.value[0] ^= 1;
  report.check(g0.id_digest() == reference, "fleet: g0 digest differs from g1");
  const auto audit = biot::tangle::audit(g0);
  report.check(audit.ok(), "fleet: audit of g0: " + audit.to_string());
  report.check(device_failures == 0 && unreplicated == 0 && unconfirmed == 0,
               "fleet: device failures, unreplicated or unconfirmed txs");

  if (!spans.enabled()) return;

  // ---- Per-layer (traced run) ---------------------------------------------
  const LayerCosts costs = measure_layers(g0, options.tiny ? 64 : 512, spans);
  record_layer_costs(report, costs);
  record_cost_curve(report, run);

  const auto share = [&](double part) {
    return st.admit_busy > 0 ? part / st.admit_busy : 0.0;
  };
  report.set("node.admit.attempts", static_cast<double>(st.admit_calls),
             "count");
  report.set("node.admit.accepted", static_cast<double>(st.accepted), "count");
  report.set("node.admit.useful_ratio",
             st.admit_calls ? static_cast<double>(st.accepted) /
                                  static_cast<double>(st.admit_calls)
                            : 0.0,
             "ratio");
  report.set("node.admit.busy_s", st.admit_busy, "s");
  report.set("node.admit.verify_share", share(st.verify_s), "ratio");
  report.set("node.admit.attach_share", share(st.attach_s), "ratio");
  report.set("node.admit.observers_share", share(st.observers_s), "ratio");
  report.set("node.rejected", static_cast<double>(st.rejected), "count");
  report.set("node.orphans_buffered", static_cast<double>(st.orphans),
             "count");

  // Device side: one signature and one PoW search per issued transaction.
  const auto issued = static_cast<double>(st.issued);
  const double sign_busy = costs.sign_us * 1e-6 * issued;
  const double pow_busy =
      costs.pow_us_per_attempt * 1e-6 * static_cast<double>(attempts);
  report.set("crypto.sign.calls", issued, "count");
  report.set("crypto.sign.busy_s", sign_busy, "s");
  report.set("consensus.pow.calls", issued, "count");
  report.set("consensus.pow.attempts", static_cast<double>(attempts), "count");
  report.set("consensus.pow.blocks_per_attempt",
             attempts ? static_cast<double>(blocks) / attempts : 0.0, "ratio");
  report.set("consensus.pow.us_per_call",
             st.issued ? pow_busy * 1e6 / issued : 0.0, "us");
  report.set("consensus.pow.busy_s", pow_busy, "s");
  double difficulty = 0.0;
  for (const auto& id : g0.arrival_order())
    difficulty += g0.find(id)->tx.difficulty;
  report.set("consensus.difficulty.mean",
             difficulty / static_cast<double>(std::max<std::size_t>(1, g0.size() - 1)),
             "bits");

  report.set("crypto.verify.calls", static_cast<double>(verify_calls), "count");
  report.set("crypto.verify.busy_s",
             costs.verify_us * 1e-6 * static_cast<double>(verify_calls), "s");
  report.set("tangle.attach.calls", static_cast<double>(st.accepted), "count");
  report.set("tangle.attach.busy_s",
             costs.attach_us * 1e-6 * static_cast<double>(st.accepted), "s");

  // Codec: every service submission and every gossip copy is decoded once;
  // each submission is encoded by its device and each accept re-encoded for
  // the relay.
  const auto decodes = static_cast<double>(st.issued + st.gossip);
  const auto encodes = static_cast<double>(st.issued + st.accepted);
  const double codec_busy =
      (decodes * costs.decode_us + encodes * costs.encode_us) * 1e-6;
  report.set("common.codec.busy_s", codec_busy, "s");
  report.set("common.codec.id_computes", static_cast<double>(id_computes),
             "count");

  // Simulator wall time = admission + device sign + device PoW + codec +
  // the rest (scheduler, network, RPC framing, tip selection, light-node
  // logic). The rest is what the estimates leave over; the smoke test
  // checks it is not negative.
  const double sim_busy = spans.self_time("sim.run_until");
  report.set("sim.run.busy_s", sim_busy, "s");
  report.set("sim.residual_s",
             sim_busy - st.admit_busy - sign_busy - pow_busy - codec_busy, "s");
  report.set("sim.events", static_cast<double>(events), "count");
  const auto per_tx = static_cast<double>(std::max<std::size_t>(1, replicated));
  report.set("sim.net.msgs_per_tx", static_cast<double>(st.net_msgs) / per_tx,
             "count");
  report.set("sim.net.bytes_per_tx", static_cast<double>(st.net_bytes) / per_tx,
             "B");
  double width = 0.0;
  for (const auto& s : run.slices) width += s.tip_width;
  report.set("tangle.tips.width_mean",
             width / static_cast<double>(run.slices.size()), "count");
  report.set("obs.trace_overhead_ratio", run.cpu / untraced_cpu - 1.0,
             "ratio");
}

}  // namespace perfbench
