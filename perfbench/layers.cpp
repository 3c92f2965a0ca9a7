#include "layers.h"

#include "consensus/pow.h"
#include "crypto/ed25519.h"

namespace perfbench {

using biot::tangle::Tangle;
using biot::tangle::Transaction;
using biot::tangle::TxRecord;

namespace {

// Folds a result into a value the optimizer must keep.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

double us_per(double seconds, std::size_t calls) {
  return calls == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(calls);
}

}  // namespace

LayerCosts measure_layers(const Tangle& replica, std::size_t sample,
                          SpanLog& spans) {
  const ScopedSpan root(spans, "layers");
  std::vector<const TxRecord*> recs;
  recs.reserve(replica.size());
  for (const auto& id : replica.arrival_order()) {
    const TxRecord* rec = replica.find(id);
    if (rec->tx.type != biot::tangle::TxType::kGenesis) recs.push_back(rec);
  }
  LayerCosts costs;
  if (recs.empty()) return costs;

  std::vector<const Transaction*> picks;
  const std::size_t stride = std::max<std::size_t>(1, recs.size() / sample);
  for (std::size_t i = 0; i < recs.size() && picks.size() < sample; i += stride)
    picks.push_back(&recs[i]->tx);
  std::vector<biot::Bytes> messages;
  std::vector<biot::Bytes> wires;
  for (const auto* tx : picks) {
    messages.push_back(tx->signing_bytes());
    wires.push_back(tx->encode());
  }

  {
    const ScopedSpan span(spans, "crypto.sign");
    biot::crypto::Ed25519Seed key_seed;
    key_seed.data.fill(0x5a);
    const auto kp = biot::crypto::Ed25519KeyPair::from_seed(key_seed);
    const double t0 = wall_now();
    for (const auto& m : messages) keep(biot::crypto::ed25519_sign(kp, m));
    costs.sign_us = us_per(wall_now() - t0, messages.size());
  }
  {
    const ScopedSpan span(spans, "crypto.verify");
    const double t0 = wall_now();
    for (std::size_t i = 0; i < picks.size(); ++i)
      keep(biot::crypto::ed25519_verify(picks[i]->sender, messages[i],
                                        picks[i]->signature));
    costs.verify_us = us_per(wall_now() - t0, picks.size());
  }
  {
    // Same chunking as the admission read phase: 256-item slices over four
    // lanes give 64-signature batches.
    const ScopedSpan span(spans, "crypto.verify_batch");
    constexpr std::size_t kBatch = 64;
    const double t0 = wall_now();
    for (std::size_t begin = 0; begin < picks.size(); begin += kBatch) {
      std::vector<biot::crypto::VerifyItem> items;
      for (std::size_t i = begin; i < std::min(picks.size(), begin + kBatch);
           ++i)
        items.push_back({&picks[i]->sender, messages[i], &picks[i]->signature});
      keep(biot::crypto::ed25519_verify_batch(items).size());
    }
    costs.verify_batch_us_per_item = us_per(wall_now() - t0, picks.size());
  }
  {
    const ScopedSpan span(spans, "common.codec.encode");
    const double t0 = wall_now();
    for (const auto* tx : picks) keep(tx->encode().size());
    costs.encode_us = us_per(wall_now() - t0, picks.size());
  }
  {
    const ScopedSpan span(spans, "common.codec.decode");
    const double t0 = wall_now();
    for (const auto& wire : wires)
      keep(Transaction::decode(wire).is_ok());
    costs.decode_us = us_per(wall_now() - t0, wires.size());
  }
  {
    const ScopedSpan span(spans, "consensus.pow");
    biot::consensus::Miner miner(0x7e57);
    std::uint64_t attempts = 0;
    const double t0 = wall_now();
    for (const auto* tx : picks) {
      const auto mined = miner.mine(tx->parent1, tx->parent2, tx->difficulty);
      if (mined) attempts += mined->attempts;
    }
    costs.pow_us_per_attempt = us_per(wall_now() - t0, attempts);
  }
  {
    const ScopedSpan span(spans, "tangle.attach_replay");
    Tangle fresh(replica.find(replica.genesis_id())->tx);
    std::vector<double> attach_s;
    attach_s.reserve(recs.size());
    double precheck_s = 0.0;
    for (const TxRecord* rec : recs) {
      const double t0 = wall_now();
      const bool fits = fresh.attach_precheck(rec->tx).is_ok();
      const double t1 = wall_now();
      const bool added =
          fits &&
          fresh.add(rec->tx, rec->arrival,
                    biot::tangle::VerifiedToken::assume_valid(rec->tx))
              .is_ok();
      attach_s.push_back(wall_now() - t1);
      precheck_s += t1 - t0;
      if (!added) ++costs.attach_failures;
    }
    const std::size_t n = attach_s.size();
    const std::size_t tenth = std::max<std::size_t>(1, n / 10);
    double all = 0.0, first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      all += attach_s[i];
      if (i < tenth) first += attach_s[i];
      if (i >= n - tenth) last += attach_s[i];
    }
    costs.attach_calls = n;
    costs.attach_us = us_per(all, n);
    costs.attach_us_first_decile = us_per(first, tenth);
    costs.attach_us_last_decile = us_per(last, tenth);
    costs.precheck_us = us_per(precheck_s, n);
  }
  return costs;
}

void record_layer_costs(Report& report, const LayerCosts& costs) {
  report.set("crypto.sign.us_per_call", costs.sign_us, "us");
  report.set("crypto.verify.us_per_call", costs.verify_us, "us");
  report.set("crypto.verify_batch.us_per_item", costs.verify_batch_us_per_item,
             "us");
  report.set("common.codec.encode_us_per_tx", costs.encode_us, "us");
  report.set("common.codec.decode_us_per_tx", costs.decode_us, "us");
  report.set("tangle.attach.us_per_call", costs.attach_us, "us",
             costs.attach_calls);
  report.set("tangle.attach.us_first_decile", costs.attach_us_first_decile,
             "us");
  report.set("tangle.attach.us_last_decile", costs.attach_us_last_decile, "us");
  report.set("tangle.precheck.us_per_call", costs.precheck_us, "us",
             costs.attach_calls);
  report.check(costs.attach_failures == 0,
               "layer replay: a transaction failed to re-attach");
}

}  // namespace perfbench
