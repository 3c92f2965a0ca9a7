// Outside-in per-layer cost model for traced runs.
//
// Replays a workload's own transactions, in the replica's arrival order,
// through each layer's public entry point and times every call:
// crypto::ed25519_{sign,verify,verify_batch}, consensus::Miner::mine,
// tangle::Transaction::{encode,decode} and tangle::Tangle::{attach_precheck,
// add} on a fresh tangle. A workload turns these unit costs into busy time
// by multiplying with the call counts the program itself exported during the
// measured run (verify calls, PoW attempts, accepted transactions).
#pragma once

#include <vector>

#include "bench.h"
#include "tangle/tangle.h"

namespace perfbench {

struct LayerCosts {
  double sign_us = 0.0;
  double verify_us = 0.0;
  double verify_batch_us_per_item = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  double pow_us_per_attempt = 0.0;
  double precheck_us = 0.0;
  double attach_us = 0.0;              // mean over every replayed add
  double attach_us_first_decile = 0.0;  // mean over the first tenth
  double attach_us_last_decile = 0.0;   // mean over the last tenth
  std::size_t attach_calls = 0;
  std::size_t attach_failures = 0;  // replayed adds that did not attach
};

/// Replays `replica`'s non-genesis transactions (arrival order). Crypto,
/// PoW and codec costs come from an evenly spaced sample of at most
/// `sample` transactions; attach and precheck replay every transaction.
/// Records one span per layer under "layers".
LayerCosts measure_layers(const biot::tangle::Tangle& replica,
                          std::size_t sample, SpanLog& spans);

/// Records the per-call metrics every traced workload shares.
void record_layer_costs(Report& report, const LayerCosts& costs);

}  // namespace perfbench
