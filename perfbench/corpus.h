// Seeded transaction corpus for the ingest and restart workloads.
//
// The corpus is a sequence of waves. Every transaction of wave w approves
// two transactions of wave w-1 (wave 0 approves genesis): the one at its
// own position, so every transaction gets approved and the tip set stays one
// wave wide, and one drawn at random. Senders rotate over a fixed set of
// keys with per-sender sequence numbers, and each transaction carries real
// PoW at a fixed difficulty plus a real Ed25519 signature. A wave is
// admitted as one burst; its parents all attached with the previous burst.
#pragma once

#include <cstdint>
#include <vector>

#include "tangle/transaction.h"

namespace perfbench {

constexpr std::size_t kCorpusSenders = 64;
constexpr int kCorpusDifficulty = 6;
/// Sim-time spacing of waves (transaction timestamps).
constexpr double kWaveInterval = 0.05;

struct CorpusSpec {
  std::uint64_t seed = 1;
  std::size_t waves = 64;
  std::size_t wave_size = 256;
};

using Wave = std::vector<biot::tangle::Transaction>;

/// Builds the corpus on `threads` threads. Output depends only on the spec.
std::vector<Wave> make_corpus(const CorpusSpec& spec,
                              const biot::tangle::TxId& genesis,
                              unsigned threads);

}  // namespace perfbench
