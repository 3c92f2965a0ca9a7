#include "corpus.h"

#include <algorithm>
#include <thread>

#include "common/rng.h"
#include "consensus/pow.h"
#include "crypto/ed25519.h"

namespace perfbench {

using biot::tangle::Transaction;
using biot::tangle::TxId;

std::vector<Wave> make_corpus(const CorpusSpec& spec, const TxId& genesis,
                              unsigned threads) {
  biot::Rng rng(spec.seed ^ 0xc0a9b5ull);
  std::vector<biot::crypto::Ed25519KeyPair> keys;
  for (std::size_t s = 0; s < kCorpusSenders; ++s) {
    biot::crypto::Ed25519Seed key_seed;
    for (auto& b : key_seed.data) b = static_cast<std::uint8_t>(rng.next());
    keys.push_back(biot::crypto::Ed25519KeyPair::from_seed(key_seed));
  }
  std::vector<std::uint64_t> next_sequence(kCorpusSenders, 0);

  std::vector<Wave> waves(spec.waves);
  std::size_t index = 0;
  for (std::size_t w = 0; w < spec.waves; ++w) {
    // Unsigned skeletons first (sequential: they consume the seeded stream),
    // then PoW + signature + id in parallel.
    Wave& wave = waves[w];
    wave.resize(spec.wave_size);
    std::vector<std::size_t> signer(spec.wave_size);
    for (std::size_t j = 0; j < spec.wave_size; ++j, ++index) {
      Transaction& tx = wave[j];
      const std::size_t s = index % kCorpusSenders;
      signer[j] = s;
      tx.type = biot::tangle::TxType::kData;
      tx.sender = keys[s].public_key;
      if (w == 0) {
        tx.parent1 = tx.parent2 = genesis;
      } else {
        const Wave& prev = waves[w - 1];
        tx.parent1 = prev[j % prev.size()].id();
        tx.parent2 = prev[rng.index(prev.size())].id();
      }
      tx.sequence = next_sequence[s]++;
      tx.timestamp = static_cast<double>(w) * kWaveInterval;
      tx.difficulty = static_cast<std::uint8_t>(kCorpusDifficulty);
      tx.payload.resize(64);
      for (auto& b : tx.payload) b = static_cast<std::uint8_t>(rng.next());
    }

    const auto finish = [&](std::size_t begin, std::size_t end) {
      for (std::size_t j = begin; j < end; ++j) {
        Transaction& tx = wave[j];
        biot::consensus::Miner miner(std::uint64_t{w} << 32 | j);
        tx.nonce = miner.mine(tx.parent1, tx.parent2, kCorpusDifficulty)->nonce;
        tx.signature = biot::crypto::ed25519_sign(keys[signer[j]],
                                                  tx.signing_bytes());
        (void)tx.id();  // cached; later copies are moved, keeping it
      }
    };
    const std::size_t lanes = std::max(1u, threads);
    const std::size_t chunk = (spec.wave_size + lanes - 1) / lanes;
    std::vector<std::thread> pool;
    for (std::size_t begin = chunk; begin < spec.wave_size; begin += chunk)
      pool.emplace_back(finish, begin, std::min(spec.wave_size, begin + chunk));
    finish(0, std::min(spec.wave_size, chunk));
    for (auto& t : pool) t.join();
  }
  return waves;
}

}  // namespace perfbench
