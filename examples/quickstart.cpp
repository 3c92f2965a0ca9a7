// Quickstart: the smallest end-to-end B-IoT deployment.
//
// One gateway (full node), one manager, one IoT device (light node). Walks
// the paper's Fig 6 workflow explicitly:
//   1. the manager's key anchors the genesis configuration
//   2. the manager authorizes the device on-chain (Eqn 1)
//   4./5. the device fetches two tips, runs credit-based PoW and submits
//         sensor readings as tangle transactions
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "node/gateway.h"
#include "node/light_node.h"
#include "node/manager.h"

using namespace biot;

int main() {
  // --- Simulated substrate: event scheduler + 2 ms LAN. -----------------
  sim::Scheduler sched;
  sim::Network network(sched, std::make_unique<sim::FixedLatency>(0.002),
                       Rng(/*seed=*/1));

  // --- Identities. Every entity owns an Ed25519 signing pair (its ------
  // on-chain account) and an X25519 encryption pair (for key exchange).
  const auto manager_identity = crypto::Identity::deterministic(1);
  const auto gateway_identity = crypto::Identity::deterministic(2);
  const auto device_identity = crypto::Identity::deterministic(3);

  // --- Full node. The manager's public key is "hard-coded into the ------
  // genesis config": only that key may publish authorization lists.
  node::GatewayConfig gw_config;  // defaults = the paper's Section VI-A setup
  node::Gateway gateway(/*node id=*/1, gateway_identity,
                        manager_identity.public_identity().sign_key,
                        tangle::Tangle::make_genesis(), network, gw_config);
  gateway.attach();

  // --- Manager, co-located with its gateway (it IS a full node). --------
  node::Manager manager(/*node id=*/2, manager_identity, gateway, network);
  manager.attach();

  // --- IoT device: a Raspberry-Pi-class light node sampling a sensor ----
  // twice a second.
  node::LightNodeConfig dev_config;
  dev_config.profile = sim::DeviceProfile::pi3b_fig9();
  dev_config.collect_interval = 0.5;
  node::LightNode device(/*node id=*/10, device_identity, gateway.node_id(),
                         network, dev_config);
  device.set_data_source(
      [n = 0]() mutable { return to_bytes("temp=21." + std::to_string(n++)); });

  // --- Step 2: authorize the device on-chain. ---------------------------
  const auto status = manager.authorize({device.public_identity()});
  std::printf("authorization published: %s (authorized devices: %zu)\n",
              status.to_string().c_str(),
              gateway.auth_registry().authorized_count());

  // --- Steps 4/5: run the factory for 60 simulated seconds. -------------
  device.start();
  sched.run_until(60.0);

  std::printf("\nafter 60 simulated seconds:\n");
  std::printf("  transactions accepted : %llu\n",
              static_cast<unsigned long long>(device.stats().accepted));
  std::printf("  tangle size           : %zu transactions\n",
              gateway.tangle().size());
  std::printf("  device's difficulty   : %d (started at %d — honest activity "
              "earned easier PoW)\n",
              gateway.required_difficulty(device.public_identity().sign_key),
              gw_config.credit.initial_difficulty);

  // Read one of the device's readings back off the ledger.
  for (const auto& id : gateway.tangle().arrival_order()) {
    const auto* rec = gateway.tangle().find(id);
    if (rec->tx.type == tangle::TxType::kData) {
      // The gateway counts approvers only up to its confirmation threshold.
      const auto info = gateway.confirmation_status(id);
      std::printf("  first reading on-chain: \"%s\" (tx %s..., weight %llu of %zu%s)\n",
                  to_string(rec->tx.payload).c_str(),
                  id.hex().substr(0, 12).c_str(),
                  static_cast<unsigned long long>(info.cumulative_weight),
                  gw_config.confirmation_weight,
                  info.weight_confirmed ? ", confirmed" : "");
      break;
    }
  }
  return 0;
}
