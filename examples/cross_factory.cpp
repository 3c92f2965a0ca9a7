// Cross-factory data sharing (paper Section IV-A): "if factories need to
// configure their machines operating parameters for processing a certain
// kind of parts, they do not need to debug machines independently. They can
// request solutions of the same parts from other factories which have
// configured them through B-IoT."
//
// Two independent smart factories share one public tangle. Factory A's
// milling machine publishes its (encrypted) process recipes; factory A's
// manager shares the symmetric key with factory B's manager over the same
// Fig 4 handshake used for devices; factory B then reads the trusted,
// non-tamperable recipe off its own tangle replica — no data silo, no
// central exchange.
//
// Run: ./build/examples/cross_factory
#include <cstdio>

#include "auth/keydist.h"
#include "factory/sensors.h"
#include "node/gateway.h"
#include "node/light_node.h"
#include "node/manager.h"

using namespace biot;

int main() {
  sim::Scheduler sched;
  sim::Network network(sched, std::make_unique<sim::FixedLatency>(0.004),
                       Rng(7));

  // --- Factory A: manager + gateway + one recipe sensor. -----------------
  const auto manager_a = crypto::Identity::deterministic(1);
  const auto manager_b = crypto::Identity::deterministic(2);
  const auto gw_a_identity = crypto::Identity::deterministic(3);
  const auto gw_b_identity = crypto::Identity::deterministic(4);
  const auto genesis = tangle::Tangle::make_genesis();

  node::Gateway gateway_a(1, gw_a_identity, manager_a.public_identity().sign_key,
                          genesis, network, {});
  node::Gateway gateway_b(2, gw_b_identity, manager_b.public_identity().sign_key,
                          genesis, network, {});
  gateway_a.attach();
  gateway_b.attach();
  // The public tangle: both factories' full nodes gossip with each other.
  gateway_a.add_peer(gateway_b.node_id());
  gateway_b.add_peer(gateway_a.node_id());

  node::Manager mgr_a(3, manager_a, gateway_a, network);
  node::Manager mgr_b(4, manager_b, gateway_b, network);
  mgr_a.attach();
  mgr_b.attach();

  node::LightNodeConfig mill_config;
  mill_config.profile = sim::DeviceProfile::pi3b_fig9();
  mill_config.collect_interval = 2.0;
  node::LightNode mill(10, crypto::Identity::deterministic(100),
                       gateway_a.node_id(), network, mill_config);

  factory::ProcessRecipeSensor recipe("recipe-mill-A");
  Rng sensor_rng(99);
  mill.set_data_source([&] { return recipe.sample(sched.now(), sensor_rng).encode(); });
  mill.enable_keydist(manager_a.public_identity().sign_key);

  if (!mgr_a.authorize({mill.public_identity()}).is_ok()) return 1;
  mill.start();
  sched.after(0.1, [&] {
    (void)mgr_a.distribute_key(mill.public_identity(), mill.node_id());
  });

  sched.run_until(30.0);
  std::printf("factory A published %llu recipe transactions (encrypted)\n",
              static_cast<unsigned long long>(mill.stats().accepted));
  std::printf("factory B's replica already has them via gossip: %zu txs\n",
              gateway_b.tangle().size());

  // --- Key sharing: manager B obtains the recipe key from manager A -----
  // via the same Fig 4 protocol, acting as the "device" side.
  crypto::Csprng a_rng(11), b_rng(22);
  auth::ManagerKeyDist sharer(manager_a, sched.clock(), a_rng);
  auth::DeviceKeyDist receiver(manager_b, manager_a.public_identity().sign_key,
                               sched.clock(), b_rng);
  // Share the *established* factory-A recipe key rather than a fresh one:
  // wrap it as the SKS of a new session by sealing it manually.
  // (ManagerKeyDist always generates a fresh SKS; for cross-factory sharing
  // we run the handshake and then use ITS key to envelope the recipe key.)
  const Bytes m1 = sharer.start_session(manager_b.public_identity());
  sched.run_until(30.1);  // replay guard wants strictly increasing timestamps
  auto m2 = receiver.handle_m1(m1);
  sched.run_until(30.2);
  auto m3 = sharer.handle_m2(manager_b.public_identity(), m2.value());
  sched.run_until(30.3);
  if (!receiver.handle_m3(m3.value()).is_ok()) return 1;

  const auto& recipe_key = mgr_a.session_key(mill.public_identity());
  const Bytes wrapped = auth::envelope_seal(receiver.key(), recipe_key.view(), a_rng);
  const auto unwrapped = auth::envelope_open(receiver.key(), wrapped);
  const auto shared_key = auth::SymmetricKey::from_view(unwrapped.value());
  std::printf("\nmanager B obtained the recipe key via a manager-to-manager "
              "Fig 4 handshake (%zu-byte wrapped key)\n",
              wrapped.size());

  // --- Factory B reads the recipe from ITS OWN replica. ------------------
  std::size_t read_back = 0;
  for (const auto& id : gateway_b.tangle().arrival_order()) {
    const auto* rec = gateway_b.tangle().find(id);
    if (!rec->tx.payload_encrypted) continue;
    const auto plain = auth::envelope_open(shared_key, rec->tx.payload);
    if (!plain) continue;
    const auto reading = factory::SensorReading::decode(plain.value());
    if (!reading) continue;
    if (++read_back == 1) {
      // Gateway B counts approvers only up to its confirmation threshold.
      const auto info = gateway_b.confirmation_status(id);
      std::printf("\nfactory B decrypts factory A's recipe from its own "
                  "replica:\n  %s = %.1f %s (%s), tangle weight %llu%s\n",
                  reading.value().sensor.c_str(), reading.value().value,
                  reading.value().unit.c_str(), reading.value().status.c_str(),
                  static_cast<unsigned long long>(info.cumulative_weight),
                  info.weight_confirmed ? " (confirmed)" : "");
    }
  }
  std::printf("\nfactory B recovered %zu recipe readings — trusted because "
              "they are signed by factory A's machine and anchored in the "
              "shared tangle (non-tamperable, traceable), not because "
              "factory A's server says so.\n",
              read_back);
  return read_back > 0 ? 0 : 1;
}
