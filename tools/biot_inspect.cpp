// biot-inspect: examine persisted B-IoT artifacts — serialized tangles
// (storage::save_tangle) and transaction archives (storage::ArchiveWriter).
//
//   biot_inspect tangle.bin            summarize a tangle file
//   biot_inspect --archive txs.arc     summarize an archive
//   biot_inspect tangle.bin --dot out.dot    also export Graphviz
//   biot_inspect tangle.bin --audit    run the invariant auditor (exit 2
//                                      when any invariant is violated)
//   biot_inspect tangle.bin --metrics  structure metrics as text; with a
//                                      path (--metrics out.json), write
//                                      biot-metrics-v1 JSON instead
#include <algorithm>
#include <cstdio>
#include <map>

#include "cli_args.h"
#include "obs/export.h"
#include "storage/archive.h"
#include "storage/tangle_io.h"
#include "tangle/audit.h"

using namespace biot;

namespace {

void summarize_transactions(
    const std::vector<std::pair<tangle::Transaction, double>>& txs) {
  std::map<std::string, std::size_t> by_type;
  std::map<std::string, std::size_t> by_sender;
  std::size_t encrypted = 0;
  double min_t = 1e300, max_t = -1e300;

  for (const auto& [tx, arrival] : txs) {
    ++by_type[std::string(tangle::tx_type_name(tx.type))];
    ++by_sender[tx.sender.hex().substr(0, 8)];
    if (tx.payload_encrypted) ++encrypted;
    min_t = std::min(min_t, arrival);
    max_t = std::max(max_t, arrival);
  }

  std::printf("transactions: %zu (%zu encrypted payloads)\n", txs.size(),
              encrypted);
  if (!txs.empty())
    std::printf("time span: %.2f .. %.2f s\n", min_t, max_t);
  std::printf("by type:\n");
  for (const auto& [type, count] : by_type)
    std::printf("  %-14s %zu\n", type.c_str(), count);

  // Top senders.
  std::vector<std::pair<std::size_t, std::string>> senders;
  for (const auto& [sender, count] : by_sender)
    senders.emplace_back(count, sender);
  std::sort(senders.rbegin(), senders.rend());
  std::printf("top senders:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, senders.size()); ++i)
    std::printf("  %s...  %zu txs\n", senders[i].second.c_str(),
                senders[i].first);
}

int inspect_tangle(const std::string& path, const tools::CliArgs& args) {
  const auto tangle = storage::load_tangle(path);
  if (!tangle) {
    std::printf("error: %s\n", tangle.status().to_string().c_str());
    return 1;
  }
  std::printf("== tangle %s ==\n", path.c_str());
  std::printf("size: %zu, tips: %zu\n", tangle.value().size(),
              tangle.value().tips().size());

  std::vector<std::pair<tangle::Transaction, double>> txs;
  for (const auto& id : tangle.value().arrival_order()) {
    const auto* rec = tangle.value().find(id);
    txs.emplace_back(rec->tx, rec->arrival);
  }
  summarize_transactions(txs);

  if (args.has("dot")) {
    const auto out_path = args.get("dot", "");
    const auto dot = storage::to_dot(tangle.value());
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(dot.data(), 1, dot.size(), f);
      std::fclose(f);
      std::printf("DAG exported to %s\n", out_path.c_str());
    }
  }

  if (args.has("audit")) {
    const auto report = tangle::audit(tangle.value());
    std::printf("%s\n", report.to_string().c_str());
    if (!report.ok()) return 2;
  }

  if (args.has("metrics")) {
    // Render the replica as a metrics registry: structure gauges, per-type
    // counters and payload/arrival distributions. Text to stdout, or
    // biot-metrics-v1 JSON when the flag carries a path.
    obs::MetricsRegistry registry;
    const auto scope = registry.scope("tangle");
    scope.gauge("size").set(static_cast<double>(tangle.value().size()));
    scope.gauge("tips").set(static_cast<double>(tangle.value().tips().size()));
    auto& payload_bytes =
        scope.histogram("payload_bytes", obs::HistogramSpec::size());
    auto& arrival_s =
        scope.histogram("arrival_sim_s", obs::HistogramSpec::timer_seconds());
    for (const auto& [tx, arrival] : txs) {
      ++scope.counter("type." + std::string(tangle::tx_type_name(tx.type)));
      payload_bytes.observe(static_cast<double>(tx.payload.size()));
      arrival_s.observe(arrival);
    }
    const auto out_path = args.get("metrics", "");
    if (out_path.empty()) {
      std::fputs(obs::to_text(registry.snapshot()).c_str(), stdout);
    } else {
      const auto status = obs::write_json(registry.snapshot(), out_path);
      std::printf("metrics written to %s: %s\n", out_path.c_str(),
                  status.to_string().c_str());
      if (!status.is_ok()) return 1;
    }
  }
  return 0;
}

int inspect_archive(const std::string& path) {
  const auto archive = storage::read_archive(path);
  if (!archive) {
    std::printf("error: %s\n", archive.status().to_string().c_str());
    return 1;
  }
  std::printf("== archive %s ==\n", path.c_str());
  std::printf("integrity: all record digests verified\n");
  std::vector<std::pair<tangle::Transaction, double>> txs;
  for (const auto& rec : archive.value()) txs.emplace_back(rec.tx, rec.arrival);
  summarize_transactions(txs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::CliArgs args(argc, argv);
  if (args.positional().empty() || args.has("help")) {
    std::puts(
        "usage: biot_inspect [--archive] FILE [--dot OUT.dot] [--audit]\n"
        "                    [--metrics [OUT.json]]");
    return args.has("help") ? 0 : 1;
  }
  const auto& path = args.positional().front();
  return args.has("archive") ? inspect_archive(path)
                             : inspect_tangle(path, args);
}
