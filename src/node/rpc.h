// Typed RPC messages between light nodes, gateways and the manager.
// Substitutes for the paper's RESTful HTTP interface between PyOTA light
// nodes and IRI full nodes (Section V): the same request/response shapes,
// serialized through the canonical codec and carried by sim::Network.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/ed25519.h"
#include "tangle/transaction.h"

namespace biot::node {

enum class MsgType : std::uint8_t {
  kGetTipsRequest = 1,   // device -> gateway: step 4 of Fig 6
  kGetTipsResponse = 2,  // gateway -> device: two tips + required difficulty
  kSubmitTx = 3,         // device -> gateway: step 5 of Fig 6
  kSubmitResult = 4,     // gateway -> device
  kBroadcastTx = 5,      // gateway -> gateway gossip
  kKeyDistM1 = 6,        // manager -> device (Fig 4)
  kKeyDistM2 = 7,        // device -> manager
  kKeyDistM3 = 8,        // manager -> device
  kAttachRequest = 9,    // device -> gateway: signed tx, PoW offloaded
  kAttachResult = 10,    // gateway -> device (SubmitResult body)
  kConfirmQuery = 11,    // device -> gateway: is my transaction confirmed?
  kConfirmResponse = 12, // gateway -> device
  kSyncSummary = 13,     // gateway -> gateway: anti-entropy digest + sketch
  kSyncMissing = 14,     // gateway -> gateway: transactions the peer lacked
  kDataQuery = 15,       // consumer -> gateway: read sensor data off chain
  kDataResponse = 16,    // gateway -> consumer
  kSyncInventoryRequest = 17,  // gateway -> gateway: sketch undecodable,
                               // request the full id inventory (fallback)
  kSyncInventory = 18,   // gateway -> gateway: full id inventory
  kOfflineOffer = 19,    // device -> device: signed OfflineRecord, offered
                         // for countersigning while both are dark
  kOfflineReceipt = 20,  // device -> device: countersignature over the offer
  kOfflineDrainRequest = 21,  // device -> gateway: one outbox drain chunk
  kOfflineDrainResult = 22,   // gateway -> device: per-item drain verdicts
};

/// Envelope for every message on the wire.
struct RpcMessage {
  MsgType type = MsgType::kGetTipsRequest;
  std::uint64_t request_id = 0;
  /// Sender's on-chain identity; gateways use it for authorization checks
  /// and credit lookups.
  crypto::Ed25519PublicKey sender_key{};
  Bytes body;

  Bytes encode() const;
  static Result<RpcMessage> decode(ByteView wire);
};

/// Body of kGetTipsResponse.
struct TipsResponse {
  ErrorCode status = ErrorCode::kOk;
  std::string message;
  tangle::TxId tip1{};
  tangle::TxId tip2{};
  std::uint8_t required_difficulty = 0;

  Bytes encode() const;
  static Result<TipsResponse> decode(ByteView wire);
};

/// Body of kConfirmResponse (kConfirmQuery's body is the raw 32-byte TxId).
struct ConfirmationInfo {
  tangle::TxId tx_id{};
  bool known = false;            // attached to the gateway's replica at all
  bool milestone_confirmed = false;
  bool weight_confirmed = false; // cumulative weight >= config threshold
  /// Saturates at the serving gateway's confirmation_weight: the gateway
  /// counts approvers only until the threshold is reached.
  std::uint64_t cumulative_weight = 0;

  Bytes encode() const;
  static Result<ConfirmationInfo> decode(ByteView wire);
};

/// Body of kDataQuery: which data transactions to read back.
struct DataQuery {
  /// All-zero = any sender; otherwise only this account's transactions.
  crypto::Ed25519PublicKey sender{};
  TimePoint since = 0.0;        // gateway arrival time lower bound
  std::uint32_t max_results = 100;

  Bytes encode() const;
  static Result<DataQuery> decode(ByteView wire);
};

/// Body of kDataResponse: matching data transactions, arrival order.
struct DataResponse {
  std::vector<tangle::Transaction> transactions;

  Bytes encode() const;
  static Result<DataResponse> decode(ByteView wire);
};

/// Body of kOfflineDrainRequest: one bounded chunk of outbox transactions
/// (kOfflineOffer/kOfflineReceipt bodies are a bare OfflineRecord /
/// OfflineReceipt encoding — see node/outbox.h).
struct OfflineDrainRequest {
  std::vector<tangle::Transaction> transactions;

  Bytes encode() const;
  static Result<OfflineDrainRequest> decode(ByteView wire);
};

/// Body of kOfflineDrainResult: one verdict per drained transaction, in
/// request order.
struct OfflineDrainResult {
  struct Item {
    ErrorCode status = ErrorCode::kOk;
    tangle::TxId tx_id{};
  };
  std::vector<Item> items;

  Bytes encode() const;
  static Result<OfflineDrainResult> decode(ByteView wire);
};

/// Body of kSubmitResult.
struct SubmitResult {
  ErrorCode status = ErrorCode::kOk;
  std::string message;
  tangle::TxId tx_id{};

  Bytes encode() const;
  static Result<SubmitResult> decode(ByteView wire);
};

}  // namespace biot::node
