// Message envelope and protocol message types.
//
// All parties (clients, KDC, authorization/group/accounting servers,
// end-servers, baselines) exchange Envelopes over net::SimNet.  The type
// field identifies which protocol payload follows; payloads are encoded
// with wire::Encoder by the protocol modules.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.hpp"
#include "util/status.hpp"
#include "wire/decoder.hpp"
#include "wire/encoder.hpp"

namespace rproxy::net {

/// Network-level name of a party.  We use the principal name as the node id
/// (one node per principal keeps the simulation simple and matches the
/// paper's one-party-per-role figures).
using NodeId = std::string;

/// Discriminates protocol payloads.  Ranges are grouped by subsystem so a
/// trace is readable at a glance.
enum class MsgType : std::uint16_t {
  kError = 0,

  // Kerberos-style authentication (kdc/).
  kAsRequest = 100,   ///< client -> KDC: initial authentication
  kAsReply = 101,     ///< KDC -> client: TGT + session key
  kTgsRequest = 102,  ///< client -> KDC: ticket for end-server (may add
                      ///< restrictions, never remove)
  kTgsReply = 103,
  kApRequest = 110,   ///< client -> server: ticket + authenticator
  kApReply = 111,     ///< server -> client: mutual-auth proof

  // Public-key authentication (pki/).
  kNameLookup = 150,  ///< who has which public key
  kNameReply = 151,

  // Proxy presentation (core/, §2): certificate(s) + proof of possession.
  kPresentChallengeRequest = 200,  ///< grantee -> end-server: request nonce
  kPresentChallengeReply = 201,    ///< end-server -> grantee: nonce
  kPresentProxy = 202,             ///< grantee -> end-server: chain + proof

  // Authorization services (authz/, Fig 3).
  kAuthzRequest = 300,  ///< authenticated request for authorization proxy
  kAuthzReply = 301,    ///< certificate + {Kproxy}Ksession
  kGroupRequest = 310,  ///< request group-membership proxy
  kGroupReply = 311,

  // Application operations (server/).
  kAppRequest = 400,  ///< operation + object + credentials
  kAppReply = 401,

  // Accounting (accounting/, Fig 5).
  kCheckDeposit = 500,   ///< payee/server -> accounting server: E1/E2
  kDepositReply = 501,
  kCertifyRequest = 510,  ///< client -> its accounting server: place hold
  kCertifyReply = 511,
  kAccountQuery = 520,
  kAccountReply = 521,
  kTransferRequest = 530,  ///< direct authorized transfer between accounts
  kTransferReply = 531,
  kCashierRequest = 540,   ///< buy a cashier's check (drawn on the bank)
  kCashierReply = 541,
  kShardMapRequest = 550,  ///< client/router -> map service: current map
  kShardMapReply = 551,

  // Journal-shipping replication (accounting/replication/, DESIGN.md §5h).
  kReplShip = 560,       ///< primary -> standby: committed WAL frames
                         ///< (doubles as the heartbeat when empty)
  kReplShipReply = 561,  ///< standby -> primary: received/applied watermark
  kReplBootstrap = 562,  ///< primary -> standby: sealed snapshot (the
                         ///< standby's watermark fell below compaction)
  kReplBootstrapReply = 563,

  // Baselines (baseline/).
  kSollinsVerify = 600,      ///< end-server -> auth server: verify passport
  kSollinsVerifyReply = 601,
  kPullAuthzQuery = 610,     ///< end-server -> registration server (Grapevine)
  kPullAuthzReply = 611,
  kPrepayDeposit = 620,      ///< Amoeba-style: move funds to server account
  kPrepayDepositReply = 621,
  kRoleCreate = 630,         ///< DSSA-style: register a restriction role
  kRoleCreateReply = 631,
  kRoleLookup = 632,         ///< end-server resolves a role's record
  kRoleLookupReply = 633,
};

/// Human-readable name of a message type for traces and audit logs.
[[nodiscard]] std::string_view msg_type_name(MsgType t);

/// A message in flight.
struct Envelope {
  NodeId from;
  NodeId to;
  MsgType type = MsgType::kError;
  util::Bytes payload;

  /// Octets on the wire: headers are charged at their encoded size so byte
  /// counters in benches reflect real protocol weight.
  [[nodiscard]] std::size_t wire_size() const;
};

/// Envelope codec: `from, to, type: u16, payload`, exactly
/// Envelope::wire_size() octets.
void encode_envelope(wire::Encoder& enc, const Envelope& e);
[[nodiscard]] Envelope decode_envelope(wire::Decoder& dec);

// Socket framing, shared by the server (net::EventLoopServer) and the
// client (net::FanoutClient): a u32 big-endian length, then the encoded
// envelope.  These two functions are the only code that writes or reads
// the length prefix.

/// Largest accepted frame body (length prefix excluded): a corrupt or
/// hostile length prefix must never provoke a multi-gigabyte allocation.
inline constexpr std::size_t kMaxFrameBytes = 4u << 20;  // generous for chains

/// One whole frame (length prefix + envelope), built in a single buffer.
[[nodiscard]] util::Bytes encode_frame(const Envelope& e);

/// What the front of a receive buffer holds.
struct PeeledFrame {
  enum class Kind {
    kNone,       ///< not a whole frame yet: read more
    kFrame,      ///< `body` is one whole envelope encoding
    kOversized,  ///< the prefix exceeds kMaxFrameBytes: the stream cannot
                 ///< be resynchronized, so drop the connection
  };
  Kind kind = Kind::kNone;
  util::BytesView body;       ///< points into the buffer (kFrame only)
  std::size_t consumed = 0;   ///< prefix + body octets (kFrame only)
};

/// Looks for one frame at the front of `buffer` without copying it.
[[nodiscard]] PeeledFrame peel_frame(util::BytesView buffer);

/// Standard error payload: carries a Status back to the caller.  `detail`
/// is the Status's machine-readable payload (e.g. the shard-map version
/// behind a kWrongShard redirect); 0 when unused.
struct ErrorPayload {
  std::uint16_t code = 0;
  std::string message;
  std::uint64_t detail = 0;

  void encode(wire::Encoder& enc) const;
  static ErrorPayload decode(wire::Decoder& dec);

  [[nodiscard]] util::Status to_status() const;
  [[nodiscard]] static ErrorPayload from_status(const util::Status& s);
};

/// Builds an error envelope replying to `req`.
[[nodiscard]] Envelope make_error_reply(const Envelope& req,
                                        const util::Status& status);

/// If `e` is an error envelope, surfaces its Status; otherwise OK.
[[nodiscard]] util::Status status_of(const Envelope& e);

}  // namespace rproxy::net
